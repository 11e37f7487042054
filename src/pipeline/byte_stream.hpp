// Byte sinks and sources: the IO boundary of the streaming archive sessions
// (pipeline/archive_io.hpp). An ArchiveWriter appends to a ByteSink and never
// rewinds; an ArchiveReader random-accesses a ByteSource (footer-first open,
// lazy per-chunk frame fetches). Implementations here cover the three
// deployment shapes — resident memory, files, and a bounded staging ring for
// tests that must prove a producer streams instead of accumulating — plus a
// read-traffic tracker for laziness assertions.
//
// Failure model (see README "Failure model & recovery"):
//  * ArchiveError — permanent IO or contract violation; retrying is useless.
//  * TransientIoError — the operation failed but left no partial effect the
//    caller can observe (a failed read filled nothing usable, a failed write
//    appended nothing); retrying MAY succeed. RetryPolicy + with_retry bound
//    that retrying with exponential backoff and deterministic jitter.
//  * commit() — the durability point of a sink. FileSink fsyncs; an
//    AtomicFileSink publishes its temp file under the final name only here,
//    so a crash before commit leaves no (possibly torn) archive at the
//    destination path. ArchiveWriter::finish() calls commit().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {

/// IO failure or truncated/overrun access on a sink or source. Derives from
/// std::invalid_argument so archive consumers can handle it uniformly with
/// the format errors (ContainerError): a short read from a truncated archive
/// IS invalid input.
class ArchiveError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// An IO failure that left no partial effect behind and may succeed when
/// retried (EINTR-shaped errors, injected faults, a flaky network source).
/// Anything that already consumed bytes irreversibly — a torn append — must
/// throw plain ArchiveError instead: retrying a half-applied write would
/// corrupt the stream.
class TransientIoError : public ArchiveError {
 public:
  using ArchiveError::ArchiveError;
};

/// Bounded retry budget with exponential backoff and deterministic jitter.
/// Default-constructed the policy is "no retries" (one attempt), so every
/// existing call site keeps its fail-fast behaviour until a policy is opted
/// in. Applied to ArchiveReader source reads and FileSink flushes; only
/// TransientIoError is retried.
struct RetryPolicy {
  std::size_t max_attempts = 1;  // total attempts; 1 = fail on first error
  std::chrono::microseconds base_delay{0};
  double backoff_multiplier = 2.0;
  /// Fraction of the delay randomized around its nominal value (0 = none).
  double jitter = 0.1;
  /// Seed of the jitter stream — deterministic per (seed, attempt), so a
  /// replayed schedule sleeps identically.
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;

  bool enabled() const { return max_attempts > 1; }

  /// Backoff before retry number `retry` (1-based): base * multiplier^(retry-1),
  /// jittered deterministically.
  std::chrono::microseconds delay_before(std::size_t retry) const {
    double us = static_cast<double>(base_delay.count());
    for (std::size_t i = 1; i < retry; ++i) us *= backoff_multiplier;
    if (jitter > 0.0 && us > 0.0) {
      util::Xoshiro256 rng(jitter_seed ^ (0xd1b54a32d192ed03ull * retry));
      us *= 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
    }
    return std::chrono::microseconds(static_cast<std::int64_t>(us));
  }
};

/// Runs `fn`, retrying on TransientIoError within the policy's attempt
/// budget (sleeping the backoff between attempts); rethrows the last
/// transient error once the budget is spent. Permanent errors propagate
/// immediately. `on_retry`, if provided, fires before each re-attempt —
/// callers use it to count retries.
template <typename Fn, typename OnRetry>
auto with_retry(const RetryPolicy& policy, Fn&& fn, OnRetry&& on_retry)
    -> decltype(fn()) {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientIoError&) {
      if (attempt >= policy.max_attempts) throw;
      const auto delay = policy.delay_before(attempt);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      on_retry();
    }
  }
}

template <typename Fn>
auto with_retry(const RetryPolicy& policy, Fn&& fn) -> decltype(fn()) {
  return with_retry(policy, std::forward<Fn>(fn), [] {});
}

/// Append-only byte consumer. Writers never seek: the archive format defers
/// its index and footer to the end precisely so a sink can be a socket, a
/// pipe, or an O_APPEND file.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Appends `bytes`; throws ArchiveError on IO failure (TransientIoError
  /// when nothing was appended and a retry may succeed).
  virtual void write(std::span<const std::uint8_t> bytes) = 0;

  /// Total bytes written so far.
  virtual std::uint64_t position() const = 0;

  /// Pushes buffered bytes to the backing store (no-op by default).
  virtual void flush() {}

  /// Makes everything written so far durable and, for staged sinks
  /// (AtomicFileSink), publishes it. Defaults to flush(). Called by
  /// ArchiveWriter::finish(); a sink may be unusable afterwards.
  virtual void commit() { flush(); }
};

/// Random-access byte producer. `read_at` must be safe to call from multiple
/// threads concurrently — the batch scheduler fetches chunk frames from
/// worker threads so IO overlaps decode.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  virtual std::uint64_t size() const = 0;

  /// Fills `out` with the bytes at [offset, offset + out.size()); throws
  /// ArchiveError if the range extends past the end or the read fails
  /// (TransientIoError when a retry may succeed).
  virtual void read_at(std::uint64_t offset,
                       std::span<std::uint8_t> out) const = 0;
};

/// Sink over an owned, growing vector — the in-memory archive path
/// (BatchScheduler::compress builds on it).
class MemorySink : public ByteSink {
 public:
  void write(std::span<const std::uint8_t> bytes) override {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  std::uint64_t position() const override { return buf_.size(); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Source over caller-owned bytes (kept alive by the caller).
class MemorySource : public ByteSource {
 public:
  explicit MemorySource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t size() const override { return bytes_.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override;

 private:
  std::span<const std::uint8_t> bytes_;
};

/// Source that OWNS its bytes — for handing a finished in-memory archive
/// (BatchScheduler::compress output) to a long-lived consumer (a service
/// client's open ArchiveReader) without the caller keeping the vector
/// alive. Neither copyable nor movable: readers borrow the source by
/// reference, so its address must be stable; share it behind a shared_ptr
/// instead.
class OwningMemorySource : public ByteSource {
 public:
  explicit OwningMemorySource(std::vector<std::uint8_t> bytes)
      : buf_(std::move(bytes)), view_(buf_) {}
  OwningMemorySource(const OwningMemorySource&) = delete;
  OwningMemorySource& operator=(const OwningMemorySource&) = delete;

  std::uint64_t size() const override { return buf_.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override {
    view_.read_at(offset, out);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
  MemorySource view_;  // bounds-checked read_at over buf_
};

/// Sink over a freshly created (truncated) file. Errors carry errno detail;
/// close()/commit() check the fclose result instead of ignoring it (a
/// buffered write can fail as late as close on a full disk). flush() throws
/// TransientIoError on EINTR/EAGAIN, after which the stream stays usable
/// and a retried flush may succeed; commit() additionally fsyncs.
class FileSink : public ByteSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  FileSink(const FileSink&) = delete;  // the destructor closes file_
  FileSink& operator=(const FileSink&) = delete;

  void write(std::span<const std::uint8_t> bytes) override;
  std::uint64_t position() const override { return written_; }
  void flush() override;

  /// flush + fsync + checked close: everything written is durable on return.
  void commit() override;

  /// Checked fclose; throws ArchiveError (with errno detail) if the close
  /// itself fails, which is the last chance buffered-write errors surface.
  void close();

  bool closed() const { return file_ == nullptr; }

 protected:
  /// Target of the durability fsync in commit() — the temp path for
  /// AtomicFileSink, the final path here.
  virtual const std::string& sync_path() const { return path_; }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

/// Crash-consistent file sink: writes go to `<path>.tmp`; commit() flushes,
/// fsyncs, closes, and atomically renames onto `path` (then fsyncs the
/// parent directory so the rename itself is durable). Destruction without
/// commit removes the temp file — an abandoned or failed session never
/// leaves a torn archive at the destination.
class AtomicFileSink : public FileSink {
 public:
  explicit AtomicFileSink(const std::string& path);
  ~AtomicFileSink() override;

  /// flush + fsync + close + rename(temp, final) + directory fsync. The
  /// archive appears at the final path all-or-nothing.
  void commit() override;

  bool committed() const { return committed_; }
  const std::string& temp_path() const { return path_; }
  const std::string& final_path() const { return final_path_; }

 protected:
  const std::string& sync_path() const override { return path_; }

 private:
  std::string final_path_;
  bool committed_ = false;
};

/// Source over an existing file. read_at is a pread loop: each call carries
/// its own offset, so concurrent chunk fetches neither share a file position
/// nor serialize. Errors carry errno detail.
class FileSource : public ByteSource {
 public:
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  std::uint64_t size() const override { return size_; }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override;

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

/// Test sink: a fixed-capacity FIFO ring. write() throws ArchiveError the
/// moment the UNDRAINED bytes would exceed the capacity, so a test that
/// drains between writes proves its producer streams with bounded staging
/// memory instead of accumulating the whole archive; peak_buffered() is the
/// high-water mark actually reached.
class BoundedRingSink : public ByteSink {
 public:
  explicit BoundedRingSink(std::size_t capacity);

  void write(std::span<const std::uint8_t> bytes) override;
  std::uint64_t position() const override { return written_; }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t buffered() const { return buffered_; }
  std::size_t peak_buffered() const { return peak_; }

  /// Removes and returns the buffered bytes in write order.
  std::vector<std::uint8_t> drain();

 private:
  std::vector<std::uint8_t> ring_;  // fixed storage, wrap-around addressing
  std::size_t head_ = 0;            // index of the oldest buffered byte
  std::size_t buffered_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t written_ = 0;
};

/// Test wrapper: counts the read traffic a consumer generates against an
/// inner source, so laziness is assertable ("opening the archive read only
/// the footer and index; decoding one chunk added exactly its frame").
class TrackingSource : public ByteSource {
 public:
  explicit TrackingSource(const ByteSource& inner) : inner_(inner) {}

  std::uint64_t size() const override { return inner_.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override;

  std::uint64_t reads() const { return reads_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t max_read_bytes() const { return max_read_; }

 private:
  const ByteSource& inner_;
  mutable std::mutex mutex_;
  mutable std::uint64_t reads_ = 0;
  mutable std::uint64_t bytes_read_ = 0;
  mutable std::uint64_t max_read_ = 0;
};

}  // namespace ohd::pipeline

#include "pipeline/byte_stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/trace.hpp"

namespace ohd::pipeline {
namespace {

/// Flush latency across all file sinks.
obs::LatencyHistogram& flush_ns() {
  static obs::LatencyHistogram& h = obs::registry().histogram("sink.flush_ns");
  return h;
}

/// "<what> '<path>' failed: <strerror>" with the errno captured at the
/// failure site, so disk-full vs permission vs stale-handle failures are
/// distinguishable from the exception message alone.
std::string errno_detail(const char* what, const std::string& path, int err) {
  std::string msg = std::string(what) + " '" + path + "' failed";
  if (err != 0) {
    msg += ": ";
    msg += std::strerror(err);
  }
  return msg;
}

/// fsync the file at `path` via a scratch descriptor. Used for durability
/// barriers after stdio-level flushes and for parent-directory syncs after
/// rename; throws with errno detail on failure.
void fsync_path(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw ArchiveError(errno_detail("open for fsync of", path, errno));
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    throw ArchiveError(errno_detail("fsync of", path, err));
  }
  ::close(fd);
}

/// Directory component of `path` ("" if none).
std::string parent_dir(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return std::string();
  if (slash == 0) return std::string("/");
  return path.substr(0, slash);
}

}  // namespace

void MemorySource::read_at(std::uint64_t offset,
                           std::span<std::uint8_t> out) const {
  if (out.empty()) return;
  if (offset > bytes_.size() || out.size() > bytes_.size() - offset) {
    throw ArchiveError("read past the end of the archive bytes");
  }
  std::memcpy(out.data(), bytes_.data() + offset, out.size());
}

FileSink::FileSink(const std::string& path) : path_(path) {
  errno = 0;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw ArchiveError(errno_detail("open for writing of", path, errno));
  }
}

FileSink::~FileSink() {
  // Best-effort close; errors here have no caller to reach. Paths that care
  // about buffered-write failures must call close()/commit() explicitly.
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::write(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  if (file_ == nullptr) {
    throw ArchiveError("write to closed sink for '" + path_ + "'");
  }
  errno = 0;
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    throw ArchiveError(errno_detail("write to", path_, errno));
  }
  written_ += bytes.size();
}

void FileSink::flush() {
  if (file_ == nullptr) return;  // already closed: nothing buffered
  const obs::ScopedOp op("sink.flush", &flush_ns());
  errno = 0;
  if (std::fflush(file_) != 0) {
    int err = errno;
    // EINTR/EAGAIN leave the stream usable and nothing is lost from stdio's
    // buffer on fflush failure, so a retry may succeed.
    if (err == EINTR || err == EAGAIN) {
      throw TransientIoError(errno_detail("flush of", path_, err));
    }
    throw ArchiveError(errno_detail("flush of", path_, err));
  }
}

void FileSink::close() {
  if (file_ == nullptr) return;
  std::FILE* f = file_;
  file_ = nullptr;  // never double-close, even if fclose reports failure
  errno = 0;
  if (std::fclose(f) != 0) {
    throw ArchiveError(errno_detail("close of", path_, errno));
  }
}

void FileSink::commit() {
  flush();
  fsync_path(sync_path());
  close();
}

AtomicFileSink::AtomicFileSink(const std::string& path)
    : FileSink(path + ".tmp"), final_path_(path) {}

AtomicFileSink::~AtomicFileSink() {
  if (!committed_) {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    std::remove(path_.c_str());  // abandon: leave nothing behind
  }
}

void AtomicFileSink::commit() {
  if (committed_) return;
  FileSink::commit();  // flush + fsync(temp) + checked close
  errno = 0;
  if (std::rename(path_.c_str(), final_path_.c_str()) != 0) {
    throw ArchiveError(errno_detail("rename to", final_path_, errno));
  }
  committed_ = true;
  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = parent_dir(final_path_);
  fsync_path(dir.empty() ? std::string(".") : dir);
}

FileSource::FileSource(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw ArchiveError(errno_detail("open for reading of", path, errno));
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    const int err = errno;
    ::close(fd_);
    throw ArchiveError(errno_detail("seek to end of", path, err));
  }
  size_ = static_cast<std::uint64_t>(end);
}

FileSource::~FileSource() { ::close(fd_); }

void FileSource::read_at(std::uint64_t offset,
                         std::span<std::uint8_t> out) const {
  if (out.empty()) return;
  if (offset > size_ || out.size() > size_ - offset) {
    throw ArchiveError("read past the end of '" + path_ + "'");
  }
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // A short read inside the known file size is an external interference
    // (concurrent truncation, transient media error): nothing was delivered
    // to the caller's contract, so a retry is legitimate.
    throw TransientIoError(
        errno_detail("short read from", path_, n < 0 ? errno : 0));
  }
}

BoundedRingSink::BoundedRingSink(std::size_t capacity) : ring_(capacity) {
  if (capacity == 0) {
    throw ArchiveError("ring sink capacity must be positive");
  }
}

void BoundedRingSink::write(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > ring_.size() - buffered_) {
    throw ArchiveError(
        "ring sink overflow: " + std::to_string(buffered_ + bytes.size()) +
        " buffered bytes exceed the " + std::to_string(ring_.size()) +
        "-byte capacity (the producer is not streaming)");
  }
  std::size_t tail = (head_ + buffered_) % ring_.size();
  for (std::uint8_t b : bytes) {
    ring_[tail] = b;
    tail = tail + 1 == ring_.size() ? 0 : tail + 1;
  }
  buffered_ += bytes.size();
  written_ += bytes.size();
  peak_ = std::max(peak_, buffered_);
}

std::vector<std::uint8_t> BoundedRingSink::drain() {
  std::vector<std::uint8_t> out;
  out.reserve(buffered_);
  while (buffered_ > 0) {
    out.push_back(ring_[head_]);
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --buffered_;
  }
  head_ = 0;
  return out;
}

void TrackingSource::read_at(std::uint64_t offset,
                             std::span<std::uint8_t> out) const {
  inner_.read_at(offset, out);
  std::lock_guard<std::mutex> lock(mutex_);
  ++reads_;
  bytes_read_ += out.size();
  max_read_ = std::max<std::uint64_t>(max_read_, out.size());
}

}  // namespace ohd::pipeline

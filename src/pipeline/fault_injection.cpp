#include "pipeline/fault_injection.hpp"

#include <string>
#include <thread>

#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

/// What one operation's deterministic draw decided.
struct Decision {
  enum class Kind { Clean, Transient, Partial } kind = Kind::Clean;
  std::uint64_t partial_bytes = 0;  // for Partial: prefix length delivered
  std::chrono::microseconds latency{0};
};

/// The draw is a pure function of (seed, op): replaying an operation
/// sequence reproduces its faults exactly, independent of threads or clock.
Decision draw(const FaultSpec& spec, std::uint64_t op, std::uint64_t n_bytes,
              double transient_rate, double partial_rate, bool capped) {
  util::Xoshiro256 rng(spec.seed ^ (op * 0x9e3779b97f4a7c15ull) ^
                       0xa5a5a5a55a5a5a5aull);
  Decision d;
  if (spec.max_latency.count() > 0) {
    d.latency = std::chrono::microseconds(static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(spec.max_latency.count())));
  }
  if (capped) return d;
  const double u = rng.uniform();
  if (u < transient_rate) {
    d.kind = Decision::Kind::Transient;
  } else if (u < transient_rate + partial_rate) {
    d.kind = Decision::Kind::Partial;
    // A strict prefix: 0..n-1 bytes of the n requested.
    d.partial_bytes = n_bytes == 0 ? 0 : rng.bounded(n_bytes);
  }
  return d;
}

void sleep_latency(std::chrono::microseconds latency) {
  if (latency.count() > 0) std::this_thread::sleep_for(latency);
}

}  // namespace

FaultStats FaultInjectingSource::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultStats s;
  s.reads = reads_.value();
  s.transient_read_errors = transient_read_errors_.value();
  s.short_reads = short_reads_.value();
  s.injected_latency_us = injected_latency_us_.value();
  return s;
}

FaultStats FaultInjectingSink::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultStats s;
  s.writes = writes_.value();
  s.torn_writes = torn_writes_.value();
  s.transient_write_errors = transient_write_errors_.value();
  s.injected_latency_us = injected_latency_us_.value();
  return s;
}

void FaultInjectingSource::read_at(std::uint64_t offset,
                                   std::span<std::uint8_t> out) const {
  Decision d;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t op = op_++;
    reads_.add(1);
    const std::uint64_t faults =
        transient_read_errors_.value() + short_reads_.value();
    d = draw(spec_, op, out.size(), spec_.transient_read_rate,
             spec_.short_read_rate, faults >= spec_.max_faults);
    switch (d.kind) {
      case Decision::Kind::Transient:
        transient_read_errors_.add(1);
        break;
      case Decision::Kind::Partial:
        short_reads_.add(1);
        break;
      case Decision::Kind::Clean:
        break;
    }
    injected_latency_us_.add(static_cast<std::uint64_t>(d.latency.count()));
  }
  sleep_latency(d.latency);
  switch (d.kind) {
    case Decision::Kind::Transient:
      throw TransientIoError("injected transient read error at offset " +
                             std::to_string(offset));
    case Decision::Kind::Partial:
      // Fill a prefix, then fail: the caller's contract delivered nothing
      // usable, so the fault is retryable.
      inner_.read_at(offset, out.subspan(0, static_cast<std::size_t>(
                                                d.partial_bytes)));
      throw TransientIoError(
          "injected short read at offset " + std::to_string(offset) + " (" +
          std::to_string(d.partial_bytes) + " of " +
          std::to_string(out.size()) + " bytes)");
    case Decision::Kind::Clean:
      inner_.read_at(offset, out);
      return;
  }
}

void FaultInjectingSink::write(std::span<const std::uint8_t> bytes) {
  Decision d;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t op = op_++;
    writes_.add(1);
    const std::uint64_t faults =
        transient_write_errors_.value() + torn_writes_.value();
    d = draw(spec_, op, bytes.size(), spec_.transient_write_rate,
             spec_.torn_write_rate, faults >= spec_.max_faults);
    switch (d.kind) {
      case Decision::Kind::Transient:
        transient_write_errors_.add(1);
        break;
      case Decision::Kind::Partial:
        torn_writes_.add(1);
        break;
      case Decision::Kind::Clean:
        break;
    }
    injected_latency_us_.add(static_cast<std::uint64_t>(d.latency.count()));
  }
  sleep_latency(d.latency);
  switch (d.kind) {
    case Decision::Kind::Transient:
      throw TransientIoError("injected transient write error (nothing "
                             "appended)");
    case Decision::Kind::Partial:
      // The crash model: a prefix landed, then the writer died. Permanent —
      // a retry would duplicate the prefix and corrupt the stream.
      inner_.write(bytes.subspan(0, static_cast<std::size_t>(d.partial_bytes)));
      throw ArchiveError("injected torn append (" +
                         std::to_string(d.partial_bytes) + " of " +
                         std::to_string(bytes.size()) + " bytes landed)");
    case Decision::Kind::Clean:
      inner_.write(bytes);
      return;
  }
}

}  // namespace ohd::pipeline

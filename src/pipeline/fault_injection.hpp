// Deterministic fault injection over the ByteSource/ByteSink contracts.
//
// FaultInjectingSource/FaultInjectingSink wrap a real source/sink and
// perturb its operations according to a SEEDED schedule: transient read
// errors, short reads, torn (partial) appends, transient write errors, and
// injected latency. The schedule is a pure function of (seed, operation
// index) — replaying the same operation sequence against the same spec
// reproduces the same faults bit-for-bit, which is what lets the CI
// fault-injection matrix and the retry/salvage tests assert exact outcomes
// instead of probabilistic ones.
//
// Fault semantics follow the byte_stream failure model:
//  * transient read error / short read — nothing observable was delivered;
//    thrown as TransientIoError, so RetryPolicy may retry it.
//  * torn append — a PREFIX of the bytes reached the inner sink before the
//    failure; thrown as plain ArchiveError because retrying a half-applied
//    write would corrupt the stream. This is the crash model the
//    crash-consistency tests drive (AtomicFileSink, repair_truncated).
//  * transient write error — nothing was appended; TransientIoError.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>

#include "obs/metrics.hpp"
#include "pipeline/byte_stream.hpp"

namespace ohd::pipeline {

/// Seeded, deterministic fault schedule. Rates are per-operation
/// probabilities in [0, 1]; the draw for operation i depends only on
/// (seed, i), never on wall clock or thread interleaving.
struct FaultSpec {
  std::uint64_t seed = 1;

  /// P(read_at throws TransientIoError before touching the inner source).
  double transient_read_rate = 0.0;
  /// P(read_at fills only a prefix, then throws TransientIoError).
  double short_read_rate = 0.0;
  /// P(write appends only a prefix to the inner sink, then throws
  /// ArchiveError) — the torn-append crash model, not retryable.
  double torn_write_rate = 0.0;
  /// P(write throws TransientIoError with nothing appended).
  double transient_write_rate = 0.0;
  /// When nonzero, every operation sleeps a deterministic uniform duration
  /// in [0, max_latency] (latency is not a fault; it does not count against
  /// max_faults).
  std::chrono::microseconds max_latency{0};

  /// Hard cap on injected faults; once spent the wrapper is transparent.
  /// Keeps bounded-retry tests convergent (e.g. "exactly 3 transient
  /// errors, then success").
  std::size_t max_faults = std::numeric_limits<std::size_t>::max();
};

struct FaultStats {
  std::uint64_t reads = 0;   // read_at calls observed
  std::uint64_t writes = 0;  // write calls observed
  std::uint64_t transient_read_errors = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t transient_write_errors = 0;
  std::uint64_t injected_latency_us = 0;

  std::uint64_t faults() const {
    return transient_read_errors + short_reads + torn_writes +
           transient_write_errors;
  }
};

/// Thread-safe (the source contract requires concurrent read_at): the
/// operation counter and the fault draw live behind a mutex, the inner read
/// runs outside it. Counts are held on obs instruments — stats() assembles
/// the FaultStats view, and the fault and latency counters are listed in
/// the process registry under "fault.*" — but every increment still happens
/// under the mutex, so the schedule (which depends on the fault count via
/// max_faults) stays deterministic.
class FaultInjectingSource : public ByteSource {
 public:
  FaultInjectingSource(const ByteSource& inner, FaultSpec spec)
      : inner_(inner), spec_(spec) {}

  std::uint64_t size() const override { return inner_.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override;

  FaultStats stats() const;

 private:
  const ByteSource& inner_;
  FaultSpec spec_;
  mutable std::mutex mutex_;
  mutable std::uint64_t op_ = 0;
  mutable obs::Counter reads_;
  mutable obs::Counter transient_read_errors_;
  mutable obs::Counter short_reads_;
  mutable obs::Counter injected_latency_us_;
  obs::MetricsRegistry::Owner metrics_{
      obs::registry(),
      {{"fault.transient_read_errors", &transient_read_errors_},
       {"fault.short_reads", &short_reads_},
       {"fault.injected_latency_us", &injected_latency_us_}}};
};

class FaultInjectingSink : public ByteSink {
 public:
  FaultInjectingSink(ByteSink& inner, FaultSpec spec)
      : inner_(inner), spec_(spec) {}

  void write(std::span<const std::uint8_t> bytes) override;
  std::uint64_t position() const override { return inner_.position(); }
  void flush() override { inner_.flush(); }
  void commit() override { inner_.commit(); }

  FaultStats stats() const;

 private:
  ByteSink& inner_;
  FaultSpec spec_;
  mutable std::mutex mutex_;
  std::uint64_t op_ = 0;
  obs::Counter writes_;
  obs::Counter torn_writes_;
  obs::Counter transient_write_errors_;
  obs::Counter injected_latency_us_;
  obs::MetricsRegistry::Owner metrics_{
      obs::registry(),
      {{"fault.torn_writes", &torn_writes_},
       {"fault.transient_write_errors", &transient_write_errors_},
       {"fault.injected_latency_us", &injected_latency_us_}}};
};

}  // namespace ohd::pipeline

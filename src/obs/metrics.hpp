// Telemetry metrics: the one registry every layer of the archive stack
// reports into (pipeline, service, net).
//
// Three lock-free instrument kinds, registered by stable dotted names
// ("reader.frame_fetch_ns", "pool.queue_depth", ...; the full catalogue is in
// README "Observability"):
//  * Counter          — monotone u64 total.
//  * Gauge            — current value plus a CAS-maxed peak.
//  * LatencyHistogram — fixed power-of-two ns buckets with p50/p95/p99/max
//                       snapshots; recording is two relaxed fetch_adds plus
//                       one CAS-max, so worker threads never contend on a
//                       lock.
//
// One instrument per number, after the collector model of the Prometheus
// client libraries: an object whose count also backs a per-object accessor
// (stats(), io_retries(), ...) owns that Counter or Gauge and lists it under
// its catalogue name through a MetricsRegistry::Owner member. snapshot()
// reads owned instruments in place, and an owner's destruction folds its
// counters into a retired total, so totals never go backwards. Numbers with
// no owning object (histograms, process-wide gauges, pipeline totals) live
// in the registry itself and are reached through counter()/gauge()/
// histogram() handles.
//
// Counters and gauges always count. The process-wide enable flag gates only
// the expensive parts — clock reads, histogram samples and trace spans — so
// a disabled call site costs one relaxed load and a predictable branch. No
// metric name comes from a caller: the registry never forgets a name, so
// its set of names stays fixed however long a process runs.
//
// MetricsRegistry::snapshot() freezes every name into a Snapshot whose
// to_json() is the uniform telemetry block the bench drivers emit.
// Registration takes a mutex; registry-held handles are stable for the
// registry's lifetime, so hot paths resolve names once and record through
// raw pointers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/phase_timings.hpp"

namespace ohd::obs {

/// Process-wide telemetry gate. Defaults to off (or on when the process
/// started with OHD_TELEMETRY=1). Counters and gauges count regardless;
/// clock reads, histogram samples and spans are skipped while disabled.
bool enabled();
void set_enabled(bool on);

/// Monotonic nanoseconds (steady clock) — the time base of every histogram
/// sample and trace span.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotone total. Lock-free; safe to hammer from any number of threads.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Current value plus high-water mark. add() with a positive delta CAS-maxes
/// the peak, so the peak observes every instantaneous maximum even under
/// concurrent add/sub.
class Gauge {
 public:
  void add(std::int64_t n) {
    const std::int64_t now = value_.fetch_add(n, std::memory_order_relaxed) + n;
    if (n > 0) {
      std::int64_t peak = peak_.load(std::memory_order_relaxed);
      while (now > peak &&
             !peak_.compare_exchange_weak(peak, now,
                                          std::memory_order_relaxed)) {
      }
    }
  }
  void sub(std::int64_t n) { add(-n); }
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (v > peak &&
           !peak_.compare_exchange_weak(peak, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Fixed-bucket latency histogram over nanoseconds. Bucket i holds samples
/// whose bit width is i — i.e. bucket 0 is {0}, bucket i (i >= 1) is
/// [2^(i-1), 2^i) — so quantile() is exact to within one power of two:
/// true_quantile <= quantile(q) < 2 * true_quantile for nonzero samples.
/// That resolution is plenty for latency SLOs and costs no per-sample
/// allocation or lock.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Inclusive upper bound of the bucket holding the q-quantile sample
  /// (q in [0, 1]; 0 with no samples). Monotone in q.
  std::uint64_t quantile(double q) const;

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

struct CounterSnap {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnap {
  std::string name;
  std::int64_t value = 0;
  std::int64_t peak = 0;
};

struct HistogramSnap {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Frozen registry state, sorted by name per kind — the exportable report.
/// to_json() emits the schema documented in README "Observability":
///   { "counters": {name: u64, ...},
///     "gauges": {name: {"value": i64, "peak": i64}, ...},
///     "histograms": {name: {"count","sum_ns","max_ns",
///                           "p50_ns","p95_ns","p99_ns"}, ...} }
struct Snapshot {
  std::vector<CounterSnap> counters;
  std::vector<GaugeSnap> gauges;
  std::vector<HistogramSnap> histograms;

  /// Lookup helpers (nullptr when the name was never registered).
  const CounterSnap* counter(std::string_view name) const;
  const GaugeSnap* gauge(std::string_view name) const;
  const HistogramSnap* histogram(std::string_view name) const;

  /// Deterministic (sorted) JSON; every line is prefixed with `indent`
  /// spaces so the block can be embedded inside a larger document.
  std::string to_json(int indent = 0) const;
};

/// Thread-safe name -> instrument store. Get-or-create registration is
/// mutex-serialized; the returned references stay valid (and lock-free to
/// record into) for the registry's lifetime, including across reset().
class MetricsRegistry {
 public:
  class Owner;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Per name, the sum of the registry's own instrument, every live owner's
  /// and the retired total. Counters and gauge values add; a gauge's peak
  /// is the largest peak of any instrument, live or retired. Reads atomics
  /// only: it never calls into an owner.
  Snapshot snapshot() const;

  /// Zeroes the registry's own instruments and the retired totals; handles
  /// stay registered and valid. Owned instruments (and so their objects'
  /// stats()) are never written. Tests use this (via ScopedTelemetry) to
  /// isolate runs on the process registry.
  void reset();

 private:
  struct CounterSlot;
  struct GaugeSlot;
  struct Impl;
  Impl* impl();  // lazily built so a never-touched registry costs nothing
  mutable std::atomic<Impl*> impl_{nullptr};
};

/// An object's own counters and gauges, listed under catalogue names for
/// the object's lifetime. Hold it as a member declared AFTER the listed
/// instruments, so it is destroyed before them; the registry must outlive
/// it (the process registry is never destroyed). Construction and
/// destruction take the registry mutex once and cost the same however many
/// owners share a name; recording never touches the registry.
class MetricsRegistry::Owner {
 public:
  using Counters =
      std::initializer_list<std::pair<std::string_view, const Counter*>>;
  using Gauges =
      std::initializer_list<std::pair<std::string_view, const Gauge*>>;

  Owner(MetricsRegistry& registry, Counters counters, Gauges gauges = {});
  /// Adds the counters into the retired totals and the gauge peaks into the
  /// retired peaks, then unlists them.
  ~Owner();
  Owner(const Owner&) = delete;
  Owner& operator=(const Owner&) = delete;

 private:
  void unlist();

  // Each entry keeps this owner's node in its name's live list.
  using CounterNode = std::list<const Counter*>::iterator;
  using GaugeNode = std::list<const Gauge*>::iterator;
  Impl* impl_;
  std::vector<std::pair<CounterSlot*, CounterNode>> counters_;
  std::vector<std::pair<GaugeSlot*, GaugeNode>> gauges_;
};

/// The process-wide registry every instrumented component reports into.
MetricsRegistry& registry();

/// Bridges core::PhaseTimings into `reg`: each phase row becomes
/// "decode.phase.<name>_ns" (counter, nanoseconds), so the decoder families'
/// aggregated simulated timings appear in snapshots without rewriting them.
void absorb_phase_timings(MetricsRegistry& reg, const core::PhaseTimings& t);

}  // namespace ohd::obs

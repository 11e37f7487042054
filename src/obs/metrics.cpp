#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <mutex>

namespace ohd::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  // Initialized once, thread-safely, from the environment so headless runs
  // (benches under CI, the fault matrix) can switch telemetry on without a
  // code path: OHD_TELEMETRY=1.
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("OHD_TELEMETRY");
    return env != nullptr && env[0] == '1';
  }()};
  return flag;
}

/// JSON string escaping for metric names (names are code literals, but a
/// registry is open to any caller — never emit malformed JSON).
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void LatencyHistogram::record(std::uint64_t ns) {
  const std::size_t bucket = std::bit_width(ns);  // 0 for ns == 0
  buckets_[bucket >= kBuckets ? kBuckets - 1 : bucket].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t max = max_.load(std::memory_order_relaxed);
  while (ns > max &&
         !max_.compare_exchange_weak(max, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample, 1-based (nearest-rank definition).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Inclusive upper bound of bucket i: 0, then 2^i - 1.
      if (i == 0) return 0;
      if (i >= 64) return ~std::uint64_t{0};
      return (std::uint64_t{1} << i) - 1;
    }
  }
  return max();  // concurrent recording raced count past the buckets
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// `live` lists the owners' instruments; a list, so an owner unlists its
// node in O(1) however many owners share the name.
struct MetricsRegistry::CounterSlot {
  Counter own;
  std::list<const Counter*> live;
  std::uint64_t retired = 0;  // destroyed owners' final values
};

struct MetricsRegistry::GaugeSlot {
  Gauge own;
  std::list<const Gauge*> live;
  std::int64_t retired_peak = 0;
};

struct MetricsRegistry::Impl {
  std::mutex mutex;
  // Node-based maps: slot addresses are stable across later inserts.
  std::map<std::string, CounterSlot, std::less<>> counters;
  std::map<std::string, GaugeSlot, std::less<>> gauges;
  std::map<std::string, LatencyHistogram, std::less<>> histograms;
};

MetricsRegistry::~MetricsRegistry() {
  delete impl_.load(std::memory_order_acquire);
}

MetricsRegistry::Impl* MetricsRegistry::impl() {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(p, fresh, std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;  // lost the race; p now holds the winner
  return p;
}

namespace {

/// Get-or-create under the registry mutex (held by the caller).
template <typename Map>
auto& slot(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name)).first;
  return it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl* p = impl();
  std::lock_guard<std::mutex> lock(p->mutex);
  return slot(p->counters, name).own;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl* p = impl();
  std::lock_guard<std::mutex> lock(p->mutex);
  return slot(p->gauges, name).own;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  Impl* p = impl();
  std::lock_guard<std::mutex> lock(p->mutex);
  return slot(p->histograms, name);
}

MetricsRegistry::Owner::Owner(MetricsRegistry& registry, Counters counters,
                              Gauges gauges)
    : impl_(registry.impl()) {
  counters_.reserve(counters.size());  // so no emplace_back below throws
  gauges_.reserve(gauges.size());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  try {
    for (const auto& [name, c] : counters) {
      CounterSlot& s = slot(impl_->counters, name);
      counters_.emplace_back(&s, s.live.insert(s.live.end(), c));
    }
    for (const auto& [name, g] : gauges) {
      GaugeSlot& s = slot(impl_->gauges, name);
      gauges_.emplace_back(&s, s.live.insert(s.live.end(), g));
    }
  } catch (...) {
    unlist();  // never leave a failed object's instruments listed
    throw;
  }
}

MetricsRegistry::Owner::~Owner() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& [s, node] : counters_) s->retired += (*node)->value();
  for (const auto& [s, node] : gauges_) {
    s->retired_peak = std::max(s->retired_peak, (*node)->peak());
  }
  unlist();
}

void MetricsRegistry::Owner::unlist() {
  for (const auto& [s, node] : counters_) s->live.erase(node);
  for (const auto& [s, node] : gauges_) s->live.erase(node);
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p == nullptr) return snap;
  std::lock_guard<std::mutex> lock(p->mutex);
  snap.counters.reserve(p->counters.size());
  for (const auto& [name, s] : p->counters) {
    std::uint64_t value = s.own.value() + s.retired;
    for (const Counter* c : s.live) value += c->value();
    snap.counters.push_back({name, value});
  }
  snap.gauges.reserve(p->gauges.size());
  for (const auto& [name, s] : p->gauges) {
    std::int64_t value = s.own.value();
    std::int64_t peak = std::max(s.own.peak(), s.retired_peak);
    for (const Gauge* g : s.live) {
      value += g->value();
      peak = std::max(peak, g->peak());
    }
    snap.gauges.push_back({name, value, peak});
  }
  snap.histograms.reserve(p->histograms.size());
  for (const auto& [name, h] : p->histograms) {
    HistogramSnap hs;
    hs.name = name;
    hs.count = h.count();
    hs.sum_ns = h.sum();
    hs.max_ns = h.max();
    hs.p50_ns = h.quantile(0.50);
    hs.p95_ns = h.quantile(0.95);
    hs.p99_ns = h.quantile(0.99);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::reset() {
  Impl* p = impl_.load(std::memory_order_acquire);
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(p->mutex);
  for (auto& [name, s] : p->counters) {
    s.own.reset();
    s.retired = 0;
  }
  for (auto& [name, s] : p->gauges) {
    s.own.reset();
    s.retired_peak = 0;
  }
  for (auto& [name, h] : p->histograms) h.reset();
}

MetricsRegistry& registry() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed:
  // instrument handles are cached in function-local statics across the
  // pipeline, and tearing the registry down during static destruction would
  // turn those into dangling pointers for any late-running thread.
  return *reg;
}

const CounterSnap* Snapshot::counter(std::string_view name) const {
  for (const CounterSnap& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnap* Snapshot::gauge(std::string_view name) const {
  for (const GaugeSnap& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnap* Snapshot::histogram(std::string_view name) const {
  for (const HistogramSnap& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  std::string out;
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  out += "{\n";
  out += pad + "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "    ";
    append_json_string(out, counters[i].name);
    out += ": " + num(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n" + pad + "  },\n";
  out += pad + "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "    ";
    append_json_string(out, gauges[i].name);
    out += ": {\"value\": " + std::to_string(gauges[i].value) +
           ", \"peak\": " + std::to_string(gauges[i].peak) + "}";
  }
  out += gauges.empty() ? "},\n" : "\n" + pad + "  },\n";
  out += pad + "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnap& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += pad + "    ";
    append_json_string(out, h.name);
    out += ": {\"count\": " + num(h.count) + ", \"sum_ns\": " + num(h.sum_ns) +
           ", \"max_ns\": " + num(h.max_ns) + ", \"p50_ns\": " + num(h.p50_ns) +
           ", \"p95_ns\": " + num(h.p95_ns) + ", \"p99_ns\": " + num(h.p99_ns) +
           "}";
  }
  out += histograms.empty() ? "}\n" : "\n" + pad + "  }\n";
  out += pad + "}";
  return out;
}

void absorb_phase_timings(MetricsRegistry& reg, const core::PhaseTimings& t) {
  t.for_each_phase([&reg](const char* name, double seconds) {
    if (seconds <= 0.0) return;
    reg.counter(std::string("decode.phase.") + name + "_ns")
        .add(static_cast<std::uint64_t>(seconds * 1e9));
  });
}

}  // namespace ohd::obs

// obs/metrics.hpp: instrument exactness under concurrency (counter totals,
// gauge balance and peak monotonicity, histogram totals), histogram quantile
// correctness against a sorted reference, registry get-or-create / snapshot /
// reset semantics, the collection of owned instruments (live owners add,
// retired counters persist, reset never writes an owner), snapshot JSON
// shape, the PhaseTimings bridge, and the disabled-mode no-op guarantees of
// ScopedOp.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace ohd::obs {
namespace {

TEST(Counter, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksValueAndPeak) {
  Gauge g;
  g.add(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.peak(), 5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 13);
  EXPECT_EQ(g.peak(), 13);
  g.set(4);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.peak(), 13);
  g.set(40);
  EXPECT_EQ(g.peak(), 40);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
}

TEST(Gauge, ConcurrentAddSubBalancesAndPeakIsMonotone) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kReps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kReps; ++i) {
        g.add(3);
        g.sub(3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 0);
  // At least one thread was inside its add; never more than all of them.
  EXPECT_GE(g.peak(), 3);
  EXPECT_LE(g.peak(), 3 * kThreads);
}

TEST(LatencyHistogram, CountSumMaxAreExactUnderConcurrency) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expect_sum += (static_cast<std::uint64_t>(t) + 1) * kPerThread;
  }
  EXPECT_EQ(h.sum(), expect_sum);
  EXPECT_EQ(h.max(), 8u);
}

TEST(LatencyHistogram, QuantileBracketsSortedReference) {
  // Power-of-two buckets promise: ref <= quantile(q) < 2 * ref for any
  // nonzero reference sample (and exactly 0 when the reference is 0).
  util::Xoshiro256 rng(7);
  LatencyHistogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 5000; ++i) {
    // Mix of magnitudes across many buckets, including zeros.
    const std::uint64_t ns =
        i % 50 == 0 ? 0 : rng.bounded(std::uint64_t{1} << (1 + i % 30));
    samples.push_back(ns);
    h.record(ns);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size()));
    if (rank < 1) rank = 1;
    if (rank > samples.size()) rank = samples.size();
    const std::uint64_t ref = samples[rank - 1];
    const std::uint64_t got = h.quantile(q);
    if (ref == 0) {
      EXPECT_EQ(got, 0u) << "q=" << q;
    } else {
      EXPECT_GE(got, ref) << "q=" << q;
      EXPECT_LT(got, 2 * ref) << "q=" << q;
    }
  }
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(LatencyHistogram, QuantileIsMonotoneInQ) {
  util::Xoshiro256 rng(11);
  LatencyHistogram h;
  for (int i = 0; i < 2000; ++i) h.record(rng.bounded(1u << 20));
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(MetricsRegistry, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.counter("alpha");
  Counter& b = reg.counter("alpha");
  EXPECT_EQ(&a, &b);
  a.add(3);
  reg.counter("beta").add(1);
  reg.gauge("depth").add(7);
  reg.histogram("lat").record(100);
  // A later registration must not move earlier instruments.
  for (int i = 0; i < 100; ++i) {
    reg.counter("extra." + std::to_string(i));
  }
  EXPECT_EQ(&a, &reg.counter("alpha"));
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndLookupsWork) {
  MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("mid").set(9);
  reg.histogram("h1").record(7);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_NE(snap.counter("a.first"), nullptr);
  EXPECT_EQ(snap.counter("a.first")->value, 2u);
  EXPECT_EQ(snap.counter("missing"), nullptr);
  ASSERT_NE(snap.gauge("mid"), nullptr);
  EXPECT_EQ(snap.gauge("mid")->value, 9);
  EXPECT_EQ(snap.gauge("mid")->peak, 9);
  ASSERT_NE(snap.histogram("h1"), nullptr);
  EXPECT_EQ(snap.histogram("h1")->count, 1u);
  EXPECT_GE(snap.histogram("h1")->p50_ns, 7u);
  EXPECT_LT(snap.histogram("h1")->p50_ns, 14u);
}

TEST(MetricsRegistry, ResetZeroesButHandlesStayValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  LatencyHistogram& h = reg.histogram("h");
  c.add(5);
  g.add(5);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.add(2);  // the handle still feeds the same registered instrument
  EXPECT_EQ(reg.snapshot().counter("c")->value, 2u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndRecording) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 500; ++i) {
        reg.counter("shared").add(1);
        reg.counter("name." + std::to_string(i % 7)).add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("shared")->value, kThreads * 500u);
  std::uint64_t spread = 0;
  for (int i = 0; i < 7; ++i) {
    spread += snap.counter("name." + std::to_string(i))->value;
  }
  EXPECT_EQ(spread, kThreads * 500u);
}

/// An object that owns one counter and one gauge, listed under fixed names.
struct Widget {
  explicit Widget(MetricsRegistry& reg)
      : owner(reg, {{"widget.count", &count}}, {{"widget.level", &level}}) {}
  Counter count;
  Gauge level;
  MetricsRegistry::Owner owner;
};

TEST(MetricsOwner, CountersAddOverTheRegistryLiveAndDestroyedOwners) {
  MetricsRegistry reg;
  reg.counter("widget.count").add(1);
  Widget live(reg);
  live.count.add(2);
  {
    Widget gone(reg);
    gone.count.add(3);
    EXPECT_EQ(reg.snapshot().counter("widget.count")->value, 6u);
  }
  // The destroyed owner's count persists in the retired total.
  EXPECT_EQ(reg.snapshot().counter("widget.count")->value, 6u);
  live.count.add(4);  // read in place: no re-registration needed
  EXPECT_EQ(reg.snapshot().counter("widget.count")->value, 10u);
}

TEST(MetricsOwner, GaugeValueSumsLiveOwnersAndPeakIsTheMax) {
  MetricsRegistry reg;
  Widget a(reg);
  a.level.add(4);
  a.level.sub(1);  // value 3, peak 4
  {
    Widget b(reg);
    b.level.add(6);
    b.level.sub(2);  // value 4, peak 6
    const Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.gauge("widget.level"), nullptr);
    EXPECT_EQ(snap.gauge("widget.level")->value, 7);
    EXPECT_EQ(snap.gauge("widget.level")->peak, 6);
  }
  // A destroyed owner's value leaves with it; its peak stays the maximum.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("widget.level")->value, 3);
  EXPECT_EQ(snap.gauge("widget.level")->peak, 6);
}

TEST(MetricsOwner, ResetClearsRegistryHeldAndRetiredButNeverAnOwner) {
  MetricsRegistry reg;
  reg.counter("widget.count").add(1);
  reg.gauge("widget.level").add(9);
  {
    Widget gone(reg);
    gone.count.add(5);
    gone.level.add(8);
  }
  Widget live(reg);
  live.count.add(2);
  live.level.add(3);
  reg.reset();
  // Only the live owner's instruments remain, and reset did not touch them.
  EXPECT_EQ(live.count.value(), 2u);
  EXPECT_EQ(live.level.value(), 3);
  EXPECT_EQ(live.level.peak(), 3);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("widget.count")->value, 2u);
  EXPECT_EQ(snap.gauge("widget.level")->value, 3);
  EXPECT_EQ(snap.gauge("widget.level")->peak, 3);
}

TEST(MetricsOwner, OwnersComeAndGoWhileSnapshottingAndResetting) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOwnersPerThread = 200;
  const auto churn = [&reg] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&reg] {
        for (int i = 0; i < kOwnersPerThread; ++i) {
          Widget w(reg);
          w.count.add(3);
          w.level.add(1);
          w.level.sub(1);
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  // Churn against a thread that snapshots and resets throughout.
  std::atomic<bool> done{false};
  std::thread resetter([&] {
    while (!done.load()) {
      (void)reg.snapshot();
      reg.reset();
    }
  });
  churn();
  done = true;
  resetter.join();

  // Churn against a snapshot-only reader: the total never goes backwards
  // and ends exact.
  reg.reset();
  done = false;
  bool monotone = true;
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const Snapshot snap = reg.snapshot();
      const CounterSnap* c = snap.counter("widget.count");
      const std::uint64_t now = c == nullptr ? 0 : c->value;
      if (now < last) monotone = false;
      last = now;
    }
  });
  churn();
  done = true;
  reader.join();
  EXPECT_TRUE(monotone);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("widget.count")->value,
            std::uint64_t{3} * kThreads * kOwnersPerThread);
  EXPECT_EQ(snap.gauge("widget.level")->value, 0);
  EXPECT_EQ(snap.gauge("widget.level")->peak, 1);
}

TEST(Snapshot, JsonHasDocumentedSchema) {
  MetricsRegistry reg;
  reg.counter("reader.bytes_read").add(42);
  reg.gauge("pool.queue_depth").add(3);
  reg.histogram("reader.frame_fetch_ns").record(1000);
  const std::string json = reg.snapshot().to_json(2);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"reader.bytes_read\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"pool.queue_depth\": {\"value\": 3, \"peak\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // Deterministic: a second snapshot of unchanged instruments is identical.
  EXPECT_EQ(json, reg.snapshot().to_json(2));
}

TEST(Snapshot, EmptyRegistryJsonIsWellFormed) {
  MetricsRegistry reg;
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(AbsorbPhaseTimings, BridgesRowsToCounters) {
  MetricsRegistry reg;
  core::PhaseTimings t;
  t.decode_write_s = 0.25;
  t.tune_s = 0.5;
  absorb_phase_timings(reg, t);
  const Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("decode.phase.decode_write_ns"), nullptr);
  EXPECT_EQ(snap.counter("decode.phase.decode_write_ns")->value, 250000000u);
  EXPECT_EQ(snap.counter("decode.phase.tune_ns")->value, 500000000u);
  // Zero phases are skipped, not registered as zero counters.
  EXPECT_EQ(snap.counter("decode.phase.other_ns"), nullptr);
  // Absorbing again accumulates (counter semantics).
  absorb_phase_timings(reg, t);
  EXPECT_EQ(reg.snapshot().counter("decode.phase.tune_ns")->value,
            1000000000u);
}

TEST(EnableFlag, ScopedOpIsNoOpWhileDisabled) {
  const bool was = enabled();
  set_enabled(false);
  LatencyHistogram h;
  { const ScopedOp op("noop", &h); }
  EXPECT_EQ(h.count(), 0u);
  set_enabled(true);
  { const ScopedOp op("measured", &h); }
  EXPECT_EQ(h.count(), 1u);
  set_enabled(was);
}

TEST(EnableFlag, InstrumentsStayAlwaysOn) {
  // Counters and gauges count regardless of the process-wide flag; only
  // clock reads, histogram samples and spans wait for it.
  const bool was = enabled();
  set_enabled(false);
  Counter c;
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
  set_enabled(was);
}

}  // namespace
}  // namespace ohd::obs

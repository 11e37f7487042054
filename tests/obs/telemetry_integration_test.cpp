// End-to-end telemetry: one streamed compress -> decompress round trip over
// a file-backed archive must populate pool, batch, reader, and sink metrics
// in a single obs::Snapshot (including frame-fetch latency quantiles and
// queue depth), produce a nested trace, and keep the per-object accessor
// ArchiveReader::peak_frame_bytes in agreement with the registry. With
// telemetry disabled the counters and gauges count exactly the same, while
// histograms and spans record nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

std::vector<float> wavy_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                              0.02 * rng.normal());
  }
  return v;
}

struct Corpus {
  std::vector<std::vector<float>> storage;
  std::vector<FieldSpec> specs;
};

Corpus small_corpus() {
  Corpus c;
  c.storage.push_back(wavy_field(20000, 21));
  c.storage.push_back(wavy_field(96 * 70, 22));
  const sz::Dims dims[] = {sz::Dims::d1(20000), sz::Dims::d2(96, 70)};
  for (std::size_t i = 0; i < 2; ++i) {
    FieldSpec spec;
    spec.name = "field" + std::to_string(i);
    spec.data = c.storage[i];
    spec.dims = dims[i];
    spec.config.method = core::Method::GapArrayOptimized;
    spec.config.rel_error_bound = 1e-3;
    spec.chunk_elems = 4096;
    spec.plan.auto_method = i == 1;  // exercise both fan-out shapes
    c.specs.push_back(spec);
  }
  return c;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Streamed compress to a FileSink, footer-first reopen, batch decompress.
/// Returns the reader's peak_frame_bytes() accessor value.
std::uint64_t round_trip(const Corpus& corpus, const std::string& path) {
  ThreadPool pool(4);
  const BatchScheduler scheduler(pool);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    scheduler.compress_to(writer, corpus.specs);
    writer.finish();
  }
  const FileSource source(path);
  const ArchiveReader reader(source);
  const BatchDecompressResult result = scheduler.decompress(reader);
  EXPECT_EQ(result.fields.size(), corpus.specs.size());
  return reader.peak_frame_bytes();
}

TEST(TelemetryIntegration, RoundTripSnapshotCoversEveryLayer) {
  const Corpus corpus = small_corpus();
  obs::TraceRecorder rec;
  const obs::ScopedTelemetry scope(&rec);
  const std::string path = temp_path("obs_roundtrip.bin");
  const std::uint64_t reader_peak = round_trip(corpus, path);
  std::remove(path.c_str());

  const obs::Snapshot snap = obs::registry().snapshot();

  // Pool: depth gauge balanced back to zero, wait/run latency recorded for
  // every submitted task.
  const obs::GaugeSnap* depth = snap.gauge("pool.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);
  EXPECT_GE(depth->peak, 1);
  const obs::HistogramSnap* wait = snap.histogram("pool.task_wait_ns");
  const obs::HistogramSnap* run = snap.histogram("pool.task_run_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_GT(wait->count, 0u);
  EXPECT_EQ(wait->count, run->count);

  // Batch: encode and decode chunk totals line up across directions.
  const obs::CounterSnap* encoded = snap.counter("batch.chunks_encoded");
  const obs::CounterSnap* decoded = snap.counter("batch.chunks_decoded");
  ASSERT_NE(encoded, nullptr);
  ASSERT_NE(decoded, nullptr);
  EXPECT_GT(encoded->value, 0u);
  EXPECT_EQ(encoded->value, decoded->value);
  EXPECT_GT(snap.histogram("batch.encode_ns")->count, 0u);
  EXPECT_EQ(snap.histogram("batch.decode_ns")->count, decoded->value);

  // Reader: frame-fetch latency quantiles are populated and ordered; the
  // residency gauge drained to zero and its peak matches the migrated
  // per-reader accessor (one reader in this run).
  const obs::HistogramSnap* fetch = snap.histogram("reader.frame_fetch_ns");
  ASSERT_NE(fetch, nullptr);
  EXPECT_GE(fetch->count, decoded->value);
  EXPECT_LE(fetch->p50_ns, fetch->p95_ns);
  EXPECT_LE(fetch->p95_ns, fetch->p99_ns);
  EXPECT_LE(fetch->p99_ns, 2 * fetch->max_ns);
  const obs::GaugeSnap* frames = snap.gauge("reader.frame_bytes");
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->value, 0);
  EXPECT_GT(frames->peak, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(frames->peak), reader_peak);
  EXPECT_GT(snap.counter("reader.bytes_read")->value, 0u);
  EXPECT_GE(snap.counter("reader.crc_checks")->value, decoded->value);
  EXPECT_EQ(snap.counter("reader.io_retries")->value, 0u);

  // Writer + sink: the archive's bytes were counted out and the FileSink
  // flush (via finish()'s commit) recorded its latency.
  EXPECT_GT(snap.counter("writer.bytes_written")->value, 0u);
  EXPECT_EQ(snap.counter("writer.chunks")->value, encoded->value);
  ASSERT_NE(snap.histogram("sink.flush_ns"), nullptr);
  EXPECT_GE(snap.histogram("sink.flush_ns")->count, 1u);

  // PhaseTimings bridge: the decompress absorbed its aggregated simulated
  // phase rows into decode.phase.* counters.
  bool has_phase = false;
  for (const obs::CounterSnap& c : snap.counters) {
    if (c.name.rfind("decode.phase.", 0) == 0 && c.value > 0) {
      has_phase = true;
    }
  }
  EXPECT_TRUE(has_phase);

  // The exportable report serializes all of the above.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("reader.frame_fetch_ns"), std::string::npos);
  EXPECT_NE(json.find("pool.queue_depth"), std::string::npos);

  // Trace: the batch phases nest deterministically on the calling thread and
  // worker-side ops were captured.
  const std::string text = rec.sorted_text();
  EXPECT_NE(text.find("batch.compress x1"), std::string::npos) << text;
  EXPECT_NE(text.find("batch.compress/batch.plan"), std::string::npos);
  EXPECT_NE(text.find("batch.compress/batch.write"), std::string::npos);
  EXPECT_NE(text.find("batch.decompress"), std::string::npos);
  EXPECT_NE(text.find("batch.decode/reader.frame_fetch"), std::string::npos);
  const std::string chrome = rec.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(chrome.begin(), chrome.end(), '{'),
            std::count(chrome.begin(), chrome.end(), '}'));
}

TEST(TelemetryIntegration, DisabledRunCountsTheSameButSamplesNothing) {
  const Corpus corpus = small_corpus();
  const std::string path = temp_path("obs_disabled.bin");
  obs::TraceRecorder rec;
  obs::registry().reset();
  obs::set_enabled(false);
  obs::set_tracer(&rec);
  EXPECT_GT(round_trip(corpus, path), 0u);
  const obs::Snapshot disabled = obs::registry().snapshot();
  obs::set_tracer(nullptr);
  EXPECT_TRUE(rec.spans().empty());
  for (const obs::HistogramSnap& h : disabled.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }

  obs::Snapshot enabled;
  {
    const obs::ScopedTelemetry scope;  // resets the registry first
    round_trip(corpus, path);
    enabled = obs::registry().snapshot();
  }
  std::remove(path.c_str());

  // Every counter counts the same either way.
  const auto counts = [](const obs::Snapshot& snap) {
    std::map<std::string, std::uint64_t> out;
    for (const obs::CounterSnap& c : snap.counters) out[c.name] = c.value;
    return out;
  };
  EXPECT_EQ(counts(disabled), counts(enabled));
  // Gauge peaks depend on how worker threads interleave, so only whether
  // a peak was reached is compared.
  ASSERT_EQ(disabled.gauges.size(), enabled.gauges.size());
  for (std::size_t i = 0; i < enabled.gauges.size(); ++i) {
    const obs::GaugeSnap& d = disabled.gauges[i];
    const obs::GaugeSnap& e = enabled.gauges[i];
    EXPECT_EQ(d.name, e.name);
    EXPECT_EQ(d.value, e.value) << e.name;
    EXPECT_EQ(d.peak > 0, e.peak > 0) << e.name;
  }
  const obs::GaugeSnap* frames = disabled.gauge("reader.frame_bytes");
  ASSERT_NE(frames, nullptr);
  EXPECT_GT(frames->peak, 0);
  obs::registry().reset();
}

TEST(TelemetryIntegration, EveryChunkDecodeCountsItsCrcCheck) {
  const Corpus corpus = small_corpus();
  ThreadPool pool(2);
  const BatchScheduler scheduler(pool);
  const OwningMemorySource source(scheduler.compress(corpus.specs));
  const ArchiveReader reader(source);
  const std::uint64_t chunks = reader.fields()[0].chunks.size();
  const std::uint64_t n = reader.fields()[0].dims.count();
  const obs::ScopedTelemetry scope;
  const auto crc_checks = [] {
    return obs::registry().snapshot().counter("reader.crc_checks")->value;
  };
  std::uint64_t before = crc_checks();
  for (const auto& decode : std::vector<std::function<void()>>{
           [&] { scheduler.decode_range(reader, 0, 0, n); },
           [&] {
             // One range per chunk: each decodes on the calling thread.
             for (const ChunkRecord& rec : reader.fields()[0].chunks) {
               scheduler.decode_range(reader, 0, rec.elem_offset,
                                      rec.elem_offset + rec.dims.count());
             }
           },
           [&] {
             for (std::size_t c = 0; c < chunks; ++c) {
               cudasim::SimContext ctx;
               reader.decode_chunk(ctx, 0, c);
             }
           }}) {
    decode();
    EXPECT_EQ(crc_checks() - before, chunks);
    before = crc_checks();
  }
  const std::uint64_t all_chunks = chunks + reader.fields()[1].chunks.size();
  scheduler.decompress_partial(reader);
  EXPECT_EQ(crc_checks() - before, all_chunks);
  before = crc_checks();
  scheduler.decompress(reader);
  EXPECT_EQ(crc_checks() - before, all_chunks);
}

TEST(TelemetryIntegration, FaultCountersAggregateIntoRegistry) {
  const obs::ScopedTelemetry scope;
  std::vector<std::uint8_t> backing(4096, 0xab);
  const MemorySource inner(backing);
  FaultSpec spec;
  spec.seed = 5;
  spec.transient_read_rate = 1.0;
  spec.max_faults = 3;
  const FaultInjectingSource faulty(inner, spec);
  ReaderOptions options;
  options.retry.max_attempts = 8;
  // Raw reads through the wrapper: 3 injected faults, then clean.
  std::vector<std::uint8_t> buf(16);
  for (int i = 0; i < 4; ++i) {
    try {
      faulty.read_at(0, buf);
    } catch (const TransientIoError&) {
    }
  }
  const FaultStats stats = faulty.stats();
  EXPECT_EQ(stats.transient_read_errors, 3u);
  EXPECT_EQ(stats.reads, 4u);
  const obs::Snapshot snap = obs::registry().snapshot();
  ASSERT_NE(snap.counter("fault.transient_read_errors"), nullptr);
  EXPECT_EQ(snap.counter("fault.transient_read_errors")->value, 3u);
}

}  // namespace
}  // namespace ohd::pipeline

// Pins the metric-name catalogue: one process drives every instrumented
// layer (service, TCP server and client, a FileSink archive write and
// read-back, both fault-injection wrappers) under ScopedTelemetry, and the
// snapshot must list exactly the (kind, name) pairs below. A renamed,
// dropped or accidentally added metric fails here. This suite has its own
// binary because the registry never forgets a name: any earlier test in the
// same process could add names (decode.phase.*) to the snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/fault_injection.hpp"
#include "service/compression_service.hpp"

namespace ohd {
namespace {

constexpr std::size_t kChunkElems = 1024;

service::CompressJob job() {
  std::vector<float> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }
  service::CompressJob j;
  j.fields.push_back({"catalogue", std::move(data), sz::Dims::d1(3000)});
  return j;
}

/// One request of each class over TCP, then a shed, a client-cap reject and
/// a queued cancel in process.
void drive_service() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 2;
  cfg.max_inflight_per_client = 2;
  service::CompressionService svc(cfg);
  {
    net::ServiceServer server(svc, {});
    net::ClientConfig ccfg;
    ccfg.endpoint = server.endpoints()[0];
    ccfg.chunk_elems = kChunkElems;
    net::ServiceClient client(ccfg);
    const std::vector<std::uint8_t> image =
        client.submit_compress(job()).get().archive;
    const service::ArchiveHandle h = client.open_archive(image);
    EXPECT_EQ(client.submit_decompress(h).get().fields.size(), 1u);
    EXPECT_EQ(client.submit_chunk(h, 0, 1).get().size(), kChunkElems);
    EXPECT_EQ(client.submit_range(h, 0, 100, 900).get().size(), 800u);
  }

  service::ClientOptions opts;
  opts.chunk_elems = kChunkElems;
  const service::ClientId a = svc.open_client(opts);
  const service::ClientId b = svc.open_client(opts);
  svc.pause();
  service::RequestOptions background;
  background.priority = service::Priority::Background;
  auto victim = svc.submit_compress(a, job(), background);
  auto queued = svc.submit_compress(b, job());
  service::RequestOptions interactive;
  interactive.priority = service::Priority::Interactive;
  auto kept = svc.submit_compress(b, job(), interactive);  // sheds `victim`
  EXPECT_THROW(svc.submit_compress(b, job()), service::ServiceBusy);
  EXPECT_EQ(svc.cancel(queued.id), service::CancelResult::Cancelled);
  svc.resume();
  EXPECT_THROW(victim.get(), service::ServiceOverloaded);
  EXPECT_THROW(queued.get(), service::RequestCancelled);
  EXPECT_FALSE(kept.get().archive.empty());
}

/// An archive written to a FileSink and decoded back from a FileSource.
void drive_file_archive() {
  const std::string path = ::testing::TempDir() + "/metric_catalogue.bin";
  const service::CompressJob j = job();
  pipeline::FieldSpec spec;
  spec.name = j.fields[0].name;
  spec.data = j.fields[0].data;
  spec.dims = j.fields[0].dims;
  spec.config.rel_error_bound = 1e-3;
  spec.chunk_elems = kChunkElems;
  pipeline::ThreadPool pool(1);
  const pipeline::BatchScheduler sched(pool);
  {
    pipeline::FileSink sink(path);
    pipeline::ArchiveWriter writer(sink);
    sched.compress_to(writer, {&spec, 1});
    writer.finish();
  }
  {
    const pipeline::FileSource source(path);
    const pipeline::ArchiveReader reader(source);
    EXPECT_EQ(sched.decompress(reader).fields.at(0).decode.data.size(), 3000u);
  }
  std::remove(path.c_str());
}

/// Every fault kind once, plus injected latency, through both wrappers.
void drive_faults() {
  const std::vector<std::uint8_t> bytes(64, 0x5a);
  const pipeline::MemorySource mem(bytes);
  std::vector<std::uint8_t> out(16);
  for (const bool transient : {true, false}) {
    pipeline::FaultSpec spec;
    spec.transient_read_rate = transient ? 1.0 : 0.0;
    spec.short_read_rate = transient ? 0.0 : 1.0;
    spec.max_latency = std::chrono::microseconds(500);
    spec.max_faults = 1;
    const pipeline::FaultInjectingSource source(mem, spec);
    EXPECT_THROW(source.read_at(0, out), pipeline::TransientIoError);
    EXPECT_EQ(source.stats().faults(), 1u);
    EXPECT_GT(source.stats().injected_latency_us, 0u);
  }
  for (const bool transient : {true, false}) {
    pipeline::MemorySink inner;
    pipeline::FaultSpec spec;
    spec.transient_write_rate = transient ? 1.0 : 0.0;
    spec.torn_write_rate = transient ? 0.0 : 1.0;
    spec.max_faults = 1;
    pipeline::FaultInjectingSink sink(inner, spec);
    EXPECT_THROW(sink.write(bytes), pipeline::ArchiveError);
    EXPECT_EQ(sink.stats().faults(), 1u);
  }
}

std::vector<std::string> catalogue(const obs::Snapshot& snap) {
  std::vector<std::string> out;
  for (const obs::CounterSnap& c : snap.counters) {
    out.push_back("counter " + c.name);
  }
  for (const obs::GaugeSnap& g : snap.gauges) {
    out.push_back("gauge " + g.name);
  }
  for (const obs::HistogramSnap& h : snap.histograms) {
    out.push_back("histogram " + h.name);
  }
  return out;
}

TEST(MetricCatalogue, SnapshotListsExactlyTheCatalogue) {
  const obs::ScopedTelemetry telemetry;
  drive_service();
  drive_file_archive();
  drive_faults();

  const std::vector<std::string> expected = {
      "counter batch.chunks_decoded",
      "counter batch.chunks_encoded",
      "counter decode.phase.decode_write_ns",
      "counter decode.phase.output_index_ns",
      "counter decode.phase.tune_ns",
      "counter fault.injected_latency_us",
      "counter fault.short_reads",
      "counter fault.torn_writes",
      "counter fault.transient_read_errors",
      "counter fault.transient_write_errors",
      "counter net.bytes_in",
      "counter net.bytes_out",
      "counter net.decode_rejects",
      "counter net.error_frames",
      "counter net.frames_in",
      "counter net.frames_out",
      "counter net.reconnects",
      "counter reader.bytes_read",
      "counter reader.crc_checks",
      "counter reader.io_retries",
      "counter service.accepted",
      "counter service.cancel.queued",
      "counter service.cancel.running",
      "counter service.cancel.total",
      "counter service.completed",
      "counter service.expired.queued",
      "counter service.expired.total",
      "counter service.failed",
      "counter service.readers_evicted",
      "counter service.rejected_busy",
      "counter service.rejected_client_cap",
      "counter service.rejected_quota",
      "counter service.shed.count",
      "counter service.shed.rejected",
      "counter writer.bytes_written",
      "counter writer.chunks",
      "gauge net.connections",
      "gauge pool.queue_depth",
      "gauge reader.frame_bytes",
      "gauge service.active_clients",
      "gauge service.inflight",
      "gauge service.inflight_bytes",
      "gauge service.open_readers",
      "gauge service.queue_age.background_ns",
      "gauge service.queue_age.batch_ns",
      "gauge service.queue_age.interactive_ns",
      "gauge service.queue_depth",
      "histogram batch.decode_ns",
      "histogram batch.encode_ns",
      "histogram batch.quantize_ns",
      "histogram pool.task_run_ns",
      "histogram pool.task_wait_ns",
      "histogram reader.frame_fetch_ns",
      "histogram service.chunk.latency_ns",
      "histogram service.chunk.queue_wait_ns",
      "histogram service.compress.latency_ns",
      "histogram service.compress.queue_wait_ns",
      "histogram service.decompress.latency_ns",
      "histogram service.decompress.queue_wait_ns",
      "histogram service.range.latency_ns",
      "histogram service.range.queue_wait_ns",
      "histogram sink.flush_ns",
  };
  const std::vector<std::string> actual =
      catalogue(obs::registry().snapshot());
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace ohd

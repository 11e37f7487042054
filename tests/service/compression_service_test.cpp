// CompressionService end-to-end coverage: round-trip fidelity against the
// direct pipeline, the client/archive lifecycle errors (double close,
// submit after close/shutdown, unknown handles), deterministic queue-full
// and per-client-cap rejections via the pause() valve, LRU eviction with a
// decode in flight, graceful drain, the multi-client worker-count-invariance
// property, stats accounting, the settle callback's contract, and the
// "service.*" registry catalogue.
#include "service/compression_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/rng.hpp"

namespace ohd::service {
namespace {

std::vector<float> wavy_field(std::size_t n, std::uint64_t seed,
                              double noise = 0.02) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                              noise * rng.normal());
  }
  return v;
}

CompressJob two_field_job(std::uint64_t seed) {
  CompressJob job;
  job.fields.push_back(
      {"alpha", wavy_field(6000, seed), sz::Dims::d1(6000)});
  job.fields.push_back(
      {"beta", wavy_field(40 * 50, seed + 1, 0.005), sz::Dims::d2(40, 50)});
  return job;
}

/// Compress a job through the service and reopen the archive as a handle.
ArchiveHandle compress_and_open(CompressionService& svc, ClientId client,
                                CompressJob job) {
  auto bytes = svc.submit_compress(client, std::move(job)).get().archive;
  return svc.open_archive(
      client,
      std::make_shared<pipeline::OwningMemorySource>(std::move(bytes)));
}

bool identical_floats(const std::vector<float>& a,
                      const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---- Round trip -----------------------------------------------------------

TEST(CompressionService, RoundTripMatchesDirectPipeline) {
  ServiceConfig cfg;
  cfg.workers = 2;
  CompressionService svc(cfg);
  ClientOptions opts;
  opts.rel_error_bound = 1e-3;
  opts.chunk_elems = 2048;
  const ClientId client = svc.open_client(opts);

  CompressJob job = two_field_job(7);
  const std::vector<float> input0 = job.fields[0].data;
  auto archive = svc.submit_compress(client, job).get().archive;

  // Byte-identical to the same specs run directly through the scheduler.
  pipeline::ThreadPool pool(1);
  std::vector<pipeline::FieldSpec> specs;
  for (const auto& f : job.fields) {
    pipeline::FieldSpec s;
    s.name = f.name;
    s.data = f.data;
    s.dims = f.dims;
    s.config.rel_error_bound = opts.rel_error_bound;
    s.chunk_elems = opts.chunk_elems;
    specs.push_back(s);
  }
  EXPECT_EQ(archive, pipeline::BatchScheduler(pool).compress(specs));

  // Decompress through the service: error-bounded floats, both fields.
  const ArchiveHandle h = svc.open_archive(
      client,
      std::make_shared<pipeline::OwningMemorySource>(std::move(archive)));
  const auto result = svc.submit_decompress(client, h).get();
  ASSERT_EQ(result.fields.size(), 2u);
  EXPECT_EQ(result.fields[0].name, "alpha");
  const auto& decoded = result.fields[0].decode.data;
  ASSERT_EQ(decoded.size(), input0.size());
  const auto [lo, hi] = std::minmax_element(input0.begin(), input0.end());
  const double bound = opts.rel_error_bound * (*hi - *lo) * 1.000001;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    ASSERT_NEAR(decoded[i], input0[i], bound) << "element " << i;
  }

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected(), 0u);
}

TEST(CompressionService, ChunkAndRangeMatchFullDecode) {
  CompressionService svc{ServiceConfig{}};
  ClientOptions opts;
  opts.chunk_elems = 1024;
  const ClientId client = svc.open_client(opts);
  CompressJob job;
  const std::vector<float> data = wavy_field(5000, 11);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  const ArchiveHandle h = compress_and_open(svc, client, std::move(job));

  const auto full = svc.submit_decompress(client, h).get();
  const auto& values = full.fields[0].decode.data;

  // Chunk 2 covers elements [2048, 3072).
  const auto chunk = svc.submit_chunk(client, h, 0, 2).get();
  ASSERT_EQ(chunk.size(), 1024u);
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), values.begin() + 2048));

  // An unaligned range crossing two chunk boundaries.
  const auto range = svc.submit_range(client, h, 0, 1000, 3500).get();
  ASSERT_EQ(range.size(), 2500u);
  EXPECT_TRUE(std::equal(range.begin(), range.end(), values.begin() + 1000));
}

// ---- Lifecycle errors -----------------------------------------------------

TEST(CompressionService, DoubleCloseClientThrows) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  svc.close_client(client);
  EXPECT_THROW(svc.close_client(client), ClientError);
}

TEST(CompressionService, SubmitAfterClientCloseThrows) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  svc.close_client(client);
  EXPECT_THROW(svc.submit_compress(client, two_field_job(1)), ClientError);
  EXPECT_THROW(svc.open_archive(client, nullptr), ClientError);
}

TEST(CompressionService, SubmitAfterShutdownThrowsServiceStopped) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  svc.shutdown();
  EXPECT_TRUE(svc.stopped());
  EXPECT_THROW(svc.submit_compress(client, two_field_job(1)), ServiceStopped);
  EXPECT_THROW(svc.open_client(), ServiceStopped);
  svc.shutdown();  // idempotent
}

TEST(CompressionService, UnknownHandleThrowsOnCallerThread) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  EXPECT_THROW(svc.submit_decompress(client, 42), ClientError);
  EXPECT_THROW(svc.submit_chunk(client, 42, 0, 0), ClientError);
  EXPECT_THROW(svc.submit_range(client, 42, 0, 0, 1), ClientError);
  EXPECT_THROW(svc.close_archive(client, 42), ClientError);
}

// ---- Admission control ----------------------------------------------------

TEST(CompressionService, QueueFullRejectionIsDeterministic) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 3;
  cfg.max_inflight_per_client = 100;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  CompressJob job;
  const std::vector<float> data = wavy_field(2048, 3);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});

  // Paused, nothing drains: exactly max_queue_depth submits are admitted and
  // every further one is rejected — same counts on every run.
  svc.pause();
  std::vector<std::future<CompressResult>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(svc.submit_compress(client, job).future);
  }
  EXPECT_EQ(svc.queue_depth(), 3u);
  EXPECT_THROW(svc.submit_compress(client, job), ServiceBusy);
  EXPECT_THROW(svc.submit_compress(client, job), ServiceBusy);
  EXPECT_EQ(svc.stats().rejected_busy, 2u);
  EXPECT_EQ(svc.stats().accepted, 3u);

  svc.resume();
  for (auto& f : admitted) {
    EXPECT_FALSE(f.get().archive.empty());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.queue_depth_peak, 3);
}

TEST(CompressionService, PerClientInflightCapRejectsOnlyThatClient) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 100;
  cfg.max_inflight_per_client = 2;
  CompressionService svc(cfg);
  const ClientId a = svc.open_client();
  const ClientId b = svc.open_client();
  CompressJob job;
  const std::vector<float> data = wavy_field(2048, 5);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});

  svc.pause();
  auto f1 = svc.submit_compress(a, job);
  auto f2 = svc.submit_compress(a, job);
  EXPECT_THROW(svc.submit_compress(a, job), ServiceBusy);
  EXPECT_EQ(svc.stats().rejected_client_cap, 1u);
  // Client b is under its own cap; the queue has room.
  auto f3 = svc.submit_compress(b, job);
  svc.resume();
  f1.get();
  f2.get();
  f3.get();
  EXPECT_EQ(svc.stats().completed, 3u);

  // Slots were released: a can submit again.
  EXPECT_FALSE(svc.submit_compress(a, job).get().archive.empty());
}

// ---- LRU eviction with a decode in flight ---------------------------------

TEST(CompressionService, LruEvictionWhileDecodeInFlight) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_open_readers_per_client = 1;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  CompressJob job;
  const std::vector<float> data = wavy_field(4096, 9);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  auto bytes = svc.submit_compress(client, job).get().archive;
  auto bytes2 = bytes;

  const ArchiveHandle h1 = svc.open_archive(
      client,
      std::make_shared<pipeline::OwningMemorySource>(std::move(bytes)));

  // Queue a decompress of h1, then evict h1 before it can run.
  svc.pause();
  auto pending = svc.submit_decompress(client, h1);
  const ArchiveHandle h2 = svc.open_archive(
      client,
      std::make_shared<pipeline::OwningMemorySource>(std::move(bytes2)));
  EXPECT_EQ(svc.stats().readers_evicted, 1u);
  // The evicted handle is gone for NEW requests...
  EXPECT_THROW(svc.submit_decompress(client, h1), ClientError);
  // ...but the queued request resolved its entry at submit time and must
  // complete correctly after resume.
  svc.resume();
  const auto result = pending.get();
  ASSERT_EQ(result.fields.size(), 1u);
  EXPECT_EQ(result.fields[0].decode.data.size(), data.size());
  EXPECT_NO_THROW(svc.submit_decompress(client, h2).get());
}

// ---- Graceful drain -------------------------------------------------------

TEST(CompressionService, ShutdownDrainsAdmittedRequests) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 16;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  CompressJob job;
  const std::vector<float> data = wavy_field(2048, 13);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});

  svc.pause();
  std::vector<std::future<CompressResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(svc.submit_compress(client, job).future);
  }
  // shutdown() resumes, drains all five, then joins.
  svc.shutdown();
  for (auto& f : futures) {
    EXPECT_FALSE(f.get().archive.empty());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.inflight, 0);
}

// ---- Failure accounting ---------------------------------------------------

TEST(CompressionService, RequestFailureLandsInFutureAndFailedCounter) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  CompressJob job;
  const std::vector<float> data = wavy_field(2048, 17);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  const ArchiveHandle h = compress_and_open(svc, client, std::move(job));

  auto bad = svc.submit_chunk(client, h, 7, 0);  // field 7 does not exist
  EXPECT_THROW(bad.get(), std::invalid_argument);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the compress
  EXPECT_EQ(stats.inflight, 0);    // slot released on failure too
}

// ---- Worker-count invariance ----------------------------------------------

TEST(CompressionService, MultiClientResultsInvariantAcrossPoolSizes) {
  // The same three-client workload on a (1 worker, 1 dispatcher) service and
  // a (4 workers, 3 dispatchers) service: every archive and every decoded
  // field must be bit-identical.
  const auto run = [](std::size_t workers, std::size_t dispatchers) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.dispatchers = dispatchers;
    CompressionService svc(cfg);

    struct Output {
      std::vector<std::uint8_t> archive;
      std::vector<std::vector<float>> fields;
      std::vector<float> range;
    };
    std::vector<Output> outputs;
    const double bounds[] = {1e-2, 1e-3, 1e-4};
    for (int c = 0; c < 3; ++c) {
      ClientOptions opts;
      opts.rel_error_bound = bounds[c];
      opts.chunk_elems = 1024;
      opts.plan.auto_method = (c == 1);
      opts.plan.shared_codebook = (c == 1);
      const ClientId client = svc.open_client(opts);

      Output out;
      CompressJob job = two_field_job(100 + static_cast<std::uint64_t>(c));
      out.archive = svc.submit_compress(client, job).get().archive;
      auto copy = out.archive;
      const ArchiveHandle h = svc.open_archive(
          client,
          std::make_shared<pipeline::OwningMemorySource>(std::move(copy)));
      auto result = svc.submit_decompress(client, h).get();
      for (auto& f : result.fields) {
        out.fields.push_back(std::move(f.decode.data));
      }
      out.range = svc.submit_range(client, h, 0, 500, 4500).get();
      outputs.push_back(std::move(out));
    }
    return outputs;
  };

  const auto small = run(1, 1);
  const auto big = run(4, 3);
  ASSERT_EQ(small.size(), big.size());
  for (std::size_t c = 0; c < small.size(); ++c) {
    EXPECT_EQ(small[c].archive, big[c].archive) << "client " << c;
    ASSERT_EQ(small[c].fields.size(), big[c].fields.size());
    for (std::size_t f = 0; f < small[c].fields.size(); ++f) {
      EXPECT_TRUE(identical_floats(small[c].fields[f], big[c].fields[f]))
          << "client " << c << " field " << f;
    }
    EXPECT_TRUE(identical_floats(small[c].range, big[c].range))
        << "client " << c;
  }
}

// ---- Telemetry ------------------------------------------------------------

TEST(CompressionService, ServiceCatalogueAppearsInSnapshot) {
  obs::ScopedTelemetry telemetry;
  CompressionService svc{ServiceConfig{}};
  ClientOptions opts;
  opts.chunk_elems = 1024;  // 3000 elems => 3 chunks, so chunk 1 exists
  const ClientId client = svc.open_client(opts);
  CompressJob job;
  const std::vector<float> data = wavy_field(3000, 23);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  const ArchiveHandle h = compress_and_open(svc, client, std::move(job));
  svc.submit_decompress(client, h).get();
  svc.submit_chunk(client, h, 0, 1).get();
  svc.submit_range(client, h, 0, 100, 900).get();

  const auto snap = obs::registry().snapshot();
  ASSERT_NE(snap.counter("service.accepted"), nullptr);
  EXPECT_EQ(snap.counter("service.accepted")->value, 4u);
  ASSERT_NE(snap.counter("service.completed"), nullptr);
  EXPECT_EQ(snap.counter("service.completed")->value, 4u);
  ASSERT_NE(snap.gauge("service.queue_depth"), nullptr);
  ASSERT_NE(snap.gauge("service.inflight"), nullptr);
  EXPECT_GE(snap.gauge("service.inflight")->peak, 1);
  ASSERT_NE(snap.gauge("service.active_clients"), nullptr);
  EXPECT_EQ(snap.gauge("service.active_clients")->value, 1);
  ASSERT_NE(snap.gauge("service.open_readers"), nullptr);
  EXPECT_EQ(snap.gauge("service.open_readers")->value, 1);

  for (const char* name :
       {"service.compress", "service.decompress", "service.chunk",
        "service.range"}) {
    const auto latency = std::string(name) + ".latency_ns";
    const auto wait = std::string(name) + ".queue_wait_ns";
    ASSERT_NE(snap.histogram(latency), nullptr) << latency;
    EXPECT_EQ(snap.histogram(latency)->count, 1u) << latency;
    ASSERT_NE(snap.histogram(wait), nullptr) << wait;
    EXPECT_EQ(snap.histogram(wait)->count, 1u) << wait;
  }
}

// ---- Cancellation ---------------------------------------------------------

/// One small one-field job — cheap enough that lifecycle tests can submit
/// dozens without dominating the suite's runtime.
CompressJob small_job(std::uint64_t seed) {
  CompressJob job;
  const std::vector<float> data = wavy_field(2048, seed);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  return job;
}

TEST(CompressionService, CancelQueuedRequestSettlesImmediately) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 8;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  auto keep = svc.submit_compress(client, small_job(31));
  auto doomed = svc.submit_compress(client, small_job(32));
  EXPECT_EQ(svc.cancel(doomed.id), CancelResult::Cancelled);

  // cancel() settled the future inline: ready before resume, exact stats.
  try {
    doomed.get();
    FAIL() << "expected RequestCancelled";
  } catch (const RequestCancelled& e) {
    EXPECT_EQ(std::string(e.what()),
              "request " + std::to_string(doomed.id) +
                  " cancelled before execution");
  }
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(svc.stats().queue_depth, 1);

  // Double-cancel and cancelling an unknown id are harmless no-ops.
  EXPECT_EQ(svc.cancel(doomed.id), CancelResult::NotFound);
  EXPECT_EQ(svc.cancel(999999), CancelResult::NotFound);

  svc.resume();
  EXPECT_FALSE(keep.get().archive.empty());
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.settled(), stats.accepted);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

TEST(CompressionService, CancelAfterCompletionIsNoOp) {
  CompressionService svc{ServiceConfig{}};
  const ClientId client = svc.open_client();
  auto sub = svc.submit_compress(client, small_job(33));
  EXPECT_FALSE(sub.get().archive.empty());
  EXPECT_EQ(svc.cancel(sub.id), CancelResult::NotFound);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(CompressionService, CancelRunningRequestStopsBetweenChunks) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.dispatchers = 1;
  CompressionService svc(cfg);
  ClientOptions opts;
  opts.chunk_elems = 512;  // 512 chunks: a wide cancellation window
  const ClientId client = svc.open_client(opts);
  CompressJob job;
  const std::vector<float> data = wavy_field(512 * 512, 34);
  job.fields.push_back({"big", data, sz::Dims::d1(data.size())});

  auto sub = svc.submit_compress(client, std::move(job));
  // Wait until the dispatcher picked it up, then cancel mid-execution.
  while (svc.queue_depth() > 0) std::this_thread::yield();
  const CancelResult r = svc.cancel(sub.id);
  EXPECT_NE(r, CancelResult::Cancelled);  // no longer queued

  bool was_cancelled = false;
  try {
    sub.get();  // value only if cancel lost the race to the last chunk
  } catch (const RequestCancelled&) {
    was_cancelled = true;
  }
  if (r == CancelResult::Signalled) {
    EXPECT_TRUE(was_cancelled);  // 512 chunk boundaries: the check must hit
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.settled(), 1u);
  EXPECT_EQ(stats.cancelled, was_cancelled ? 1u : 0u);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

TEST(CompressionService, CancelVersusDispatchRaceSettlesEveryFuture) {
  // Submit-then-immediately-cancel races the dispatcher on the same id:
  // whatever interleaving happens, every future settles exactly once with a
  // value or RequestCancelled, and the books balance.
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 2;
  cfg.max_queue_depth = 64;
  cfg.max_inflight_per_client = 64;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  constexpr std::uint64_t kRounds = 32;
  std::uint64_t values = 0, cancels = 0;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    auto sub = svc.submit_compress(client, small_job(100 + i));
    (void)svc.cancel(sub.id);
    try {
      EXPECT_FALSE(sub.get().archive.empty());
      ++values;
    } catch (const RequestCancelled&) {
      ++cancels;
    }
  }
  EXPECT_EQ(values + cancels, kRounds);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, kRounds);
  EXPECT_EQ(stats.completed, values);
  EXPECT_EQ(stats.cancelled, cancels);
  EXPECT_EQ(stats.settled(), stats.accepted);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

TEST(CompressionService, CallerHeldTokenCancelsWithoutTheRequestId) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  RequestOptions opts;
  opts.cancel = CancellationToken::make();
  auto sub = svc.submit_compress(client, small_job(35), opts);
  opts.cancel.request_cancel();  // no RequestId needed
  svc.resume();
  EXPECT_THROW(sub.get(), RequestCancelled);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.settled(), stats.accepted);
}

TEST(CompressionService, ShutdownDrainsAQueueWithCancelledRequests) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 16;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  std::vector<Submission<CompressResult>> subs;
  for (int i = 0; i < 4; ++i) {
    subs.push_back(svc.submit_compress(client, small_job(40 + i)));
  }
  EXPECT_EQ(svc.cancel(subs[1].id), CancelResult::Cancelled);
  EXPECT_EQ(svc.cancel(subs[3].id), CancelResult::Cancelled);

  // shutdown() resumes and drains: the two survivors complete, the two
  // cancelled futures already hold RequestCancelled.
  svc.shutdown();
  EXPECT_FALSE(subs[0].get().archive.empty());
  EXPECT_THROW(subs[1].get(), RequestCancelled);
  EXPECT_FALSE(subs[2].get().archive.empty());
  EXPECT_THROW(subs[3].get(), RequestCancelled);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.settled(), 4u);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

// ---- Deadlines ------------------------------------------------------------

TEST(CompressionService, SweeperExpiresQueuedPastDeadlineRequests) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.sweep_interval = std::chrono::microseconds(200);
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();  // the sweeper keeps running while paused
  RequestOptions late;
  late.deadline = Deadline::after(std::chrono::milliseconds(2));
  auto doomed1 = svc.submit_compress(client, small_job(50), late);
  auto doomed2 = svc.submit_compress(client, small_job(51), late);
  auto survivor = svc.submit_compress(client, small_job(52));

  // The sweeper expires both while the service is still paused.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (svc.stats().expired < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.stats().expired, 2u);
  try {
    doomed1.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(std::string(e.what()),
              "request " + std::to_string(doomed1.id) +
                  " deadline exceeded before execution");
  }
  EXPECT_THROW(doomed2.get(), DeadlineExceeded);

  svc.resume();
  EXPECT_FALSE(survivor.get().archive.empty());
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.settled(), 3u);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

TEST(CompressionService, DispatchRechecksDeadlineWhenSweeperIsSlow) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  // Sweeper effectively disabled: only the dispatch-time re-check can fire.
  cfg.sweep_interval = std::chrono::microseconds(60'000'000);
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  RequestOptions late;
  late.deadline = Deadline::after(std::chrono::milliseconds(1));
  auto sub = svc.submit_compress(client, small_job(53), late);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  svc.resume();
  EXPECT_THROW(sub.get(), DeadlineExceeded);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.settled(), stats.accepted);
}

// ---- Byte quotas ----------------------------------------------------------

TEST(CompressionService, ByteQuotaAccountingIsExact) {
  // small_job carries 2048 floats = 8192 payload bytes. Quota 20000 admits
  // two jobs (16384) and rejects the third.
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 8;
  cfg.max_inflight_bytes_per_client = 20000;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  auto sub1 = svc.submit_compress(client, small_job(60));
  auto sub2 = svc.submit_compress(client, small_job(61));
  EXPECT_EQ(svc.stats().inflight_bytes, 16384);
  try {
    svc.submit_compress(client, small_job(62));
    FAIL() << "expected ServiceBusy";
  } catch (const ServiceBusy& e) {
    EXPECT_EQ(std::string(e.what()),
              "submit: client 1 over byte quota (in flight 16384 + request "
              "8192 > 20000; queue depth 2/8)");
  }
  EXPECT_EQ(svc.stats().rejected_quota, 1u);

  // Cancelling a queued request releases its bytes immediately...
  EXPECT_EQ(svc.cancel(sub2.id), CancelResult::Cancelled);
  EXPECT_EQ(svc.stats().inflight_bytes, 8192);
  svc.resume();
  // ...and completion releases the rest before get() returns.
  EXPECT_FALSE(sub1.get().archive.empty());
  EXPECT_EQ(svc.stats().inflight_bytes, 0);
  EXPECT_EQ(svc.stats().inflight_bytes_peak, 16384);

  // The freed quota admits new work.
  EXPECT_FALSE(svc.submit_compress(client, small_job(63)).get().archive.empty());
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

// ---- Pinned rejection message formats -------------------------------------

TEST(CompressionService, RejectionMessagesCarryQueueAndClientState) {
  {  // per-client in-flight cap
    ServiceConfig cfg;
    cfg.dispatchers = 1;
    cfg.max_queue_depth = 8;
    cfg.max_inflight_per_client = 1;
    CompressionService svc(cfg);
    const ClientId client = svc.open_client();
    svc.pause();
    auto held = svc.submit_compress(client, small_job(70));
    try {
      svc.submit_compress(client, small_job(71));
      FAIL() << "expected ServiceBusy";
    } catch (const ServiceBusy& e) {
      EXPECT_EQ(std::string(e.what()),
                "submit: client 1 at in-flight cap (1/1; queue depth 1/8)");
    }
    svc.resume();
    held.wait();
  }
  {  // queue overload with nothing sheddable (same priority everywhere)
    ServiceConfig cfg;
    cfg.dispatchers = 1;
    cfg.max_queue_depth = 1;
    cfg.max_inflight_per_client = 4;
    CompressionService svc(cfg);
    const ClientId client = svc.open_client();
    svc.pause();
    auto held = svc.submit_compress(client, small_job(72));
    try {
      svc.submit_compress(client, small_job(73));
      FAIL() << "expected ServiceOverloaded";
    } catch (const ServiceOverloaded& e) {
      // No pops yet, so the drain-rate EWMA (and the hint) is exactly zero.
      EXPECT_EQ(std::string(e.what()),
                "submit: queue overloaded (depth 1/1; client 1 in-flight 1/4; "
                "retry-after ~0.0 ms)");
      EXPECT_EQ(e.retry_after_ns(), 0u);
    }
    svc.resume();
    held.wait();
  }
}

// ---- Priority-aware load shedding -----------------------------------------

TEST(CompressionService, OverloadShedsNewestBackgroundFirst) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 4;
  cfg.max_inflight_per_client = 100;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  RequestOptions bg;
  bg.priority = Priority::Background;
  std::vector<Submission<CompressResult>> background;
  for (int i = 0; i < 4; ++i) {
    background.push_back(svc.submit_compress(client, small_job(80 + i), bg));
  }

  RequestOptions interactive;
  interactive.priority = Priority::Interactive;
  auto i1 = svc.submit_compress(client, small_job(90), interactive);
  auto i2 = svc.submit_compress(client, small_job(91), interactive);

  // Each interactive submit shed the NEWEST queued background request; the
  // victim's future settled inline with the pinned verdict.
  try {
    background[3].get();
    FAIL() << "expected ServiceOverloaded";
  } catch (const ServiceOverloaded& e) {
    EXPECT_EQ(std::string(e.what()),
              "request " + std::to_string(background[3].id) +
                  " shed under overload by interactive-priority submit "
                  "(queue depth 4/4; retry-after ~0.0 ms)");
    EXPECT_EQ(e.retry_after_ns(), 0u);
  }
  EXPECT_THROW(background[2].get(), ServiceOverloaded);
  EXPECT_EQ(svc.stats().shed, 2u);

  // A further background submit finds nothing below itself: rejected.
  EXPECT_THROW(svc.submit_compress(client, small_job(92), bg),
               ServiceOverloaded);
  EXPECT_EQ(svc.stats().rejected_busy, 1u);

  svc.resume();
  EXPECT_FALSE(background[0].get().archive.empty());
  EXPECT_FALSE(background[1].get().archive.empty());
  EXPECT_FALSE(i1.get().archive.empty());
  EXPECT_FALSE(i2.get().archive.empty());
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.settled(), 6u);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0);
}

TEST(CompressionService, ShedVictimHintCountsTheFullQueue) {
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 1;
  cfg.max_inflight_per_client = 100;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  // Warm the drain EWMA: each pop after the first measures one gap.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(svc.submit_compress(client, small_job(100 + i))
                     .get()
                     .archive.empty());
  }

  svc.pause();
  RequestOptions bg;
  bg.priority = Priority::Background;
  auto victim = svc.submit_compress(client, small_job(110), bg);
  RequestOptions interactive;
  interactive.priority = Priority::Interactive;
  auto urgent = svc.submit_compress(client, small_job(111), interactive);
  std::uint64_t victim_hint = 0;
  try {
    victim.get();
    FAIL() << "expected the background request to be shed";
  } catch (const ServiceOverloaded& e) {
    victim_hint = e.retry_after_ns();
  }
  // A background submit at the same depth finds nothing to shed: rejected,
  // with the hint the victim should have been given.
  std::uint64_t rejected_hint = 0;
  try {
    svc.submit_compress(client, small_job(112), bg);
    FAIL() << "expected ServiceOverloaded";
  } catch (const ServiceOverloaded& e) {
    rejected_hint = e.retry_after_ns();
  }
  EXPECT_GT(victim_hint, 0u);
  EXPECT_EQ(victim_hint, rejected_hint);
  svc.resume();
  EXPECT_FALSE(urgent.get().archive.empty());
}

// ---- Settle callback ------------------------------------------------------

/// Records one settle callback: how often it ran, how the request settled,
/// and what stats() read from inside it. The outcome is named on the
/// settling thread, so no exception object crosses to the test thread.
struct SettleProbe {
  explicit SettleProbe(CompressionService& s) : svc(s) {}

  OnSettle<std::vector<float>> callback() {
    return [this](Settled<std::vector<float>> result) {
      const ServiceStats s = svc.stats();
      settled = s.settled();
      inflight = s.inflight;
      outcome = "value";
      if (result.index() == 1) {
        try {
          std::rethrow_exception(std::get<1>(result));
        } catch (const ServiceOverloaded&) {
          outcome = "shed";
        } catch (const RequestCancelled&) {
          outcome = "cancelled";
        } catch (const DeadlineExceeded&) {
          outcome = "expired";
        } catch (const std::exception& e) {
          outcome = std::string("failed: ") + e.what();
        }
      }
      if (calls.fetch_add(1) == 0) ran.set_value();
    };
  }
  /// Bounded, so a request that never settles fails instead of hanging.
  bool wait() {
    return ran_future.wait_for(std::chrono::seconds(30)) ==
           std::future_status::ready;
  }

  CompressionService& svc;
  std::atomic<int> calls{0};
  std::uint64_t settled = 0;
  std::int64_t inflight = -1;
  std::string outcome;
  std::promise<void> ran;
  std::future<void> ran_future = ran.get_future();
};

TEST(CompressionService, SettleCallbackRunsOnceAfterAccounting) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 1;
  cfg.max_inflight_per_client = 1;
  cfg.sweep_interval = std::chrono::microseconds(200);
  CompressionService svc(cfg);
  ClientOptions opts;
  opts.chunk_elems = 1024;  // 3000 elems => 3 chunks
  const ClientId a = svc.open_client(opts);
  const ClientId b = svc.open_client(opts);
  CompressJob job;
  const std::vector<float> data = wavy_field(3000, 41);
  job.fields.push_back({"f", data, sz::Dims::d1(data.size())});
  auto bytes = svc.submit_compress(a, std::move(job)).get().archive;
  const ArchiveHandle ha = svc.open_archive(
      a, std::make_shared<pipeline::OwningMemorySource>(bytes));
  const ArchiveHandle hb = svc.open_archive(
      b, std::make_shared<pipeline::OwningMemorySource>(std::move(bytes)));

  std::atomic<int> rejected_calls{0};
  const OnSettle<std::vector<float>> never =
      [&rejected_calls](Settled<std::vector<float>>) { ++rejected_calls; };
  // Inside the callback the request already counts as settled, and only
  // `inflight` other requests are still in flight.
  const auto expect_accounted = [](const SettleProbe& p, std::uint64_t before,
                                   std::int64_t inflight) {
    EXPECT_EQ(p.settled, before + 1) << p.outcome;
    EXPECT_EQ(p.inflight, inflight) << p.outcome;
  };

  // A completed read and a failed one settle on the dispatcher.
  SettleProbe completed(svc);
  std::uint64_t before = svc.stats().settled();
  svc.submit_chunk(a, ha, 0, 1, {}, completed.callback());
  ASSERT_TRUE(completed.wait());
  EXPECT_EQ(completed.outcome, "value");
  expect_accounted(completed, before, 0);

  SettleProbe failed(svc);
  before = svc.stats().settled();
  svc.submit_chunk(a, ha, 0, 99, {}, failed.callback());
  ASSERT_TRUE(failed.wait());
  EXPECT_EQ(failed.outcome, "failed: chunk index out of range");
  expect_accounted(failed, before, 0);

  // A queued cancel settles on the cancelling thread, before cancel returns.
  svc.pause();
  SettleProbe queued_cancel(svc);
  before = svc.stats().settled();
  const RequestId queued =
      svc.submit_chunk(a, ha, 0, 0, {}, queued_cancel.callback());
  EXPECT_EQ(svc.cancel(queued), CancelResult::Cancelled);
  EXPECT_EQ(queued_cancel.calls.load(), 1);
  EXPECT_EQ(queued_cancel.outcome, "cancelled");
  expect_accounted(queued_cancel, before, 0);

  // A shed victim settles inside the shedding submit, which is admitted and
  // in flight by then.
  SettleProbe shed(svc);
  before = svc.stats().settled();
  RequestOptions background;
  background.priority = Priority::Background;
  svc.submit_chunk(a, ha, 0, 0, background, shed.callback());
  RequestOptions interactive;
  interactive.priority = Priority::Interactive;
  auto urgent = svc.submit_chunk(b, hb, 0, 2, interactive);
  EXPECT_EQ(shed.calls.load(), 1);
  EXPECT_EQ(shed.outcome, "shed");
  expect_accounted(shed, before, 1);

  // Rejected submits throw and never call their callback.
  EXPECT_THROW(svc.submit_chunk(b, hb, 0, 0, {}, never), ServiceBusy);
  EXPECT_EQ(svc.stats().rejected_client_cap, 1u);
  EXPECT_THROW(svc.submit_chunk(a, ha, 0, 0, {}, never), ServiceOverloaded);
  EXPECT_THROW(svc.submit_chunk(a, 42, 0, 0, {}, never), ClientError);
  svc.resume();
  EXPECT_EQ(urgent.get().size(), 3000u - 2048u);

  // A running cancel: the pool's one worker is held, so the range read is
  // still waiting on its first chunk when the cancel signals it.
  std::promise<void> release;
  auto blocker = svc.pool().submit(
      [gate = release.get_future().share()] { gate.wait(); });
  SettleProbe running_cancel(svc);
  before = svc.stats().settled();
  const RequestId running =
      svc.submit_range(a, ha, 0, 0, 3000, {}, running_cancel.callback());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (svc.queue_depth() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(svc.cancel(running), CancelResult::Signalled);
  release.set_value();
  blocker.get();
  ASSERT_TRUE(running_cancel.wait());
  EXPECT_EQ(running_cancel.outcome, "cancelled");
  expect_accounted(running_cancel, before, 0);

  // The sweeper expires a queued request on its own thread.
  svc.pause();
  SettleProbe expired(svc);
  before = svc.stats().settled();
  RequestOptions late;
  late.deadline = Deadline::after(std::chrono::milliseconds(2));
  svc.submit_chunk(a, ha, 0, 0, late, expired.callback());
  ASSERT_TRUE(expired.wait());
  EXPECT_EQ(expired.outcome, "expired");
  expect_accounted(expired, before, 0);
  svc.resume();

  svc.shutdown();
  EXPECT_THROW(svc.submit_chunk(a, ha, 0, 0, {}, never), ServiceStopped);
  for (const SettleProbe* p : {&completed, &failed, &queued_cancel, &shed,
                               &running_cancel, &expired}) {
    EXPECT_EQ(p->calls.load(), 1) << p->outcome;
  }
  EXPECT_EQ(rejected_calls.load(), 0);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.settled(), stats.accepted);
  EXPECT_EQ(stats.inflight, 0);
}

// ---- Reader retry totals --------------------------------------------------

/// Owning fault wrapper: FaultInjectingSource borrows its inner source, so
/// the archive bytes and the injector travel together behind one shared_ptr.
/// Rate 1.0 with max_faults 2: the first two armed reads fault, then the
/// wrapper goes transparent — exactly two retries, every run. While `armed`
/// is false, reads bypass the injector.
struct FaultyArchiveSource : pipeline::ByteSource {
  explicit FaultyArchiveSource(std::vector<std::uint8_t> bytes)
      : mem(std::move(bytes)),
        faults(mem, {.seed = 7, .transient_read_rate = 1.0, .max_faults = 2}) {}
  std::uint64_t size() const override { return faults.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override {
    if (armed.load()) {
      faults.read_at(offset, out);
    } else {
      mem.read_at(offset, out);
    }
  }
  pipeline::OwningMemorySource mem;
  pipeline::FaultInjectingSource faults;
  std::atomic<bool> armed{true};
};

/// The snapshot's "reader.io_retries": every reader's own retry counter,
/// live or destroyed.
std::uint64_t snapshot_io_retries() {
  const auto snap = obs::registry().snapshot();
  const obs::CounterSnap* c = snap.counter("reader.io_retries");
  return c == nullptr ? 0 : c->value;
}

TEST(CompressionService, ReaderIoRetriesSurfaceInStats) {
  obs::ScopedTelemetry telemetry;
  ServiceConfig cfg;
  cfg.reader.retry.max_attempts = 4;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  auto bytes = svc.submit_compress(client, small_job(95)).get().archive;

  const ArchiveHandle h = svc.open_archive(
      client, std::make_shared<FaultyArchiveSource>(std::move(bytes)));
  EXPECT_EQ(svc.submit_decompress(client, h).get().fields.size(), 1u);
  EXPECT_EQ(snapshot_io_retries(), 2u);

  // The total survives closing the reader and then the client: a destroyed
  // reader's count moves into the registry's retired total.
  svc.close_archive(client, h);
  EXPECT_EQ(snapshot_io_retries(), 2u);
  svc.close_client(client);
  EXPECT_EQ(snapshot_io_retries(), 2u);
}

TEST(CompressionService, RetriesOnAnEvictedReaderStillCount) {
  obs::ScopedTelemetry telemetry;
  ServiceConfig cfg;
  cfg.reader.retry.max_attempts = 4;
  cfg.max_open_readers_per_client = 1;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();
  auto bytes = svc.submit_compress(client, small_job(95)).get().archive;

  auto faulty = std::make_shared<FaultyArchiveSource>(bytes);
  faulty->armed = false;  // a clean open; the faults hit the chunk read
  const ArchiveHandle h = svc.open_archive(client, faulty);
  svc.pause();
  auto chunk = svc.submit_chunk(client, h, 0, 0);
  // Opening a second archive evicts `h` while its chunk read is queued; the
  // request keeps the evicted reader alive and retries on it.
  svc.open_archive(client, std::make_shared<pipeline::OwningMemorySource>(
                               std::move(bytes)));
  EXPECT_EQ(svc.stats().readers_evicted, 1u);
  faulty->armed = true;
  svc.resume();
  EXPECT_FALSE(chunk.get().empty());

  EXPECT_EQ(faulty->faults.stats().transient_read_errors, 2u);
  EXPECT_EQ(snapshot_io_retries(),
            faulty->faults.stats().transient_read_errors);
}

// ---- Lifecycle telemetry catalogue ----------------------------------------

TEST(CompressionService, LifecycleCountersAppearInSnapshot) {
  obs::ScopedTelemetry telemetry;
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 2;
  cfg.max_inflight_per_client = 100;
  CompressionService svc(cfg);
  const ClientId client = svc.open_client();

  svc.pause();
  RequestOptions bg;
  bg.priority = Priority::Background;
  auto shed_victim = svc.submit_compress(client, small_job(96), bg);
  auto keep = svc.submit_compress(client, small_job(97));
  RequestOptions interactive;
  interactive.priority = Priority::Interactive;
  auto urgent = svc.submit_compress(client, small_job(98), interactive);
  EXPECT_THROW(shed_victim.get(), ServiceOverloaded);
  EXPECT_EQ(svc.cancel(keep.id), CancelResult::Cancelled);
  svc.resume();
  EXPECT_FALSE(urgent.get().archive.empty());

  const auto snap = obs::registry().snapshot();
  ASSERT_NE(snap.counter("service.shed.count"), nullptr);
  EXPECT_EQ(snap.counter("service.shed.count")->value, 1u);
  ASSERT_NE(snap.counter("service.cancel.total"), nullptr);
  EXPECT_EQ(snap.counter("service.cancel.total")->value, 1u);
  ASSERT_NE(snap.counter("service.cancel.queued"), nullptr);
  EXPECT_EQ(snap.counter("service.cancel.queued")->value, 1u);
  ASSERT_NE(snap.counter("service.expired.total"), nullptr);
  EXPECT_EQ(snap.counter("service.expired.total")->value, 0u);
  ASSERT_NE(snap.counter("service.rejected_quota"), nullptr);
  ASSERT_NE(snap.gauge("service.inflight_bytes"), nullptr);
  EXPECT_EQ(snap.gauge("service.inflight_bytes")->value, 0);
  EXPECT_GT(snap.gauge("service.inflight_bytes")->peak, 0);
  for (const char* name :
       {"service.queue_age.interactive_ns", "service.queue_age.batch_ns",
        "service.queue_age.background_ns"}) {
    EXPECT_NE(snap.gauge(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace ohd::service

// CompressionService soak driver: sustained mixed traffic from 64 concurrent
// simulated clients (8 driver threads x 8 clients, every workload seeded)
// through one service instance, with the full observability stack live.
//
// Gated properties (all deterministic booleans in BENCH_service.json):
//  * zero lost/duplicated responses — every admitted request's future yields
//    exactly one verified response (decompress bit-identical to the client's
//    reference decode, chunk/range bit-identical to the matching slice), and
//    the service's own accounting agrees: completed == accepted, failed == 0.
//  * worker-count invariance — a compact multi-client workload produces
//    bit-identical archives, floats, and range slices on a (1 worker,
//    1 dispatcher) service and a (4 workers, 3 dispatchers) service.
//  * bounded residency — the "reader.frame_bytes" registry gauge (which
//    aggregates every open reader) peaks under the configured ceiling:
//    (workers + dispatchers * (2*workers + 2) + dispatchers) * max frame.
//    Pool tasks (decompress chunks and the chunks of multi-chunk ranges)
//    hold one frame each and a dispatcher one for a range inside one
//    chunk, so (workers + dispatchers) frames is the tight bound; the
//    ceiling sits above it.
//  * deterministic backpressure — a fixed paused-submit script is replayed
//    twice; both runs must reject exactly the same (expected) count.
//  * histograms present — all eight per-class "service.*" histograms appear
//    in the exported snapshot with nonzero counts.
//  * chaos soak — every client archive is wrapped in a seeded
//    FaultInjectingSource (transient + short reads) behind the service's
//    ReaderOptions::retry, while drivers race cancels, short deadlines, and
//    overload-priced priorities against the dispatchers. Gated: no future is
//    lost (every admitted request settles exactly once, failed == 0), every
//    admitted byte is released (in-flight bytes reconcile to zero after the
//    drain), every uncancelled result is bit-identical to its fault-free
//    reference decode, and the faults actually fired (io_retries > 0).
//  * deterministic shedding/expiry — fixed paused-submit scripts replayed
//    twice: the priority-shed script must shed exactly the two newest
//    background requests for two interactive submits and reject the next
//    background; the expiry script must expire exactly its three
//    short-deadline requests via the sweeper and complete the rest.
//
// Wall-clock metrics (guarded with wide tolerances): sustained request
// throughput and the chunk-request p99 service latency.
//
//   ./bench_service_soak                 # table on stdout
//   ./bench_service_soak --json [path]   # also write BENCH_service.json
//
// OHD_BENCH_SCALE scales the per-client field size (default 1.0 => 16384
// elements per client; CI smoke uses 0.05).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/fault_injection.hpp"
#include "service/compression_service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ohd;

constexpr std::size_t kClients = 64;
constexpr std::size_t kDrivers = 8;
constexpr std::size_t kRounds = 12;  // mixed requests per client
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kDispatchers = 3;

double bench_scale() {
  if (const char* env = std::getenv("OHD_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

std::vector<float> client_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 0.02 * rng.normal();
    v[i] = static_cast<float>(
        std::sin(0.004 * static_cast<double>(i)) + acc * 0.1);
  }
  return v;
}

/// Submit with bounded-impatience retry: ServiceBusy is the expected
/// backpressure signal under soak load, so drivers back off and retry until
/// admitted (counting the retries).
template <typename Fn>
auto submit_retrying(Fn&& fn, std::atomic<std::uint64_t>& busy_retries)
    -> decltype(fn()) {
  for (;;) {
    try {
      return fn();
    } catch (const service::ServiceBusy&) {
      busy_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

struct SoakOutcome {
  std::uint64_t submitted = 0;   // admitted requests (driver-side count)
  std::uint64_t responses = 0;   // futures that yielded a response
  std::uint64_t verified = 0;    // responses that matched their reference
  std::uint64_t busy_retries = 0;
  std::uint64_t max_frame_bytes = 0;  // largest frame across all archives
  double wall_s = 0.0;
  bool ok = true;
};

/// One client's state during the soak: its reference decode plus the open
/// handle the mixed rounds hit.
struct ClientState {
  service::ClientId id = 0;
  service::ArchiveHandle handle = 0;
  std::size_t elems = 0;
  std::size_t chunks = 0;
  std::vector<float> reference;
  util::Xoshiro256 rng{0};
};

SoakOutcome run_soak(service::CompressionService& svc, std::size_t elems,
                     std::size_t chunk_elems) {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> busy_retries{0};
  std::atomic<std::uint64_t> max_frame{0};
  std::atomic<bool> ok{true};

  util::WallTimer wall;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const double bounds[] = {1e-2, 1e-3, 1e-4};
      std::vector<ClientState> clients(kClients / kDrivers);

      // Set up each of this driver's clients: negotiate options, compress a
      // seeded field, reopen the archive, take a reference decode.
      for (std::size_t i = 0; i < clients.size(); ++i) {
        const std::size_t global = d * clients.size() + i;
        service::ClientOptions opts;
        opts.rel_error_bound = bounds[global % 3];
        opts.chunk_elems = chunk_elems;
        ClientState& c = clients[i];
        c.id = svc.open_client(opts);
        c.elems = elems;
        c.chunks = (elems + chunk_elems - 1) / chunk_elems;
        c.rng = util::Xoshiro256(0xabcd0000 + global);

        service::CompressJob job;
        job.fields.push_back({"field", client_field(elems, 1000 + global),
                              sz::Dims::d1(elems)});
        auto archive =
            submit_retrying(
                [&] { return svc.submit_compress(c.id, job); }, busy_retries)
                .get()
                .archive;
        submitted.fetch_add(1, std::memory_order_relaxed);
        responses.fetch_add(1, std::memory_order_relaxed);
        verified.fetch_add(1, std::memory_order_relaxed);

        {
          // Driver-side probe for the residency ceiling: footer-first open
          // costs only head+index reads and never fetches a frame.
          const pipeline::MemorySource probe_src(archive);
          const pipeline::ArchiveReader probe(probe_src);
          std::uint64_t seen = max_frame.load(std::memory_order_relaxed);
          while (probe.max_frame_bytes() > seen &&
                 !max_frame.compare_exchange_weak(seen, probe.max_frame_bytes(),
                                                  std::memory_order_relaxed)) {
          }
        }
        c.handle = svc.open_archive(
            c.id, std::make_shared<pipeline::OwningMemorySource>(
                      std::move(archive)));
        auto ref = submit_retrying(
                       [&] { return svc.submit_decompress(c.id, c.handle).future; },
                       busy_retries)
                       .get();
        submitted.fetch_add(1, std::memory_order_relaxed);
        responses.fetch_add(1, std::memory_order_relaxed);
        verified.fetch_add(1, std::memory_order_relaxed);
        c.reference = std::move(ref.fields.at(0).decode.data);
        if (c.reference.size() != elems) ok.store(false);
      }

      // Mixed rounds: submit one request per client (up to 8 in flight for
      // this driver, 64 service-wide), then collect and verify the wave.
      using FloatsFuture = std::future<std::vector<float>>;
      using DecompFuture = std::future<pipeline::BatchDecompressResult>;
      struct Pending {
        std::variant<DecompFuture, FloatsFuture> future;
        std::size_t begin = 0;  // verified slice [begin, end)
        std::size_t end = 0;
      };
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<Pending> wave(clients.size());
        for (std::size_t i = 0; i < clients.size(); ++i) {
          ClientState& c = clients[i];
          Pending& p = wave[i];
          switch (c.rng.bounded(3)) {
            case 0:
              p.future = submit_retrying(
                  [&] { return svc.submit_decompress(c.id, c.handle).future; },
                  busy_retries);
              p.begin = 0;
              p.end = c.elems;
              break;
            case 1: {
              const std::size_t chunk = c.rng.bounded(c.chunks);
              p.begin = chunk * chunk_elems;
              p.end = std::min(c.elems, p.begin + chunk_elems);
              p.future = submit_retrying(
                  [&] { return svc.submit_chunk(c.id, c.handle, 0, chunk).future; },
                  busy_retries);
              break;
            }
            default: {
              const std::size_t begin = c.rng.bounded(c.elems - 1);
              const std::size_t len = 1 + c.rng.bounded(c.elems - begin - 1);
              p.begin = begin;
              p.end = std::min(c.elems, begin + len);
              p.future = submit_retrying(
                  [&] {
                    return svc.submit_range(c.id, c.handle, 0, p.begin, p.end)
                        .future;
                  },
                  busy_retries);
              break;
            }
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < clients.size(); ++i) {
          ClientState& c = clients[i];
          Pending& p = wave[i];
          std::vector<float> got;
          if (auto* df = std::get_if<DecompFuture>(&p.future)) {
            got = std::move(df->get().fields.at(0).decode.data);
          } else {
            got = std::get<FloatsFuture>(p.future).get();
          }
          responses.fetch_add(1, std::memory_order_relaxed);
          const bool match =
              got.size() == p.end - p.begin &&
              std::equal(got.begin(), got.end(), c.reference.begin() +
                                                    static_cast<std::ptrdiff_t>(
                                                        p.begin));
          if (match) {
            verified.fetch_add(1, std::memory_order_relaxed);
          } else {
            ok.store(false);
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();

  SoakOutcome out;
  out.wall_s = wall.seconds();
  out.submitted = submitted.load();
  out.responses = responses.load();
  out.verified = verified.load();
  out.busy_retries = busy_retries.load();
  out.max_frame_bytes = max_frame.load();
  out.ok = ok.load();
  return out;
}

/// Fixed paused-submit script: with dispatchers idle, exactly
/// max_queue_depth submits are admitted and the rest rejected. Returns
/// {accepted, rejected} for one replay.
std::pair<std::uint64_t, std::uint64_t> rejection_script() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 4;
  cfg.max_inflight_per_client = 100;
  service::CompressionService svc(cfg);
  const service::ClientId client = svc.open_client();
  service::CompressJob job;
  job.fields.push_back(
      {"f", client_field(2048, 77), sz::Dims::d1(2048)});

  svc.pause();
  std::vector<std::future<service::CompressResult>> admitted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 7; ++i) {
    try {
      admitted.push_back(svc.submit_compress(client, job).future);
    } catch (const service::ServiceBusy&) {
      ++rejected;
    }
  }
  svc.resume();
  for (auto& f : admitted) f.get();
  return {svc.stats().accepted, rejected};
}

/// Compact multi-client workload digest for the invariance check.
struct Digest {
  std::vector<std::vector<std::uint8_t>> archives;
  std::vector<std::vector<float>> floats;
  std::vector<std::vector<float>> ranges;

  bool operator==(const Digest& other) const {
    return archives == other.archives && floats == other.floats &&
           ranges == other.ranges;
  }
};

Digest run_invariance(std::size_t workers, std::size_t dispatchers,
                      std::size_t elems) {
  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.dispatchers = dispatchers;
  service::CompressionService svc(cfg);
  Digest digest;
  const double bounds[] = {1e-2, 1e-3, 1e-4, 1e-3};
  for (int c = 0; c < 4; ++c) {
    service::ClientOptions opts;
    opts.rel_error_bound = bounds[c];
    opts.chunk_elems = 1024;
    opts.plan.auto_method = (c % 2 == 1);
    opts.plan.shared_codebook = (c % 2 == 1);
    const service::ClientId client = svc.open_client(opts);
    service::CompressJob job;
    job.fields.push_back({"field",
                          client_field(elems, 500 + static_cast<std::uint64_t>(c)),
                          sz::Dims::d1(elems)});
    auto archive = svc.submit_compress(client, job).get().archive;
    auto copy = archive;
    digest.archives.push_back(std::move(archive));
    const service::ArchiveHandle h = svc.open_archive(
        client,
        std::make_shared<pipeline::OwningMemorySource>(std::move(copy)));
    digest.floats.push_back(std::move(
        svc.submit_decompress(client, h).get().fields.at(0).decode.data));
    digest.ranges.push_back(
        svc.submit_range(client, h, 0, elems / 5, (4 * elems) / 5).get());
  }
  return digest;
}

// ---- Chaos soak -------------------------------------------------------------

/// Owning fault wrapper: FaultInjectingSource borrows its inner source, so
/// the archive bytes and the injector must travel together behind the one
/// shared_ptr the service holds.
struct FaultyArchiveSource : pipeline::ByteSource {
  FaultyArchiveSource(std::vector<std::uint8_t> bytes,
                      pipeline::FaultSpec spec)
      : mem(std::move(bytes)), faults(mem, spec) {}
  std::uint64_t size() const override { return faults.size(); }
  void read_at(std::uint64_t offset,
               std::span<std::uint8_t> out) const override {
    faults.read_at(offset, out);
  }
  pipeline::OwningMemorySource mem;
  pipeline::FaultInjectingSource faults;
};

struct ChaosOutcome {
  std::uint64_t admitted = 0;   // driver-side admitted round requests
  std::uint64_t settled = 0;    // futures that yielded value or verdict
  std::uint64_t completed = 0;  // futures that yielded a value
  std::uint64_t io_retries = 0;
  bool zero_lost = false;
  bool bit_identical = false;
  bool quota_reconciled = false;
  bool faults_observed = false;
};

/// The process total of "reader.io_retries": every ArchiveReader's own
/// retry counter, live or destroyed (absent until a reader exists).
std::uint64_t reader_io_retries() {
  const obs::Snapshot snap = obs::registry().snapshot();
  const obs::CounterSnap* c = snap.counter("reader.io_retries");
  return c == nullptr ? 0 : c->value;
}

/// Fault-injected request-lifecycle storm: every archive read may fail or
/// come up short (retried transparently by the service's ReaderOptions),
/// drivers cancel a seeded quarter of their submissions, attach occasional
/// sub-millisecond deadlines, and mix priorities against a small queue so
/// overload shedding fires. The only acceptable future outcomes are a
/// bit-identical result or one of the three lifecycle verdicts.
ChaosOutcome run_chaos(std::size_t elems, std::size_t chunk_elems) {
  constexpr std::size_t kChaosClients = 8;
  constexpr std::size_t kChaosDrivers = 4;
  constexpr std::size_t kChaosRounds = 10;
  const std::uint64_t retries_before = reader_io_retries();

  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 2;
  cfg.max_queue_depth = 8;
  cfg.max_inflight_per_client = 4;
  cfg.reader.retry.max_attempts = 8;
  service::CompressionService svc(cfg);

  struct ChaosClient {
    service::ClientId id = 0;
    service::ArchiveHandle handle = 0;
    std::size_t elems = 0;
    std::size_t chunks = 0;
    std::vector<float> reference;
  };
  std::vector<ChaosClient> clients(kChaosClients);
  for (std::size_t c = 0; c < kChaosClients; ++c) {
    service::ClientOptions opts;
    opts.chunk_elems = chunk_elems;
    ChaosClient& cc = clients[c];
    cc.id = svc.open_client(opts);
    cc.elems = elems;
    cc.chunks = (elems + chunk_elems - 1) / chunk_elems;
    service::CompressJob job;
    job.fields.push_back(
        {"field", client_field(elems, 9000 + c), sz::Dims::d1(elems)});
    auto archive = svc.submit_compress(cc.id, job).get().archive;
    {
      // Fault-free reference decode through a pristine copy of the archive.
      auto copy = archive;
      const service::ArchiveHandle ref = svc.open_archive(
          cc.id,
          std::make_shared<pipeline::OwningMemorySource>(std::move(copy)));
      cc.reference = std::move(
          svc.submit_decompress(cc.id, ref).get().fields.at(0).decode.data);
      svc.close_archive(cc.id, ref);
    }
    pipeline::FaultSpec spec;
    spec.seed = 0x900d + c;
    spec.transient_read_rate = 0.08;
    spec.short_read_rate = 0.04;
    cc.handle = svc.open_archive(
        cc.id, std::make_shared<FaultyArchiveSource>(std::move(archive), spec));
  }
  // Requests the setup itself ran through the service (per client: the
  // compress and the reference decompress).
  const std::uint64_t setup_requests = 2 * kChaosClients;

  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> settled{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> mismatched{0};
  std::atomic<std::uint64_t> unexpected{0};

  std::vector<std::thread> drivers;
  drivers.reserve(kChaosDrivers);
  for (std::size_t d = 0; d < kChaosDrivers; ++d) {
    drivers.emplace_back([&, d] {
      using FloatsFuture = std::future<std::vector<float>>;
      using DecompFuture = std::future<pipeline::BatchDecompressResult>;
      struct Pending {
        std::variant<DecompFuture, FloatsFuture> future;
        const ChaosClient* client = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
      };
      util::Xoshiro256 rng(0xc4a05 + d);
      for (std::size_t round = 0; round < kChaosRounds; ++round) {
        std::vector<Pending> wave;
        for (std::size_t i = d; i < kChaosClients; i += kChaosDrivers) {
          ChaosClient& c = clients[i];
          // Two submissions per client per round keep the small queue near
          // its high-water mark so shedding genuinely fires.
          for (int k = 0; k < 2; ++k) {
            service::RequestOptions opts;
            opts.priority =
                static_cast<service::Priority>(rng.bounded(3));
            if (rng.bounded(8) == 0) {
              opts.deadline = service::Deadline::after(
                  std::chrono::microseconds(300));
            }
            Pending p;
            p.client = &c;
            service::RequestId id = 0;
            try {
              switch (rng.bounded(3)) {
                case 0: {
                  auto sub = svc.submit_decompress(c.id, c.handle, opts);
                  id = sub.id;
                  p.future = std::move(sub.future);
                  p.begin = 0;
                  p.end = c.elems;
                  break;
                }
                case 1: {
                  const std::size_t chunk = rng.bounded(c.chunks);
                  p.begin = chunk * chunk_elems;
                  p.end = std::min(c.elems, p.begin + chunk_elems);
                  auto sub = svc.submit_chunk(c.id, c.handle, 0, chunk, opts);
                  id = sub.id;
                  p.future = std::move(sub.future);
                  break;
                }
                default: {
                  const std::size_t begin = rng.bounded(c.elems - 1);
                  const std::size_t len =
                      1 + rng.bounded(c.elems - begin - 1);
                  p.begin = begin;
                  p.end = std::min(c.elems, begin + len);
                  auto sub =
                      svc.submit_range(c.id, c.handle, 0, p.begin, p.end, opts);
                  id = sub.id;
                  p.future = std::move(sub.future);
                  break;
                }
              }
            } catch (const service::ServiceBusy&) {
              continue;  // not admitted (cap or overload): nothing to settle
            }
            admitted.fetch_add(1, std::memory_order_relaxed);
            // A seeded quarter of admitted requests get cancelled right
            // away — racing the dispatcher on the same id.
            if (rng.bounded(4) == 0) (void)svc.cancel(id);
            wave.push_back(std::move(p));
          }
        }
        for (Pending& p : wave) {
          try {
            std::vector<float> got;
            if (auto* df = std::get_if<DecompFuture>(&p.future)) {
              got = std::move(df->get().fields.at(0).decode.data);
            } else {
              got = std::get<FloatsFuture>(p.future).get();
            }
            completed.fetch_add(1, std::memory_order_relaxed);
            const bool match =
                got.size() == p.end - p.begin &&
                std::equal(got.begin(), got.end(),
                           p.client->reference.begin() +
                               static_cast<std::ptrdiff_t>(p.begin));
            if (!match) mismatched.fetch_add(1, std::memory_order_relaxed);
          } catch (const service::RequestCancelled&) {
          } catch (const service::DeadlineExceeded&) {
          } catch (const service::ServiceOverloaded&) {
          } catch (...) {
            unexpected.fetch_add(1, std::memory_order_relaxed);
          }
          settled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  svc.shutdown();
  const service::ServiceStats stats = svc.stats();

  ChaosOutcome out;
  out.admitted = admitted.load();
  out.settled = settled.load();
  out.completed = completed.load();
  out.io_retries = reader_io_retries() - retries_before;
  out.zero_lost = out.settled == out.admitted && unexpected.load() == 0 &&
                  stats.accepted == out.admitted + setup_requests &&
                  stats.settled() == stats.accepted && stats.failed == 0;
  out.bit_identical = mismatched.load() == 0 && out.completed > 0;
  out.quota_reconciled = stats.inflight == 0 && stats.inflight_bytes == 0;
  out.faults_observed = out.io_retries > 0;
  return out;
}

// ---- Deterministic shed / expiry scripts ------------------------------------

/// Fixed paused-submit shed script: 4 background requests fill the queue,
/// 2 interactive submits shed the 2 newest of them, a further background
/// submit is rejected outright, and the 4 survivors complete after resume.
/// Returns (accepted, shed, rejected, completed, futures_ok).
struct ShedScriptResult {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  bool futures_ok = false;

  bool operator==(const ShedScriptResult& o) const {
    return accepted == o.accepted && shed == o.shed && rejected == o.rejected &&
           completed == o.completed && futures_ok == o.futures_ok;
  }
};

ShedScriptResult shed_script() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 1;
  cfg.max_queue_depth = 4;
  cfg.max_inflight_per_client = 100;
  service::CompressionService svc(cfg);
  const service::ClientId client = svc.open_client();
  service::CompressJob job;
  job.fields.push_back({"f", client_field(2048, 88), sz::Dims::d1(2048)});

  svc.pause();
  service::RequestOptions bg;
  bg.priority = service::Priority::Background;
  std::vector<service::Submission<service::CompressResult>> background;
  for (int i = 0; i < 4; ++i) {
    background.push_back(svc.submit_compress(client, job, bg));
  }
  service::RequestOptions interactive;
  interactive.priority = service::Priority::Interactive;
  auto i1 = svc.submit_compress(client, job, interactive);
  auto i2 = svc.submit_compress(client, job, interactive);

  ShedScriptResult r;
  try {
    svc.submit_compress(client, job, bg);
  } catch (const service::ServiceOverloaded&) {
    ++r.rejected;
  }
  // The two newest background futures hold ServiceOverloaded already.
  bool shed_ok = true;
  for (int i = 2; i < 4; ++i) {
    try {
      background[static_cast<std::size_t>(i)].get();
      shed_ok = false;
    } catch (const service::ServiceOverloaded&) {
    } catch (...) {
      shed_ok = false;
    }
  }
  svc.resume();
  bool done_ok = true;
  try {
    done_ok = !background[0].get().archive.empty() &&
              !background[1].get().archive.empty() &&
              !i1.get().archive.empty() && !i2.get().archive.empty();
  } catch (...) {
    done_ok = false;
  }
  const service::ServiceStats stats = svc.stats();
  r.accepted = stats.accepted;
  r.shed = stats.shed;
  r.completed = stats.completed;
  r.futures_ok = shed_ok && done_ok;
  return r;
}

/// Fixed paused-submit expiry script: 3 requests with a 2 ms deadline expire
/// via the sweeper while the service is paused; the 2 without deadlines
/// complete after resume. Returns (expired, completed, futures_ok).
struct ExpiryScriptResult {
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  bool futures_ok = false;

  bool operator==(const ExpiryScriptResult& o) const {
    return expired == o.expired && completed == o.completed &&
           futures_ok == o.futures_ok;
  }
};

ExpiryScriptResult expiry_script() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 1;
  cfg.sweep_interval = std::chrono::microseconds(200);
  service::CompressionService svc(cfg);
  const service::ClientId client = svc.open_client();
  service::CompressJob job;
  job.fields.push_back({"f", client_field(2048, 99), sz::Dims::d1(2048)});

  svc.pause();
  service::RequestOptions late;
  late.deadline = service::Deadline::after(std::chrono::milliseconds(2));
  std::vector<service::Submission<service::CompressResult>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(svc.submit_compress(client, job, late));
  }
  auto s1 = svc.submit_compress(client, job);
  auto s2 = svc.submit_compress(client, job);

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (svc.stats().expired < 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool futures_ok = true;
  for (auto& d : doomed) {
    try {
      d.get();
      futures_ok = false;
    } catch (const service::DeadlineExceeded&) {
    } catch (...) {
      futures_ok = false;
    }
  }
  svc.resume();
  try {
    futures_ok = futures_ok && !s1.get().archive.empty() &&
                 !s2.get().archive.empty();
  } catch (...) {
    futures_ok = false;
  }
  const service::ServiceStats stats = svc.stats();
  return {stats.expired, stats.completed, futures_ok};
}

int run(bool emit_json, const char* json_path) {
  const double scale = bench_scale();
  const auto elems = std::max<std::size_t>(
      2048, static_cast<std::size_t>(16384 * scale));
  const std::size_t chunk_elems = 1024;
  std::printf(
      "soak: %zu clients on %zu drivers, %zu rounds, %zu elems/client "
      "(scale %.3g), service %zu workers + %zu dispatchers\n",
      kClients, kDrivers, kRounds, elems, scale, kWorkers, kDispatchers);

  // ---- Soak phase (telemetry live for the whole run) ----------------------
  service::ServiceStats stats;
  SoakOutcome soak;
  std::uint64_t frame_peak = 0;
  bool histograms_present = true;
  std::string snapshot_json;
  double chunk_p99_ms = 0.0;
  {
    const obs::ScopedTelemetry telemetry;
    service::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.dispatchers = kDispatchers;
    cfg.max_queue_depth = 128;
    cfg.max_inflight_per_client = 4;
    cfg.max_open_readers_per_client = 2;
    service::CompressionService svc(cfg);
    soak = run_soak(svc, elems, chunk_elems);
    svc.shutdown();
    stats = svc.stats();

    const auto snap = obs::registry().snapshot();
    if (const auto* g = snap.gauge("reader.frame_bytes")) {
      frame_peak = static_cast<std::uint64_t>(g->peak);
    }
    for (const char* cls : {"compress", "decompress", "chunk", "range"}) {
      for (const char* kind : {".latency_ns", ".queue_wait_ns"}) {
        const std::string name = std::string("service.") + cls + kind;
        const auto* h = snap.histogram(name);
        if (h == nullptr || h->count == 0) histograms_present = false;
      }
    }
    if (const auto* h = snap.histogram("service.chunk.latency_ns")) {
      chunk_p99_ms = static_cast<double>(h->p99_ns) / 1e6;
    }
    snapshot_json = snap.to_json(4);
  }

  // Frame-residency ceiling: every pool task holds one frame (a range's
  // chunks are pool tasks too), and a dispatcher one while it reads a range
  // inside one chunk. So (workers + dispatchers) frames bound the peak; the
  // ceiling below is looser and still an upper bound.
  const std::uint64_t window = std::max<std::uint64_t>(2, 2 * kWorkers);
  const std::uint64_t ceiling =
      (kWorkers + kDispatchers * (window + 2) + kDispatchers) *
      soak.max_frame_bytes;
  const bool residency_bounded = frame_peak > 0 && frame_peak <= ceiling;

  const bool zero_lost = soak.ok && soak.responses == soak.submitted &&
                         soak.verified == soak.submitted &&
                         stats.completed == soak.submitted &&
                         stats.accepted == soak.submitted &&
                         stats.failed == 0;
  const double throughput =
      static_cast<double>(soak.submitted) / soak.wall_s;

  // ---- Deterministic backpressure -----------------------------------------
  const auto [acc1, rej1] = rejection_script();
  const auto [acc2, rej2] = rejection_script();
  const bool deterministic_rejections =
      acc1 == 4 && rej1 == 3 && acc2 == acc1 && rej2 == rej1;

  // ---- Worker-count invariance --------------------------------------------
  const std::size_t inv_elems = std::max<std::size_t>(2048, elems / 4);
  const bool worker_invariant =
      run_invariance(1, 1, inv_elems) == run_invariance(4, 3, inv_elems);

  // ---- Chaos soak ---------------------------------------------------------
  const std::size_t chaos_elems = std::max<std::size_t>(2048, elems / 2);
  const ChaosOutcome chaos = run_chaos(chaos_elems, chunk_elems);

  // ---- Deterministic shedding and expiry ----------------------------------
  const ShedScriptResult shed1 = shed_script();
  const ShedScriptResult shed2 = shed_script();
  const ShedScriptResult shed_expected{6, 2, 1, 4, true};
  const bool deterministic_shed =
      shed1 == shed_expected && shed2 == shed_expected;
  const ExpiryScriptResult exp1 = expiry_script();
  const ExpiryScriptResult exp2 = expiry_script();
  const ExpiryScriptResult exp_expected{3, 2, true};
  const bool deterministic_expiry =
      exp1 == exp_expected && exp2 == exp_expected;

  std::printf(
      "requests: %llu admitted (+%llu busy retries), %llu responses, "
      "%llu verified => zero lost: %s\n",
      static_cast<unsigned long long>(soak.submitted),
      static_cast<unsigned long long>(soak.busy_retries),
      static_cast<unsigned long long>(soak.responses),
      static_cast<unsigned long long>(soak.verified),
      zero_lost ? "yes" : "NO");
  std::printf(
      "accounting: accepted %llu, completed %llu, failed %llu, rejected "
      "%llu, inflight peak %lld, queue peak %lld\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected()),
      static_cast<long long>(stats.inflight_peak),
      static_cast<long long>(stats.queue_depth_peak));
  std::printf(
      "throughput: %.1f req/s over %.2f s; chunk p99 %.3f ms\n", throughput,
      soak.wall_s, chunk_p99_ms);
  std::printf(
      "residency: frame peak %llu B vs ceiling %llu B (max frame %llu B) "
      "=> bounded: %s\n",
      static_cast<unsigned long long>(frame_peak),
      static_cast<unsigned long long>(ceiling),
      static_cast<unsigned long long>(soak.max_frame_bytes),
      residency_bounded ? "yes" : "NO");
  std::printf("deterministic rejections: %s (4 admitted / 3 rejected x2)\n",
              deterministic_rejections ? "yes" : "NO");
  std::printf("worker-count invariant: %s; service histograms present: %s\n",
              worker_invariant ? "yes" : "NO",
              histograms_present ? "yes" : "NO");
  std::printf(
      "chaos: %llu admitted, %llu settled (%llu values, %llu io retries) => "
      "zero lost: %s, bit-identical: %s, quota reconciled: %s, faults "
      "observed: %s\n",
      static_cast<unsigned long long>(chaos.admitted),
      static_cast<unsigned long long>(chaos.settled),
      static_cast<unsigned long long>(chaos.completed),
      static_cast<unsigned long long>(chaos.io_retries),
      chaos.zero_lost ? "yes" : "NO", chaos.bit_identical ? "yes" : "NO",
      chaos.quota_reconciled ? "yes" : "NO",
      chaos.faults_observed ? "yes" : "NO");
  std::printf(
      "deterministic shed: %s (6 accepted / 2 shed / 1 rejected / 4 "
      "completed x2); deterministic expiry: %s (3 expired / 2 completed "
      "x2)\n",
      deterministic_shed ? "yes" : "NO", deterministic_expiry ? "yes" : "NO");

  const bool all_ok = zero_lost && residency_bounded &&
                      deterministic_rejections && worker_invariant &&
                      histograms_present && chaos.zero_lost &&
                      chaos.bit_identical && chaos.quota_reconciled &&
                      chaos.faults_observed && deterministic_shed &&
                      deterministic_expiry;
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: soak property violated\n");
  }

  if (emit_json) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"service\",\n"
        "  \"scale\": %.4f,\n"
        "  \"clients\": %zu,\n"
        "  \"drivers\": %zu,\n"
        "  \"rounds\": %zu,\n"
        "  \"elems_per_client\": %zu,\n"
        "  \"workers\": %zu,\n"
        "  \"dispatchers\": %zu,\n"
        "  \"requests_admitted\": %llu,\n"
        "  \"busy_retries\": %llu,\n"
        "  \"responses\": %llu,\n"
        "  \"responses_verified\": %llu,\n"
        "  \"inflight_peak\": %lld,\n"
        "  \"queue_depth_peak\": %lld,\n"
        "  \"frame_peak_bytes\": %llu,\n"
        "  \"frame_ceiling_bytes\": %llu,\n"
        "  \"soak_wall_s\": %.6f,\n"
        "  \"zero_lost\": %s,\n"
        "  \"worker_invariant\": %s,\n"
        "  \"residency_bounded\": %s,\n"
        "  \"deterministic_rejections\": %s,\n"
        "  \"histograms_present\": %s,\n"
        "  \"chaos_admitted\": %llu,\n"
        "  \"chaos_settled\": %llu,\n"
        "  \"chaos_io_retries\": %llu,\n"
        "  \"chaos_zero_lost\": %s,\n"
        "  \"chaos_bit_identical\": %s,\n"
        "  \"chaos_quota_reconciled\": %s,\n"
        "  \"chaos_faults_observed\": %s,\n"
        "  \"deterministic_shed\": %s,\n"
        "  \"deterministic_expiry\": %s,\n"
        "  \"throughput_req_per_s\": %.2f,\n"
        "  \"chunk_p99_ms\": %.4f,\n"
        "  \"telemetry\": {\n"
        "    \"snapshot\": %s\n"
        "  }\n"
        "}\n",
        scale, kClients, kDrivers, kRounds, elems, kWorkers, kDispatchers,
        static_cast<unsigned long long>(soak.submitted),
        static_cast<unsigned long long>(soak.busy_retries),
        static_cast<unsigned long long>(soak.responses),
        static_cast<unsigned long long>(soak.verified),
        static_cast<long long>(stats.inflight_peak),
        static_cast<long long>(stats.queue_depth_peak),
        static_cast<unsigned long long>(frame_peak),
        static_cast<unsigned long long>(ceiling), soak.wall_s,
        zero_lost ? "true" : "false", worker_invariant ? "true" : "false",
        residency_bounded ? "true" : "false",
        deterministic_rejections ? "true" : "false",
        histograms_present ? "true" : "false",
        static_cast<unsigned long long>(chaos.admitted),
        static_cast<unsigned long long>(chaos.settled),
        static_cast<unsigned long long>(chaos.io_retries),
        chaos.zero_lost ? "true" : "false",
        chaos.bit_identical ? "true" : "false",
        chaos.quota_reconciled ? "true" : "false",
        chaos.faults_observed ? "true" : "false",
        deterministic_shed ? "true" : "false",
        deterministic_expiry ? "true" : "false", throughput, chunk_p99_ms,
        snapshot_json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  const char* json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json [path]]\n", argv[0]);
      return 2;
    }
  }
  return run(emit_json, json_path);
}

// Loopback wire-protocol soak driver: multi-client mixed traffic through
// net::ServiceServer / net::ServiceClient over TCP loopback, with every
// response checked against the in-process CompressionService path.
//
// Gated properties (all deterministic booleans in BENCH_net.json):
//  * wire bit-identity — for every client and round, the archive produced
//    over the wire is byte-identical to submitting the SAME job with the
//    SAME session options directly to the owning service, and the wire
//    decompress/chunk/range responses are float-identical to the direct
//    submissions against the same archive image.
//  * zero lost responses — every wire request a driver submits settles
//    exactly once with a verified response; the per-client accounting
//    (requests_sent == responses_received, errors_received == 0) and the
//    server's accounting (frames_out covers every response) agree, and the
//    error frames the clients received sum to the server's error_frames.
//  * reconnect convergence — a client whose server is shut down and
//    replaced (same Unix-socket path) observes ConnectionLost, reconnects
//    inside compress_retrying's backoff loop, and completes with a
//    bit-identical archive; exactly the expected reconnect count.
//
// Wall-clock metric (guarded with a wide tolerance): sustained wire
// round-trip throughput across all clients.
//
//   ./bench_net_soak                 # table on stdout
//   ./bench_net_soak --json [path]   # also write BENCH_net.json
//
// OHD_BENCH_SCALE scales the per-client field size (default 1.0 => 12288
// elements per client; CI smoke uses 0.05).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/byte_stream.hpp"
#include "service/compression_service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ohd;

constexpr std::size_t kClients = 6;
constexpr std::size_t kRounds = 6;          // mixed wire rounds per client
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kDispatchers = 3;
constexpr std::size_t kChunkElems = 2048;

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

service::CompressJob make_job(std::size_t elems, std::uint64_t seed) {
  service::CompressJob job;
  job.fields.push_back(
      {"soak", client_field(elems, seed), sz::Dims::d1(elems)});
  return job;
}

bool identical_floats(const std::vector<float>& a,
                      const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Wire submit with bounded-impatience retry on ServiceBusy: the same
/// backpressure discipline the in-process soak uses, but the busy signal
/// arrives as an error frame settled into the submission's future.
template <typename SubmitFn>
auto wire_retrying(SubmitFn&& submit, std::atomic<std::uint64_t>& busy_retries)
    -> decltype(submit().get()) {
  for (;;) {
    try {
      return submit().get();
    } catch (const service::ServiceOverloaded& e) {
      busy_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<std::uint64_t>(e.retry_after_ns(), 200'000)));
    } catch (const service::ServiceBusy&) {
      busy_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Direct (in-process) submit with the same busy retry.
template <typename SubmitFn>
auto direct_retrying(SubmitFn&& submit,
                     std::atomic<std::uint64_t>& busy_retries)
    -> decltype(submit().get()) {
  for (;;) {
    try {
      return submit().get();
    } catch (const service::ServiceBusy&) {
      busy_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

struct SoakOutcome {
  std::uint64_t submitted = 0;    // wire requests the drivers sent
  std::uint64_t responses = 0;    // wire futures that yielded a value
  std::uint64_t verified = 0;     // responses bit-identical to direct path
  std::uint64_t busy_retries = 0;
  std::uint64_t errors_received = 0;  // typed error frames clients demuxed
  double wall_s = 0.0;
  bool accounting_ok = false;     // client counters reconcile, zero errors
};

/// The loopback soak: kClients client threads, each owning one
/// ServiceClient over TCP loopback, each round compressing a seeded field
/// over the wire, re-uploading the archive, and reading it back via
/// decompress + chunk + range — every response compared against the direct
/// in-process submission with identical options.
SoakOutcome run_soak(service::CompressionService& svc,
                     const net::Endpoint& endpoint, std::size_t elems) {
  SoakOutcome out;
  std::atomic<std::uint64_t> submitted{0}, responses{0}, verified{0},
      busy_retries{0}, errors_received{0};
  std::atomic<bool> accounting_ok{true};

  util::WallTimer wall;
  std::vector<std::thread> drivers;
  drivers.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      try {
      net::ClientConfig cfg;
      cfg.endpoint = endpoint;
      cfg.chunk_elems = kChunkElems;
      net::ServiceClient client(cfg);

      // The in-process reference session mirrors the wire session's
      // negotiated options exactly (the OpenClient body fields overlay the
      // server's default ClientOptions, which this bench leaves at their
      // defaults on both sides).
      service::ClientOptions ref_opts;
      ref_opts.rel_error_bound = cfg.rel_error_bound;
      ref_opts.radius = cfg.radius;
      ref_opts.chunk_elems = cfg.chunk_elems;
      const service::ClientId ref = svc.open_client(ref_opts);

      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::uint64_t seed = 0x9e3779b9u * (c + 1) + round;
        const service::CompressJob job = make_job(elems, seed);

        // Compress over the wire vs directly: archives must be
        // byte-identical.
        submitted.fetch_add(1, std::memory_order_relaxed);
        const service::CompressResult wire_res = wire_retrying(
            [&] { return client.submit_compress(job); }, busy_retries);
        responses.fetch_add(1, std::memory_order_relaxed);
        const service::CompressResult direct_res = direct_retrying(
            [&] { return svc.submit_compress(ref, job); }, busy_retries);
        if (wire_res.archive == direct_res.archive &&
            !wire_res.archive.empty()) {
          verified.fetch_add(1, std::memory_order_relaxed);
        }

        // Read the archive back through both paths.
        const service::ArchiveHandle wire_h =
            client.open_archive(wire_res.archive);
        const service::ArchiveHandle direct_h = svc.open_archive(
            ref,
            std::make_shared<pipeline::OwningMemorySource>(wire_res.archive));

        submitted.fetch_add(1, std::memory_order_relaxed);
        const net::DecompressBody wire_dec = wire_retrying(
            [&] { return client.submit_decompress(wire_h); }, busy_retries);
        responses.fetch_add(1, std::memory_order_relaxed);
        const pipeline::BatchDecompressResult direct_dec = direct_retrying(
            [&] { return svc.submit_decompress(ref, direct_h); },
            busy_retries);
        if (wire_dec.fields.size() == direct_dec.fields.size() &&
            wire_dec.fields.size() == 1 &&
            wire_dec.fields[0].name == direct_dec.fields[0].name &&
            identical_floats(wire_dec.fields[0].data,
                             direct_dec.fields[0].decode.data)) {
          verified.fetch_add(1, std::memory_order_relaxed);
        }

        // elems >= kChunkElems + 512 guarantees at least two chunks.
        submitted.fetch_add(1, std::memory_order_relaxed);
        const std::vector<float> wire_chunk = wire_retrying(
            [&] { return client.submit_chunk(wire_h, 0, round % 2); },
            busy_retries);
        responses.fetch_add(1, std::memory_order_relaxed);
        const std::vector<float> direct_chunk = direct_retrying(
            [&] { return svc.submit_chunk(ref, direct_h, 0, round % 2); },
            busy_retries);
        if (identical_floats(wire_chunk, direct_chunk)) {
          verified.fetch_add(1, std::memory_order_relaxed);
        }

        const std::uint64_t lo = (seed % 7) * 97 % elems;
        const std::uint64_t hi =
            std::min<std::uint64_t>(elems, lo + kChunkElems + 33);
        submitted.fetch_add(1, std::memory_order_relaxed);
        const std::vector<float> wire_range = wire_retrying(
            [&] { return client.submit_range(wire_h, 0, lo, hi); },
            busy_retries);
        responses.fetch_add(1, std::memory_order_relaxed);
        const std::vector<float> direct_range = direct_retrying(
            [&] { return svc.submit_range(ref, direct_h, 0, lo, hi); },
            busy_retries);
        if (identical_floats(wire_range, direct_range)) {
          verified.fetch_add(1, std::memory_order_relaxed);
        }

        client.close_archive(wire_h);
        svc.close_archive(ref, direct_h);
      }

      svc.close_client(ref);
      const net::ClientStats cs = client.stats();
      errors_received.fetch_add(cs.errors_received, std::memory_order_relaxed);
      // Each round: compress + open_archive + decompress + chunk + range +
      // close_archive = 6 wire requests, plus the OpenClient handshake.
      if (cs.errors_received != 0 ||
          cs.responses_received != cs.requests_sent) {
        accounting_ok.store(false, std::memory_order_relaxed);
      }
      } catch (const std::exception& e) {
        // A driver failure fails the zero-lost gate instead of aborting.
        std::fprintf(stderr, "driver %zu failed: %s\n", c, e.what());
        accounting_ok.store(false, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : drivers) t.join();

  out.wall_s = wall.seconds();
  out.submitted = submitted.load();
  out.responses = responses.load();
  out.verified = verified.load();
  out.busy_retries = busy_retries.load();
  out.errors_received = errors_received.load();
  out.accounting_ok = accounting_ok.load();
  return out;
}

struct ReconnectOutcome {
  bool observed_disconnect = false;  // the dead server was actually noticed
  bool converged = false;            // compress_retrying succeeded after
  bool bit_identical = false;        // ...with the same archive bytes
  std::uint64_t reconnects = 0;
};

/// Kill-and-replace convergence: connect over a Unix socket, shut the
/// server down, verify the client notices, bring up a NEW server on the
/// same path, and require compress_retrying to reconnect and produce the
/// same archive the first server did.
ReconnectOutcome run_reconnect(std::size_t elems) {
  ReconnectOutcome out;
  const std::string path =
      "/tmp/ohd_net_soak_" + std::to_string(::getpid()) + ".sock";

  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 2;
  service::CompressionService svc(cfg);

  net::ServerConfig scfg;
  scfg.listen.push_back(net::Endpoint::unix_socket(path));
  auto server = std::make_unique<net::ServiceServer>(svc, scfg);

  net::ClientConfig ccfg;
  ccfg.endpoint = net::Endpoint::unix_socket(path);
  ccfg.retry.max_attempts = 8;
  ccfg.retry.base_delay = std::chrono::microseconds(500);
  net::ServiceClient client(ccfg);

  const service::CompressJob job = make_job(elems, 0xc0ffee);
  const service::CompressResult before = client.compress_retrying(job);

  server->shutdown();
  server.reset();

  // The demux reader observes EOF and tears the connection down; poll until
  // the client agrees it is disconnected.
  for (int i = 0; i < 2000 && client.connected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.observed_disconnect = !client.connected();

  server = std::make_unique<net::ServiceServer>(svc, scfg);
  try {
    const service::CompressResult after = client.compress_retrying(job);
    out.converged = true;
    out.bit_identical =
        !after.archive.empty() && after.archive == before.archive;
  } catch (...) {
    out.converged = false;
  }
  out.reconnects = client.stats().reconnects;

  client.disconnect();
  server->shutdown();
  svc.shutdown();
  ::unlink(path.c_str());
  return out;
}

int run(bool emit_json, const char* json_path) {
  const double scale = bench_scale();
  const auto elems = std::max<std::size_t>(
      kChunkElems + 512, static_cast<std::size_t>(12288 * scale));
  std::printf(
      "net soak: %zu clients x %zu rounds, %zu elems/client (scale %.3g), "
      "service %zu workers + %zu dispatchers, TCP loopback\n",
      kClients, kRounds, elems, scale, kWorkers, kDispatchers);

  SoakOutcome soak;
  std::uint64_t srv_frames_in = 0, srv_frames_out = 0;
  std::uint64_t srv_bytes_in = 0, srv_bytes_out = 0;
  std::uint64_t srv_error_frames = 0, srv_decode_rejects = 0;
  {
    const obs::ScopedTelemetry telemetry;
    service::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.dispatchers = kDispatchers;
    cfg.max_queue_depth = 256;
    cfg.max_inflight_per_client = 8;
    service::CompressionService svc(cfg);
    net::ServiceServer server(svc);  // one ephemeral TCP loopback listener

    soak = run_soak(svc, server.endpoints().front(), elems);

    server.shutdown();
    const net::ServerStats ss = server.stats();
    srv_frames_in = ss.frames_in;
    srv_frames_out = ss.frames_out;
    srv_bytes_in = ss.bytes_in;
    srv_bytes_out = ss.bytes_out;
    srv_error_frames = ss.error_frames;
    srv_decode_rejects = ss.decode_rejects;
    svc.shutdown();
  }

  // Hard gates. The error-frame check crosses the wire: every error frame
  // the server sent was demuxed by exactly one soak client.
  const std::uint64_t expected = kClients * kRounds * 4;  // checked submits
  const bool bit_identical =
      soak.verified == expected && soak.responses == expected;
  const bool zero_lost = soak.accounting_ok &&
                         soak.responses == soak.submitted &&
                         soak.submitted == expected &&
                         srv_decode_rejects == 0 &&
                         soak.errors_received == srv_error_frames;
  const double throughput =
      soak.wall_s > 0 ? static_cast<double>(soak.responses) / soak.wall_s : 0;

  const ReconnectOutcome rec =
      run_reconnect(std::max<std::size_t>(kChunkElems + 512, elems / 2));
  const bool reconnect_converged = rec.observed_disconnect && rec.converged &&
                                   rec.bit_identical && rec.reconnects == 1;

  std::printf(
      "wire: %llu submitted, %llu responses, %llu verified (+%llu busy "
      "retries) => bit-identical: %s, zero lost: %s\n",
      static_cast<unsigned long long>(soak.submitted),
      static_cast<unsigned long long>(soak.responses),
      static_cast<unsigned long long>(soak.verified),
      static_cast<unsigned long long>(soak.busy_retries),
      bit_identical ? "yes" : "NO", zero_lost ? "yes" : "NO");
  std::printf(
      "server: %llu/%llu frames in/out, %llu/%llu bytes in/out, %llu error "
      "frames (clients received %llu), %llu decode rejects\n",
      static_cast<unsigned long long>(srv_frames_in),
      static_cast<unsigned long long>(srv_frames_out),
      static_cast<unsigned long long>(srv_bytes_in),
      static_cast<unsigned long long>(srv_bytes_out),
      static_cast<unsigned long long>(srv_error_frames),
      static_cast<unsigned long long>(soak.errors_received),
      static_cast<unsigned long long>(srv_decode_rejects));
  std::printf(
      "reconnect: disconnect observed: %s, converged: %s, bit-identical: "
      "%s, reconnects: %llu => gate: %s\n",
      rec.observed_disconnect ? "yes" : "NO", rec.converged ? "yes" : "NO",
      rec.bit_identical ? "yes" : "NO",
      static_cast<unsigned long long>(rec.reconnects),
      reconnect_converged ? "yes" : "NO");
  std::printf("throughput: %.1f wire round trips/s over %.2f s\n", throughput,
              soak.wall_s);

  const bool all_ok = bit_identical && zero_lost && reconnect_converged;
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: net soak property violated\n");
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
        "  \"benchmark\": \"net\",\n"
        "  \"scale\": %.4f,\n"
        "  \"clients\": %zu,\n"
        "  \"rounds\": %zu,\n"
        "  \"elems_per_client\": %zu,\n"
        "  \"workers\": %zu,\n"
        "  \"dispatchers\": %zu,\n"
        "  \"requests_submitted\": %llu,\n"
        "  \"responses\": %llu,\n"
        "  \"responses_verified\": %llu,\n"
        "  \"busy_retries\": %llu,\n"
        "  \"server_frames_in\": %llu,\n"
        "  \"server_frames_out\": %llu,\n"
        "  \"server_bytes_in\": %llu,\n"
        "  \"server_bytes_out\": %llu,\n"
        "  \"server_error_frames\": %llu,\n"
        "  \"reconnects\": %llu,\n"
        "  \"soak_wall_s\": %.6f,\n"
        "  \"wire_bit_identical\": %s,\n"
        "  \"zero_lost\": %s,\n"
        "  \"reconnect_converged\": %s,\n"
        "  \"throughput_roundtrips_per_s\": %.2f\n"
        "}\n",
        scale, kClients, kRounds, elems, kWorkers, kDispatchers,
        static_cast<unsigned long long>(soak.submitted),
        static_cast<unsigned long long>(soak.responses),
        static_cast<unsigned long long>(soak.verified),
        static_cast<unsigned long long>(soak.busy_retries),
        static_cast<unsigned long long>(srv_frames_in),
        static_cast<unsigned long long>(srv_frames_out),
        static_cast<unsigned long long>(srv_bytes_in),
        static_cast<unsigned long long>(srv_bytes_out),
        static_cast<unsigned long long>(srv_error_frames),
        static_cast<unsigned long long>(rec.reconnects), soak.wall_s,
        bit_identical ? "true" : "false", zero_lost ? "true" : "false",
        reconnect_converged ? "true" : "false", throughput);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  const char* json_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    }
  }
  return run(emit_json, json_path);
}

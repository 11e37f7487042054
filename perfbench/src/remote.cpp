// remote_reads: the service and wire layers driven from outside through
// ServiceClient over TCP loopback, with the server in this process.
#include "remote.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "machine.hpp"
#include "obs/metrics.hpp"
#include "rounds.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ohd;

namespace {

/// Sender poll slice: completions are stamped at most this long (plus wake-up
/// latency) after they land — well under the server's 200 us completer poll.
constexpr auto kPollSlice = std::chrono::microseconds(20);
/// How long after the last send outstanding requests may still complete.
constexpr std::uint64_t kDrainNs = 30'000'000'000ull;
/// Correctness messages kept per run (the counts are exact regardless).
constexpr int kMaxMessages = 8;

net::ServerConfig server_config(const std::string& unix_path) {
  net::ServerConfig cfg;
  cfg.listen.push_back(net::Endpoint::tcp(0));
  if (!unix_path.empty()) cfg.listen.push_back(net::Endpoint::unix_socket(unix_path));
  return cfg;
}

void record_failure(Report& report, int& messages, const std::string& why) {
  if (messages++ < kMaxMessages) report.fail(why);
}

}  // namespace

RemoteStack::RemoteStack(std::size_t chunk_elems, const std::string& unix_path,
                         std::size_t connections)
    : chunk_elems_(chunk_elems),
      svc_(service_config()),
      server_(svc_, server_config(unix_path)) {
  for (std::size_t i = 0; i < connections; ++i) {
    clients_.push_back(connect(net::Endpoint::Kind::Tcp));
  }
}

std::unique_ptr<net::ServiceClient> RemoteStack::connect(
    net::Endpoint::Kind kind) const {
  for (const net::Endpoint& ep : server_.endpoints()) {
    if (ep.kind != kind) continue;
    net::ClientConfig cfg;
    cfg.endpoint = ep;
    cfg.rel_error_bound = compressor_config().rel_error_bound;
    cfg.radius = compressor_config().radius;
    cfg.chunk_elems = chunk_elems_;
    return std::make_unique<net::ServiceClient>(cfg);
  }
  throw std::runtime_error("the server does not listen on that endpoint kind");
}

std::span<const float> ReadSet::expected(const ReadRequest& r) const {
  const std::vector<float>& f = decoded.at(r.field);
  if (r.is_range) {
    return std::span<const float>(f).subspan(r.elem_begin,
                                             r.elem_end - r.elem_begin);
  }
  const FieldLayout& l = layout.at(r.field);
  return std::span<const float>(f).subspan(l.chunk_offsets.at(r.chunk),
                                           l.chunk_size(r.chunk));
}

ReadSet prepare_reads(const Corpus& corpus, Report& report) {
  pipeline::ThreadPool pool(kWorkers);
  const pipeline::BatchScheduler sched(pool);
  ReadSet set;
  set.archive = compress_archive(sched, field_specs(corpus, kReadChunkElems));
  const pipeline::MemorySource source(set.archive);
  const pipeline::ArchiveReader reader(source);
  set.layout = archive_layout(reader);
  pipeline::BatchDecompressResult ref = sched.decompress(reader);
  set.sim_huffman_s = ref.phases.total();
  set.sim_total_s = ref.simulated_seconds;
  for (std::size_t f = 0; f < corpus.fields.size(); ++f) {
    if (!within_bound(corpus.fields[f].data, ref.fields[f].decode.data,
                      reader.fields()[f].abs_error_bound)) {
      report.fail("remote_reads: reference decode of " +
                  corpus.fields[f].name + " exceeds its error bound");
    }
    set.decoded.push_back(std::move(ref.fields[f].decode.data));
  }
  return set;
}

void drive_reads(RemoteStack& stack,
                 const std::vector<service::ArchiveHandle>& handles,
                 const ReadSet& refs, std::span<const ReadRequest> reqs,
                 std::size_t first, double rate, LoadResult& out,
                 Report& report) {
  const std::size_t conns = stack.connections();
  const std::uint64_t period_ns = static_cast<std::uint64_t>(1e9 / rate);
  // Fine-grained sleeps: without this the kernel may stretch each poll
  // slice by its default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  struct Pending {
    std::uint64_t intended_ns;
    ReadRequest req;
    std::future<std::vector<float>> future;
  };
  std::vector<Pending> pending;
  int messages = 0;
  std::uint64_t last_done = 0;
  auto settle = [&](Pending& p, std::uint64_t done_ns) {
    last_done = done_ns;
    bool ok = false;
    try {
      const std::vector<float> got = p.future.get();
      ok = same_floats(got, refs.expected(p.req));
      if (!ok) {
        record_failure(report, messages,
                       "remote_reads: response differs from the in-process "
                       "decode (field " + std::to_string(p.req.field) + ")");
      }
      const std::uint64_t bytes = got.size() * sizeof(float);
      out.bytes += bytes;
      if (ok) {
        out.response_gbps.push_back(  // bytes per ns
            static_cast<double>(bytes) /
            static_cast<double>(
                std::max<std::uint64_t>(done_ns - p.intended_ns, 1)));
      }
    } catch (const std::exception& e) {
      record_failure(report, messages,
                     std::string("remote_reads: request failed: ") + e.what());
    }
    if (!ok) ++out.failed;
    out.latency_ms.push_back(ok ? static_cast<double>(done_ns - p.intended_ns) *
                                      1e-6
                                : kFailedLatencyMs);
    out.latency_is_range.push_back(p.req.is_range);
  };
  auto poll = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const std::uint64_t done = obs::now_ns();
        settle(pending[i], done);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const std::uint64_t t0 = obs::now_ns() + 1'000'000;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t intended = t0 + i * period_ns;
    for (;;) {
      poll();
      const std::uint64_t now = obs::now_ns();
      if (now >= intended) break;
      std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
          kPollSlice, std::chrono::nanoseconds(intended - now)));
    }
    const std::size_t c = (first + i) % conns;
    const ReadRequest& req = reqs[i];
    ++out.attempted;
    out.lag_ms.push_back(static_cast<double>(obs::now_ns() - intended) * 1e-6);
    try {
      net::ServiceClient& client = stack.client(c);
      auto sub = req.is_range
                     ? client.submit_range(handles[c], req.field,
                                           req.elem_begin, req.elem_end)
                     : client.submit_chunk(handles[c], req.field, req.chunk);
      pending.push_back({intended, req, std::move(sub.future)});
    } catch (const std::exception& e) {
      ++out.failed;
      out.latency_ms.push_back(kFailedLatencyMs);
      out.latency_is_range.push_back(req.is_range);
      record_failure(report, messages,
                     std::string("remote_reads: submit refused: ") + e.what());
    }
  }
  const std::uint64_t drain_deadline = obs::now_ns() + kDrainNs;
  while (!pending.empty() && obs::now_ns() < drain_deadline) {
    poll();
    std::this_thread::sleep_for(kPollSlice);
  }
  for (const Pending& p : pending) {
    ++out.failed;
    out.latency_ms.push_back(kFailedLatencyMs);
    out.latency_is_range.push_back(p.req.is_range);
    record_failure(report, messages, "remote_reads: request never completed");
  }
  out.window_s += seconds_between(t0, std::max(last_done, t0 + 1));
}

namespace {

/// Repeats in-process compress ops of the served corpus on `sched` for
/// `seconds` (at least one op), appending each op's seconds; every archive
/// must equal the served one.
void time_compress(const pipeline::BatchScheduler& sched,
                   std::span<const pipeline::FieldSpec> specs,
                   const ReadSet& set, double seconds,
                   std::vector<double>& compress_s, Report& report) {
  const std::uint64_t end =
      obs::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t t0 = obs::now_ns();
    const std::vector<std::uint8_t> archive = compress_archive(sched, specs);
    compress_s.push_back(seconds_between(t0, obs::now_ns()));
    if (archive != set.archive) {
      report.fail("remote_reads: in-process compress is not repeatable");
    }
  } while (obs::now_ns() < end);
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// The traffic figures. Latency and decompress_gbps are the median over the
/// kept rounds of each round's exact value, so a slow spell too mild for the
/// steal gate that covers fewer than half of them does not move them. The
/// request counts cover every round; the pooled details, the kept ones.
void report_load(const std::vector<LoadResult>& rounds,
                 const std::vector<std::size_t>& kept, Report& report) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    attempted += rounds[k].attempted;
    failed += rounds[k].failed;
    const std::string round = "round." + std::to_string(k) + ".";
    report.detail(round + "latency_p50_ms", quantile(rounds[k].latency_ms, 0.50));
    report.detail(round + "lag_p99_ms", quantile(rounds[k].lag_ms, 0.99));
  }
  report.add_attempted(attempted);
  report.add_failed(failed);
  report.set("success_fraction",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(std::max<std::uint64_t>(attempted, 1)));

  LoadResult load;
  std::vector<double> p50, p99, gbps;
  for (const std::size_t k : kept) {
    const LoadResult& s = rounds[k];
    if (s.response_gbps.empty()) {
      throw std::runtime_error("a traffic round completed no request");
    }
    p50.push_back(quantile(s.latency_ms, 0.50));
    p99.push_back(quantile(s.latency_ms, 0.99));
    gbps.push_back(median(s.response_gbps));
    append(load.latency_ms, s.latency_ms);
    load.latency_is_range.insert(load.latency_is_range.end(),
                                 s.latency_is_range.begin(),
                                 s.latency_is_range.end());
    append(load.lag_ms, s.lag_ms);
    append(load.response_gbps, s.response_gbps);
    load.bytes += s.bytes;
    load.window_s += s.window_s;
  }
  report.set("latency_p50_ms", median(p50));
  report.set("latency_p99_ms", median(p99));
  report.set("decompress_gbps", median(gbps));
  report.detail("pooled.latency_p50_ms", quantile(load.latency_ms, 0.50));
  report.detail("pooled.latency_p99_ms", quantile(load.latency_ms, 0.99));
  report.detail("samples.latency", static_cast<double>(load.latency_ms.size()));
  report.detail("samples.decompress",
                static_cast<double>(load.response_gbps.size()));
  report.detail("samples.lag", static_cast<double>(load.lag_ms.size()));
  if (!load.lag_ms.empty()) {
    report.detail("loadgen.lag_p99_ms", quantile(load.lag_ms, 0.99));
    report.detail("loadgen.lag_max_ms", quantile(load.lag_ms, 1.0));
  }
  report.detail("window_s", load.window_s);
  report.detail("bytes_moved", static_cast<double>(load.bytes));
  // How the two request classes weigh on the latency figures.
  std::vector<double> by_class[2];
  double summed[2] = {0, 0};
  for (std::size_t i = 0; i < load.latency_ms.size(); ++i) {
    const bool range = load.latency_is_range[i];
    by_class[range].push_back(load.latency_ms[i]);
    if (load.latency_ms[i] < kFailedLatencyMs) summed[range] += load.latency_ms[i];
  }
  const char* names[2] = {"chunk", "range"};
  for (int k = 0; k < 2; ++k) {
    const std::string cls = names[k];
    report.detail("samples.latency_" + cls,
                  static_cast<double>(by_class[k].size()));
    if (!by_class[k].empty()) {
      report.detail("mix.latency_p50_ms_" + cls, quantile(by_class[k], 0.5));
    }
  }
  report.detail("mix.range_latency_share",
                summed[1] / std::max(summed[0] + summed[1], 1e-12));
}

/// The derived read mix, and the share of decoded elements the ranges of
/// the sent stream carried (the mix aims at one half).
void report_mix(const std::vector<FieldLayout>& layout, std::uint64_t seed,
                std::uint64_t sent, Report& report) {
  const ReadMix mix = read_mix(layout);
  report.detail("mix.range_share", mix.range_share);
  report.detail("mix.chunk_decoded_elems", mix.chunk_decoded_elems);
  report.detail("mix.range_decoded_elems", mix.range_decoded_elems);
  double decoded[2] = {0, 0};
  for (const ReadRequest& r :
       make_read_schedule(seed, layout, kConnections, sent)) {
    decoded[r.is_range] += static_cast<double>(decoded_elems(layout, r));
  }
  report.detail("mix.range_decoded_share",
                decoded[1] / std::max(decoded[0] + decoded[1], 1.0));
}

void report_stack(RemoteStack& stack, Report& report) {
  const service::ServiceStats s = stack.service().stats();
  const net::ServerStats n = stack.server().stats();
  report.detail("service.completed", static_cast<double>(s.completed));
  report.detail("service.rejected", static_cast<double>(s.rejected()));
  report.detail("service.queue_depth_peak", static_cast<double>(s.queue_depth_peak));
  report.detail("service.inflight_peak", static_cast<double>(s.inflight_peak));
  report.detail("net.error_frames", static_cast<double>(n.error_frames));
  report.detail("admission.max_queue_depth", static_cast<double>(kMaxQueueDepth));
  report.detail("admission.max_inflight_per_client",
                static_cast<double>(kMaxInflightPerClient));
}

}  // namespace

void run_remote_reads(const RunArgs& args, Report& report) {
  const Corpus corpus = make_corpus();
  const ReadSet refs = prepare_reads(corpus, report);
  report.set("compression_ratio", static_cast<double>(corpus.bytes()) /
                                      static_cast<double>(refs.archive.size()));
  report.set("sim_huffman_gbps",
             static_cast<double>(corpus.quant_code_bytes()) / refs.sim_huffman_s *
                 1e-9);
  report.set("sim_decompress_gbps",
             static_cast<double>(corpus.bytes()) / refs.sim_total_s * 1e-9);
  // compress_gbps: the pool of the in-process compress windows, built
  // outside set-up and the timed windows.
  pipeline::ThreadPool pool(kWorkers);
  const pipeline::BatchScheduler sched(pool);
  const auto specs = field_specs(corpus, kReadChunkElems);

  // Set-up: service, server, connections, archive upload + open on every
  // connection (handles are connection-scoped), one verified chunk read and
  // one range read per connection.
  std::vector<double> setup_s;
  std::unique_ptr<RemoteStack> stack;
  std::vector<service::ArchiveHandle> handles;
  const ReadRequest warm_chunk{false, 0, 0, 0, 0};
  const ReadRequest warm_range{true, 0, 0, 1000, 9000};
  for (int s = 0; s < kSetupRepeats; ++s) {
    stack.reset();
    handles.clear();
    const std::uint64_t t0 = obs::now_ns();
    stack = std::make_unique<RemoteStack>(kReadChunkElems, "", kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      handles.push_back(stack->client(c).open_archive(refs.archive));
      auto chunk = stack->client(c).submit_chunk(handles[c], 0, 0);
      auto range = stack->client(c).submit_range(
          handles[c], 0, warm_range.elem_begin, warm_range.elem_end);
      const std::vector<float> a = chunk.get();
      const std::vector<float> b = range.get();
      if (!same_floats(a, refs.expected(warm_chunk)) ||
          !same_floats(b, refs.expected(warm_range))) {
        report.fail("remote_reads: warm-up response differs from reference");
      }
    }
    setup_s.push_back(seconds_between(t0, obs::now_ns()));
  }
  report.set("setup_s", median(setup_s));
  report.detail("samples.setup", static_cast<double>(setup_s.size()));
  report.detail("peak_rss_mb.after_setup", peak_rss_mib());
  report.detail("offered_rate_per_s", kReadRate);

  // Steal-gated rounds, each an in-process compress window and then a
  // stretch of traffic that sends the next slice of the one seeded request
  // list and waits for its last response.
  const double window_s = args.seconds * kCompressShare / kRounds;
  const auto per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds * (1.0 - kCompressShare) *
                                  kReadRate / kRounds));
  const std::vector<ReadRequest> reqs =
      make_read_schedule(args.seed, refs.layout, kConnections,
                         per_round * (kRounds + kMaxExtraRounds));
  std::vector<double> window_median_s;
  std::vector<LoadResult> rounds;
  std::size_t compress_ops = 0;
  const std::vector<std::size_t> kept = run_rounds(
      [&](std::size_t i) {
        std::vector<double> compress_s;
        time_compress(sched, specs, refs, window_s, compress_s, report);
        window_median_s.push_back(median(compress_s));
        compress_ops += compress_s.size();
        drive_reads(*stack, handles, refs,
                    std::span(reqs).subspan(i * per_round, per_round),
                    i * per_round, kReadRate, rounds.emplace_back(), report);
      },
      report);
  report_load(rounds, kept, report);
  report_stack(*stack, report);
  stack.reset();
  report_mix(refs.layout, args.seed, report.attempted(), report);
  // Like the traffic figures, a median over the kept rounds: of each
  // round's median compress op.
  std::vector<double> kept_window_s;
  for (const std::size_t k : kept) kept_window_s.push_back(window_median_s[k]);
  report.set("compress_gbps", per_op_median_gbps(corpus.bytes(), kept_window_s));
  report.detail("samples.compress", static_cast<double>(compress_ops));
}

}  // namespace perfbench

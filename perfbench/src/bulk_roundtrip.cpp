// bulk_roundtrip: one caller, closed loop, in process. Each op compresses
// the whole corpus (one chunk per field) through BatchScheduler::compress_to
// into a v3 MemorySink, then decompresses it through ArchiveReader +
// BatchScheduler::decompress on the same 2-worker pool, in steal-gated
// rounds (rounds.hpp). The corpus is fixed,
// so compression_ratio and the sim_* model figures repeat exactly; the seed
// is printed and selects nothing.
#include <memory>
#include <stdexcept>

#include "corpus.hpp"
#include "obs/metrics.hpp"
#include "rounds.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ohd;

namespace {

/// Checks one op against the reference op (the first one): identical archive
/// bytes, identical floats, identical simulated seconds.
bool matches_reference(const RoundTrip& op, const RoundTrip& ref) {
  return same_output(op, ref) &&
         op.decoded.simulated_seconds == ref.decoded.simulated_seconds &&
         op.decoded.phases.total() == ref.decoded.phases.total();
}

}  // namespace

void run_bulk_roundtrip(const RunArgs& args, Report& report) {
  const Corpus corpus = make_corpus();
  const auto specs = field_specs(corpus, kWholeFieldElems);

  // Set-up: pool construction plus one warm-up op, repeated; the last pool
  // serves the timed loop. The first warm-up op is the reference every later
  // op must reproduce bit for bit, after its floats pass the bound check.
  std::vector<double> setup_s;
  std::unique_ptr<pipeline::ThreadPool> pool;
  RoundTrip ref;
  for (int s = 0; s < kSetupRepeats; ++s) {
    pool.reset();
    const std::uint64_t t0 = obs::now_ns();
    pool = std::make_unique<pipeline::ThreadPool>(kWorkers);
    const pipeline::BatchScheduler sched(*pool);
    RoundTrip warm = round_trip(sched, specs);
    setup_s.push_back(seconds_between(t0, obs::now_ns()));
    if (s == 0) {
      ref = std::move(warm);
      for (std::size_t f = 0; f < corpus.fields.size(); ++f) {
        const double eb =
            sz::resolve_error_bound(corpus.fields[f].data,
                                    compressor_config().rel_error_bound);
        if (!within_bound(corpus.fields[f].data,
                          ref.decoded.fields[f].decode.data, eb)) {
          report.fail("bulk_roundtrip: field " + corpus.fields[f].name +
                      " exceeds its error bound");
        }
      }
    } else if (!matches_reference(warm, ref)) {
      report.fail("bulk_roundtrip: warm-up op differs from the first op");
    }
  }
  const pipeline::BatchScheduler sched(*pool);

  // Steal-gated rounds; the timings of the kept rounds are pooled.
  struct RoundOps {
    std::vector<double> compress_s, decompress_s, op_ms;
  };
  std::vector<RoundOps> rounds;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  const auto round_ns = static_cast<std::uint64_t>(args.seconds / kRounds * 1e9);
  const std::vector<std::size_t> kept = run_rounds(
      [&](std::size_t) {
        RoundOps& r = rounds.emplace_back();
        const std::uint64_t deadline = obs::now_ns() + round_ns;
        while (obs::now_ns() < deadline) {
          ++ops;
          try {
            const RoundTrip op = round_trip(sched, specs);
            r.compress_s.push_back(op.compress_s);
            r.decompress_s.push_back(op.decompress_s);
            r.op_ms.push_back((op.compress_s + op.decompress_s) * 1e3);
            if (!matches_reference(op, ref)) {
              ++failed;
              report.fail("bulk_roundtrip: op " + std::to_string(ops) +
                          " differs from the first op");
            }
          } catch (const std::exception& e) {
            ++failed;
            r.op_ms.push_back(kFailedLatencyMs);
            report.fail(std::string("bulk_roundtrip: op threw: ") + e.what());
          }
        }
      },
      report);
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
  std::vector<double> op_ms;
  for (const std::size_t k : kept) {
    const RoundOps& r = rounds[k];
    compress_s.insert(compress_s.end(), r.compress_s.begin(), r.compress_s.end());
    decompress_s.insert(decompress_s.end(), r.decompress_s.begin(),
                        r.decompress_s.end());
    op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
  }
  if (compress_s.empty()) throw std::runtime_error("no op completed");

  report.add_attempted(ops);
  report.add_failed(failed);
  report.set("setup_s", median(setup_s));
  report.set("success_fraction",
             static_cast<double>(ops - failed) / static_cast<double>(ops));
  report.set("compress_gbps", per_op_median_gbps(corpus.bytes(), compress_s));
  report.set("decompress_gbps",
             per_op_median_gbps(corpus.bytes(), decompress_s));
  report.set("compression_ratio", static_cast<double>(corpus.bytes()) /
                                      static_cast<double>(ref.archive.size()));
  report.set("sim_huffman_gbps",
             static_cast<double>(corpus.quant_code_bytes()) /
                 ref.decoded.phases.total() * 1e-9);
  report.set("sim_decompress_gbps", static_cast<double>(corpus.bytes()) /
                                        ref.decoded.simulated_seconds * 1e-9);
  report.set("latency_p50_ms", quantile(op_ms, 0.50));
  report.set("latency_p99_ms", quantile(op_ms, 0.99));
  report.detail("ops", static_cast<double>(ops));
  report.detail("samples.latency", static_cast<double>(op_ms.size()));
  report.detail("samples.compress", static_cast<double>(compress_s.size()));
  report.detail("samples.decompress", static_cast<double>(decompress_s.size()));
  report.detail("samples.setup", static_cast<double>(setup_s.size()));
  report.detail("corpus_bytes", static_cast<double>(corpus.bytes()));
  report.detail("archive_bytes", static_cast<double>(ref.archive.size()));
}

}  // namespace perfbench

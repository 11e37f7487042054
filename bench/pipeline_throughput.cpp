// Batch-pipeline workload driver: builds a mixed five-field corpus from the
// generic symbol-stream generators (uniform / geometric / zipf / markov /
// quant, each shaped into a float field via a random walk so its Lorenzo
// increments follow the flavor's distribution), compresses it into a chunked
// container, then sweeps worker counts and chunk sizes over batch
// decompression.
//
// Every chunk-size point builds the archive TWICE: with per-chunk private
// codebooks (the PR 2 baseline) and with adaptive planning (per-chunk method
// selection + field-level shared codebooks). The bytes-per-chunk curve of
// both is reported; at the smallest chunk size the shared-codebook archive
// must be strictly smaller — amortizing the per-chunk codebook bytes is the
// whole point of the field-level book.
//
// Two throughput views are reported for every sweep point:
//  * simulated — corpus bytes over the deterministic simulated-GPU batch
//    makespan (BatchDecompressResult::makespan, list-scheduled over N
//    virtual workers); machine-independent, this is the scaling headline;
//  * host — corpus bytes over the measured wall time of the functional
//    simulation on the ThreadPool (scales only with physical cores).
// Every multi-threaded run is verified bit-identical to the 1-worker run
// (the sweep decodes the ADAPTIVE archive, so shared-codebook and
// auto-method chunks are what the identity check covers).
//
//   ./bench_pipeline_throughput            # table on stdout
//   ./bench_pipeline_throughput --json [path]   # also write BENCH_pipeline.json
//
// OHD_BENCH_SCALE scales the corpus (default 1.0 => ~1.3M elements; CI smoke
// uses 0.05).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/generic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace ohd;

double bench_scale() {
  if (const char* env = std::getenv("OHD_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Integrates a symbol stream into a float field: increments follow the
/// stream's distribution, so the Lorenzo-quantized codes of the field mirror
/// the flavor's entropy.
std::vector<float> walk_field(const std::vector<std::uint16_t>& stream,
                              std::uint32_t alphabet) {
  std::vector<float> out(stream.size());
  const double mid = alphabet / 2.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    acc += (static_cast<double>(stream[i]) - mid) * 1e-3;
    out[i] = static_cast<float>(acc);
  }
  return out;
}

struct CorpusField {
  std::string flavor;
  std::vector<float> data;
  sz::Dims dims;
  sz::CompressorConfig config;
};

std::vector<CorpusField> make_corpus(double scale) {
  const auto n1 = static_cast<std::size_t>(262144 * scale);
  // 2-D/3-D fields need exact extents; round to the plane sizes used below.
  const std::size_t planes2d = std::max<std::size_t>(4, n1 / 256);
  const std::size_t planes3d = std::max<std::size_t>(2, n1 / 2048);

  std::vector<CorpusField> corpus;
  auto add = [&corpus](std::string flavor, std::vector<std::uint16_t> stream,
                       std::uint32_t alphabet, sz::Dims dims, core::Method m,
                       double rel_eb) {
    CorpusField f;
    f.flavor = std::move(flavor);
    f.data = walk_field(stream, alphabet);
    f.dims = dims;
    f.config.method = m;
    f.config.rel_error_bound = rel_eb;
    corpus.push_back(std::move(f));
  };

  add("uniform", data::uniform_stream(n1, 64, 101), 64, sz::Dims::d1(n1),
      core::Method::SelfSyncOptimized, 1e-3);
  add("geometric",
      data::geometric_stream(256 * planes2d, 512, 0.15, 102), 512,
      sz::Dims::d2(256, planes2d), core::Method::GapArrayOptimized, 1e-3);
  add("zipf", data::zipf_stream(n1, 512, 1.1, 103), 512, sz::Dims::d1(n1),
      core::Method::CuszNaive, 1e-4);
  add("markov",
      data::markov_stream(64 * 32 * planes3d, 256, 0.005, 104), 256,
      sz::Dims::d3(64, 32, planes3d), core::Method::GapArrayOptimized, 5e-3);
  add("quant", data::quant_code_stream(256 * planes2d, 1024, 40.0, 105),
      1024, sz::Dims::d2(256, planes2d), core::Method::SelfSyncOriginal, 1e-3);
  return corpus;
}

struct SweepPoint {
  std::size_t chunk_divisor = 0;
  std::size_t num_chunks = 0;
  std::size_t threads = 0;
  double host_wall_s = 0.0;
  double sim_makespan_s = 0.0;
  double sim_gbps = 0.0;
  double host_gbps = 0.0;
  bool identical = false;
};

bool results_identical(const pipeline::BatchDecompressResult& a,
                       const pipeline::BatchDecompressResult& b) {
  if (a.chunk_seconds != b.chunk_seconds) return false;
  if (a.simulated_seconds != b.simulated_seconds) return false;
  if (a.fields.size() != b.fields.size()) return false;
  for (std::size_t i = 0; i < a.fields.size(); ++i) {
    if (a.fields[i].decode.data != b.fields[i].decode.data) return false;
  }
  return true;
}

/// Archive-size comparison of one chunk-size point: the same corpus with
/// per-chunk private codebooks vs adaptive planning (auto method + shared
/// codebooks).
struct ArchivePoint {
  std::size_t chunk_divisor = 0;
  std::size_t num_chunks = 0;
  std::size_t private_bytes = 0;
  std::size_t adaptive_bytes = 0;
  std::size_t method_counts[5] = {0, 0, 0, 0, 0};  // by core::Method tag
  std::size_t shared_ref_chunks = 0;

  double bytes_per_chunk_private() const {
    return static_cast<double>(private_bytes) /
           static_cast<double>(num_chunks);
  }
  double bytes_per_chunk_adaptive() const {
    return static_cast<double>(adaptive_bytes) /
           static_cast<double>(num_chunks);
  }
};

int run(bool emit_json, const char* json_path) {
  const double scale = bench_scale();
  const auto corpus = make_corpus(scale);
  std::uint64_t corpus_bytes = 0;
  for (const auto& f : corpus) corpus_bytes += f.data.size() * 4;
  std::printf("corpus: %zu fields, %.2f MB (scale %.3g)\n", corpus.size(),
              static_cast<double>(corpus_bytes) / 1e6, scale);

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  // Chunks per field, roughly; 64 produces the smallest chunks, where the
  // per-chunk codebook overhead is at its worst.
  const std::size_t chunk_divisors[] = {64, 16, 4};

  std::vector<SweepPoint> points;
  std::vector<ArchivePoint> archives;
  double sim_speedup_4t = 0.0;
  double host_speedup_4t = 0.0;
  bool all_identical = true;

  for (const std::size_t divisor : chunk_divisors) {
    std::vector<pipeline::FieldSpec> specs;
    for (const auto& f : corpus) {
      pipeline::FieldSpec spec;
      spec.name = f.flavor;
      spec.data = f.data;
      spec.dims = f.dims;
      spec.config = f.config;
      spec.chunk_elems = std::max<std::size_t>(512, f.data.size() / divisor);
      specs.push_back(spec);
    }

    pipeline::ThreadPool build_pool(0);
    ArchivePoint ap;
    ap.chunk_divisor = divisor;
    ap.private_bytes =
        pipeline::BatchScheduler(build_pool).compress(specs).size();
    for (auto& spec : specs) {
      spec.plan.auto_method = true;
      spec.plan.shared_codebook = true;
    }
    const std::vector<std::uint8_t> archive =
        pipeline::BatchScheduler(build_pool).compress(specs);
    const pipeline::MemorySource source(archive);
    const pipeline::ArchiveReader reader(source);
    ap.adaptive_bytes = archive.size();
    std::size_t num_chunks = 0;
    for (const auto& f : reader.fields()) {
      num_chunks += f.chunks.size();
      for (const auto& rec : f.chunks) {
        ap.method_counts[static_cast<std::size_t>(rec.method)]++;
        ap.shared_ref_chunks +=
            rec.codebook_ref == pipeline::CodebookRef::SharedField;
      }
    }
    ap.num_chunks = num_chunks;
    archives.push_back(ap);
    std::printf(
        "chunks=%-3zu archive: private %zu B, adaptive %zu B "
        "(%.1f%% smaller; %zu/%zu chunks on the shared book)\n",
        num_chunks, ap.private_bytes, ap.adaptive_bytes,
        100.0 * (1.0 - static_cast<double>(ap.adaptive_bytes) /
                           static_cast<double>(ap.private_bytes)),
        ap.shared_ref_chunks, num_chunks);

    pipeline::ThreadPool ref_pool(1);
    util::WallTimer ref_timer;
    const pipeline::BatchDecompressResult reference =
        pipeline::BatchScheduler(ref_pool).decompress(reader);
    const double ref_wall = ref_timer.seconds();

    for (const std::size_t threads : thread_counts) {
      SweepPoint p;
      p.chunk_divisor = divisor;
      p.num_chunks = num_chunks;
      p.threads = threads;
      if (threads == 1) {
        p.host_wall_s = ref_wall;
        p.identical = true;
      } else {
        pipeline::ThreadPool pool(threads);
        util::WallTimer timer;
        const pipeline::BatchDecompressResult r =
            pipeline::BatchScheduler(pool).decompress(reader);
        p.host_wall_s = timer.seconds();
        p.identical = results_identical(r, reference);
      }
      p.sim_makespan_s = reference.makespan(threads);
      p.sim_gbps = util::throughput_gbps(corpus_bytes, p.sim_makespan_s);
      p.host_gbps = util::throughput_gbps(corpus_bytes, p.host_wall_s);
      all_identical = all_identical && p.identical;
      points.push_back(p);
      std::printf(
          "chunks=%-3zu workers=%zu  sim %8.3f ms (%6.2f GB/s)  host %8.1f ms "
          "(%.3f GB/s)  identical=%s\n",
          num_chunks, threads, p.sim_makespan_s * 1e3, p.sim_gbps,
          p.host_wall_s * 1e3, p.host_gbps, p.identical ? "yes" : "NO");
    }

    // The headline scaling number comes from the finer chunking (more
    // chunks => better load balance on the simulated workers).
    if (divisor == 16) {
      sim_speedup_4t = reference.makespan(1) / reference.makespan(4);
      double wall_4t = 0.0;
      for (const auto& p : points) {
        if (p.chunk_divisor == divisor && p.threads == 4) {
          wall_4t = p.host_wall_s;
        }
      }
      host_speedup_4t = wall_4t > 0.0 ? ref_wall / wall_4t : 0.0;
    }
  }

  std::printf("simulated decompress speedup at 4 workers: %.2fx (host %.2fx)\n",
              sim_speedup_4t, host_speedup_4t);
  // The smallest chunk size is where per-chunk codebooks hurt the most; the
  // shared-codebook archive must be STRICTLY smaller there.
  const ArchivePoint& smallest = archives.front();
  const bool shared_smaller = smallest.adaptive_bytes < smallest.private_bytes;
  std::printf(
      "smallest chunks (%zu): %.1f B/chunk private vs %.1f B/chunk adaptive "
      "=> shared codebooks %s\n",
      smallest.num_chunks, smallest.bytes_per_chunk_private(),
      smallest.bytes_per_chunk_adaptive(),
      shared_smaller ? "win" : "DO NOT WIN");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: multi-threaded decompress diverged from sequential\n");
    return 1;
  }
  if (!shared_smaller) {
    std::fprintf(stderr,
                 "FAIL: shared-codebook archive is not smaller than the "
                 "per-chunk-codebook archive at the smallest chunk size\n");
    return 1;
  }

  // Telemetry block for the report: one instrumented 4-worker decompress at
  // the middle chunking, kept OUT of the timed sweep above so the measured
  // walls stay un-instrumented. The snapshot gives the report per-phase
  // latency quantiles and chunk counts alongside the throughput numbers.
  std::string telemetry_snapshot;
  std::size_t telemetry_spans = 0;
  {
    std::vector<pipeline::FieldSpec> specs;
    for (const auto& f : corpus) {
      pipeline::FieldSpec spec;
      spec.name = f.flavor;
      spec.data = f.data;
      spec.dims = f.dims;
      spec.config = f.config;
      spec.chunk_elems = std::max<std::size_t>(512, f.data.size() / 16);
      spec.plan.auto_method = true;
      spec.plan.shared_codebook = true;
      specs.push_back(spec);
    }
    pipeline::ThreadPool pool(4);
    const std::vector<std::uint8_t> archive =
        pipeline::BatchScheduler(pool).compress(specs);
    const pipeline::MemorySource source(archive);
    const pipeline::ArchiveReader reader(source);
    obs::TraceRecorder rec;
    const obs::ScopedTelemetry scope(&rec);
    pipeline::BatchScheduler(pool).decompress(reader);
    telemetry_snapshot = obs::registry().snapshot().to_json(4);
    telemetry_spans = rec.spans().size();
  }

  if (emit_json) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"pipeline_throughput\",\n"
                 "  \"corpus_fields\": %zu,\n"
                 "  \"corpus_bytes\": %llu,\n"
                 "  \"scale\": %.4f,\n"
                 "  \"all_identical\": %s,\n"
                 "  \"sim_decompress_speedup_4_workers\": %.3f,\n"
                 "  \"host_decompress_speedup_4_workers\": %.3f,\n"
                 "  \"shared_codebook_smaller_at_smallest_chunk\": %s,\n"
                 "  \"shared_codebook_savings_at_smallest_chunk\": %.4f,\n"
                 "  \"telemetry\": {\n"
                 "    \"trace_spans\": %zu,\n"
                 "    \"snapshot\": %s\n"
                 "  },\n"
                 "  \"archives\": [\n",
                 corpus.size(),
                 static_cast<unsigned long long>(corpus_bytes), scale,
                 all_identical ? "true" : "false", sim_speedup_4t,
                 host_speedup_4t, shared_smaller ? "true" : "false",
                 1.0 - static_cast<double>(smallest.adaptive_bytes) /
                           static_cast<double>(smallest.private_bytes),
                 telemetry_spans, telemetry_snapshot.c_str());
    for (std::size_t i = 0; i < archives.size(); ++i) {
      const ArchivePoint& a = archives[i];
      std::fprintf(
          f,
          "    {\"chunk_divisor\": %zu, \"num_chunks\": %zu, "
          "\"private_bytes\": %zu, \"adaptive_bytes\": %zu, "
          "\"bytes_per_chunk_private\": %.1f, "
          "\"bytes_per_chunk_adaptive\": %.1f, "
          "\"shared_ref_chunks\": %zu, "
          "\"method_counts\": [%zu, %zu, %zu, %zu, %zu]}%s\n",
          a.chunk_divisor, a.num_chunks, a.private_bytes, a.adaptive_bytes,
          a.bytes_per_chunk_private(), a.bytes_per_chunk_adaptive(),
          a.shared_ref_chunks, a.method_counts[0], a.method_counts[1],
          a.method_counts[2], a.method_counts[3], a.method_counts[4],
          i + 1 < archives.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(f,
                   "    {\"num_chunks\": %zu, \"workers\": %zu, "
                   "\"sim_makespan_s\": %.9f, \"sim_gbps\": %.3f, "
                   "\"host_wall_s\": %.6f, \"host_gbps\": %.4f, "
                   "\"identical\": %s}%s\n",
                   p.num_chunks, p.threads, p.sim_makespan_s, p.sim_gbps,
                   p.host_wall_s, p.host_gbps, p.identical ? "true" : "false",
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  const char* json_path = "BENCH_pipeline.json";
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

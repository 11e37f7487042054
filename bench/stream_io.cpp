// Streaming archive IO driver: measures the ArchiveWriter/ArchiveReader
// sessions over files against the whole-buffer path (one resident archive
// image) on a mixed corpus.
//
// Two properties are benchmarked and gated:
//  * bounded residency — a streaming decompress must never materialize the
//    archive: the reader keeps only head+index+footer resident and at most
//    one in-flight frame per worker (ArchiveReader::peak_frame_bytes() is
//    the measured high-water mark, checked against workers * max frame);
//    the whole-buffer path, by construction, holds every archive byte.
//  * IO/compute overlap — the streamed decompress fetches frames inside the
//    decode tasks, so file IO overlaps ThreadPool decode; the staged path
//    reads the whole file into memory, opens a reader over those bytes, then
//    decodes. The wall-clock ratio is reported (near 1.0 when the page cache
//    hides IO, higher on cold/slow storage).
//  * fault-tolerance happy path — the default strict mode pays nothing for
//    the recovery machinery: the default writer output stays byte-identical
//    to the whole-buffer image (happy_path_archive_overhead_fraction == 0),
//    and even on an archive written with recovery preambles a strict decode
//    reads exactly the plain archive's worth of bytes
//    (strict_decode_read_amplification == 1.0, guarded at < 2%). The opt-in
//    preamble storage cost is reported alongside
//    (recovery_preamble_overhead_fraction; ~66 B per chunk, so a few percent
//    on this highly-compressible corpus and sub-percent on large frames).
//
// Floats are verified bit-identical between the streamed and whole-buffer
// decompress before anything is reported.
//
//  * telemetry overhead — the streamed decompress runs in interleaved pairs,
//    plain and with the full observability stack live (process-wide enable
//    flag, installed trace recorder), until each side has ~0.25 s of timed
//    work; the median per-pair ratio minus one is guarded (< 2% budget,
//    wall-clock tolerance on top) so instrumentation can never silently tax
//    the hot path.
//
//   ./bench_stream_io                    # table on stdout
//   ./bench_stream_io --json [path]      # also write BENCH_stream.json
//   ./bench_stream_io --trace [path]     # Chrome trace of a streamed decode
//   ./bench_stream_io --snapshot [path]  # obs::Snapshot JSON of that decode
//
// OHD_BENCH_SCALE scales the corpus (default 1.0 => ~1.0M elements; CI smoke
// uses 0.05). The scratch archive lands in /tmp.
#include <algorithm>
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

constexpr std::size_t kWorkers = 4;
constexpr int kReps = 3;

double bench_scale() {
  if (const char* env = std::getenv("OHD_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Integrates a symbol stream into a float field (same shaping as
/// bench_pipeline_throughput): Lorenzo increments follow the stream's
/// distribution, so the corpus spans the compressibility range.
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
  std::string name;
  std::vector<float> data;
  sz::Dims dims;
  sz::CompressorConfig config;
  bool adaptive = false;
};

std::vector<CorpusField> make_corpus(double scale) {
  const auto n1 = static_cast<std::size_t>(262144 * scale);
  const std::size_t planes2d = std::max<std::size_t>(8, n1 / 256);

  std::vector<CorpusField> corpus;
  auto add = [&corpus](std::string name, std::vector<std::uint16_t> stream,
                       std::uint32_t alphabet, sz::Dims dims, core::Method m,
                       double rel_eb, bool adaptive) {
    CorpusField f;
    f.name = std::move(name);
    f.data = walk_field(stream, alphabet);
    f.dims = dims;
    f.config.method = m;
    f.config.rel_error_bound = rel_eb;
    f.adaptive = adaptive;
    corpus.push_back(std::move(f));
  };

  add("uniform", data::uniform_stream(n1, 64, 201), 64, sz::Dims::d1(n1),
      core::Method::SelfSyncOptimized, 1e-3, false);
  add("zipf", data::zipf_stream(n1, 512, 1.1, 202), 512, sz::Dims::d1(n1),
      core::Method::GapArrayOptimized, 1e-4, true);
  add("geometric", data::geometric_stream(256 * planes2d, 512, 0.15, 203),
      512, sz::Dims::d2(256, planes2d), core::Method::GapArrayOptimized,
      1e-3, true);
  add("markov", data::markov_stream(n1, 256, 0.005, 204), 256,
      sz::Dims::d1(n1), core::Method::CuszNaive, 5e-3, false);
  return corpus;
}

bool floats_identical(const pipeline::BatchDecompressResult& a,
                      const pipeline::BatchDecompressResult& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (std::size_t i = 0; i < a.fields.size(); ++i) {
    if (a.fields[i].decode.data != b.fields[i].decode.data) return false;
  }
  return true;
}

int run(bool emit_json, const char* json_path, const char* trace_path,
        const char* snapshot_path) {
  const double scale = bench_scale();
  const auto corpus = make_corpus(scale);
  std::uint64_t corpus_bytes = 0;
  std::vector<pipeline::FieldSpec> specs;
  for (const auto& f : corpus) {
    corpus_bytes += f.data.size() * 4;
    pipeline::FieldSpec spec;
    spec.name = f.name;
    spec.data = f.data;
    spec.dims = f.dims;
    spec.config = f.config;
    spec.chunk_elems = std::max<std::size_t>(512, f.data.size() / 32);
    spec.plan.auto_method = f.adaptive;
    spec.plan.shared_codebook = f.adaptive;
    specs.push_back(spec);
  }
  std::printf("corpus: %zu fields, %.2f MB (scale %.3g), %zu workers\n",
              corpus.size(), static_cast<double>(corpus_bytes) / 1e6, scale,
              kWorkers);

  pipeline::ThreadPool pool(kWorkers);
  const pipeline::BatchScheduler sched(pool);
  const std::string path = "/tmp/ohd_stream_bench.bin";

  // Whole-buffer write: compress into one resident archive image (every
  // archive byte lives in memory before it could reach a sink).
  util::WallTimer whole_write_timer;
  const std::vector<std::uint8_t> whole_bytes = sched.compress(specs);
  const double whole_write_wall = whole_write_timer.seconds();

  // Streaming write: frames hit the file as their futures complete; writer
  // state is just the index.
  util::WallTimer stream_write_timer;
  std::uint64_t stream_archive_bytes = 0;
  {
    pipeline::FileSink sink(path);
    pipeline::ArchiveWriter writer(sink);
    sched.compress_to(writer, specs);
    stream_archive_bytes = writer.finish();
  }
  const double stream_write_wall = stream_write_timer.seconds();
  if (stream_archive_bytes != whole_bytes.size()) {
    std::fprintf(stderr,
                 "FAIL: streamed archive (%llu B) != whole-buffer archive "
                 "(%zu B)\n",
                 static_cast<unsigned long long>(stream_archive_bytes),
                 whole_bytes.size());
    return 1;
  }

  // Reference floats from the whole-buffer image.
  const pipeline::MemorySource whole_source(whole_bytes);
  const pipeline::BatchDecompressResult reference =
      sched.decompress(pipeline::ArchiveReader(whole_source));

  // Staged decode: read the whole file, open a reader over the bytes, then
  // decompress — IO, parse, and compute serialized behind full archive
  // residency.
  double staged_wall = 1e300;
  pipeline::BatchDecompressResult staged;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer t;
    std::vector<std::uint8_t> bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      if (!f) {
        std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
        return 1;
      }
      bytes.resize(stream_archive_bytes);
      const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
      if (got != bytes.size()) {
        std::fprintf(stderr, "short read of %s\n", path.c_str());
        return 1;
      }
    }
    const pipeline::MemorySource staged_source(bytes);
    staged = sched.decompress(pipeline::ArchiveReader(staged_source));
    staged_wall = std::min(staged_wall, t.seconds());
  }

  // Streamed decode: footer-first open, frames fetched inside the decode
  // tasks — IO overlaps decode, residency stays bounded.
  const pipeline::FileSource source(path);
  const pipeline::ArchiveReader reader(source);
  double stream_wall = 1e300;
  pipeline::BatchDecompressResult streamed;
  for (int rep = 0; rep < kReps; ++rep) {
    util::WallTimer t;
    streamed = sched.decompress(reader);
    stream_wall = std::min(stream_wall, t.seconds());
  }

  // Telemetry overhead: the streamed decompress plain and with the full
  // observability stack live, in interleaved pairs of alternating order, so
  // drift in machine speed hits both sides alike; a single smoke-scale
  // decompress takes ~2 ms, so min-of-5 comparisons were run-to-run noise.
  // The flag flip, registry reset and recorder clear stay outside the timed
  // regions. The snapshot and trace are the last instrumented run's, so
  // they describe exactly one streamed decompress.
  constexpr double kOverheadBudgetS = 0.25;
  constexpr std::size_t kMinOverheadPairs = 5;
  obs::TraceRecorder recorder;
  pipeline::BatchDecompressResult traced;
  obs::Snapshot snapshot;
  std::vector<double> pair_ratios;
  double plain_total = 0.0;
  double telemetry_total = 0.0;
  const auto timed_plain = [&] {
    util::WallTimer t;
    streamed = sched.decompress(reader);
    return t.seconds();
  };
  const auto timed_instrumented = [&] {
    recorder.clear();
    const obs::ScopedTelemetry scope(&recorder);  // resets the registry
    util::WallTimer t;
    traced = sched.decompress(reader);
    const double wall = t.seconds();
    snapshot = obs::registry().snapshot();
    return wall;
  };
  while (pair_ratios.size() < kMinOverheadPairs ||
         std::min(plain_total, telemetry_total) < kOverheadBudgetS) {
    double plain = 0.0;
    double instrumented = 0.0;
    if (pair_ratios.size() % 2 == 0) {
      plain = timed_plain();
      instrumented = timed_instrumented();
    } else {
      instrumented = timed_instrumented();
      plain = timed_plain();
    }
    plain_total += plain;
    telemetry_total += instrumented;
    pair_ratios.push_back(instrumented / plain);
  }
  const double plain_wall = plain_total / pair_ratios.size();
  const double telemetry_wall = telemetry_total / pair_ratios.size();
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const std::size_t mid = pair_ratios.size() / 2;
  const double telemetry_overhead =
      (pair_ratios.size() % 2 != 0
           ? pair_ratios[mid]
           : 0.5 * (pair_ratios[mid - 1] + pair_ratios[mid])) -
      1.0;
  const std::string snapshot_json = snapshot.to_json(4);
  const std::size_t trace_spans = recorder.spans().size();

  // Fault-tolerance happy path: the same corpus written once more with
  // recovery preambles (WriterOptions::recovery_preambles). Two properties
  // are gated so the opt-in stays effectively free when nothing fails:
  //  * archive growth stays under the 2% budget, and
  //  * a strict decode never touches a preamble byte — index entries address
  //    the frame past its preamble, so read traffic over the preambled
  //    archive equals the plain archive size exactly (amplification 1.0,
  //    deterministic).
  pipeline::MemorySink pre_sink;
  {
    pipeline::ArchiveWriter pre_writer(pre_sink, {.recovery_preambles = true});
    sched.compress_to(pre_writer, specs);
    pre_writer.finish();
  }
  const double preamble_overhead =
      (static_cast<double>(pre_sink.bytes().size()) -
       static_cast<double>(stream_archive_bytes)) /
      static_cast<double>(stream_archive_bytes);
  const pipeline::MemorySource pre_mem(pre_sink.bytes());
  const pipeline::TrackingSource pre_tracked(pre_mem);
  const pipeline::ArchiveReader pre_reader(pre_tracked);
  const pipeline::BatchDecompressResult preambled =
      sched.decompress(pre_reader);
  const double read_amplification =
      static_cast<double>(pre_tracked.bytes_read()) /
      static_cast<double>(stream_archive_bytes);

  const bool identical = floats_identical(streamed, reference) &&
                         floats_identical(staged, reference) &&
                         floats_identical(preambled, reference) &&
                         floats_identical(traced, reference);
  const std::uint64_t peak_buffered =
      reader.resident_bytes() + reader.peak_frame_bytes();
  const std::uint64_t budget =
      reader.resident_bytes() + kWorkers * reader.max_frame_bytes();
  const bool bounded = reader.peak_frame_bytes() > 0 &&
                       reader.peak_frame_bytes() <=
                           kWorkers * reader.max_frame_bytes();
  const double peak_fraction =
      static_cast<double>(peak_buffered) /
      static_cast<double>(stream_archive_bytes);
  const double worst_case_fraction =
      static_cast<double>(budget) / static_cast<double>(stream_archive_bytes);
  const double overlap_speedup = staged_wall / stream_wall;

  std::printf("archive: %llu B (%.2fx over raw)\n",
              static_cast<unsigned long long>(stream_archive_bytes),
              static_cast<double>(corpus_bytes) /
                  static_cast<double>(stream_archive_bytes));
  std::printf("write: whole-buffer %.1f ms, streamed %.1f ms\n",
              whole_write_wall * 1e3, stream_write_wall * 1e3);
  std::printf(
      "decode: staged %.1f ms (peak residency %llu B = whole archive), "
      "streamed %.1f ms (peak residency %llu B = %.1f%% of the archive; "
      "budget %llu B) => overlap speedup %.2fx\n",
      staged_wall * 1e3, static_cast<unsigned long long>(stream_archive_bytes),
      stream_wall * 1e3, static_cast<unsigned long long>(peak_buffered),
      100.0 * peak_fraction, static_cast<unsigned long long>(budget),
      overlap_speedup);
  std::printf(
      "telemetry: %zu interleaved pairs, mean plain %.1f ms, instrumented "
      "%.1f ms => median per-pair overhead %+.2f%% (%zu trace spans)\n",
      pair_ratios.size(), plain_wall * 1e3, telemetry_wall * 1e3,
      100.0 * telemetry_overhead, trace_spans);
  std::printf(
      "recovery preambles: +%llu B (%.2f%% overhead), strict decode read "
      "amplification %.4fx\n",
      static_cast<unsigned long long>(pre_sink.bytes().size() -
                                      stream_archive_bytes),
      100.0 * preamble_overhead, read_amplification);
  std::printf("floats identical across paths: %s; residency bounded: %s\n",
              identical ? "yes" : "NO", bounded ? "yes" : "NO");
  std::remove(path.c_str());
  if (!identical) {
    std::fprintf(stderr, "FAIL: streamed decompress diverged\n");
    return 1;
  }
  if (!bounded) {
    std::fprintf(stderr,
                 "FAIL: streaming decompress exceeded its residency budget\n");
    return 1;
  }

  if (trace_path != nullptr) {
    std::FILE* f = std::fopen(trace_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", trace_path);
      return 1;
    }
    const std::string chrome = recorder.chrome_trace_json();
    std::fwrite(chrome.data(), 1, chrome.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu spans)\n", trace_path, trace_spans);
  }
  if (snapshot_path != nullptr) {
    std::FILE* f = std::fopen(snapshot_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", snapshot_path);
      return 1;
    }
    std::fwrite(snapshot_json.data(), 1, snapshot_json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", snapshot_path);
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
        "  \"benchmark\": \"stream_io\",\n"
        "  \"scale\": %.4f,\n"
        "  \"workers\": %zu,\n"
        "  \"corpus_fields\": %zu,\n"
        "  \"corpus_bytes\": %llu,\n"
        "  \"archive_bytes\": %llu,\n"
        "  \"resident_index_bytes\": %llu,\n"
        "  \"max_frame_bytes\": %llu,\n"
        "  \"peak_buffered_bytes\": %llu,\n"
        "  \"peak_buffered_fraction\": %.6f,\n"
        "  \"worst_case_peak_fraction\": %.6f,\n"
        "  \"round_trip_identical\": %s,\n"
        "  \"bounded_residency\": %s,\n"
        "  \"whole_buffer_write_wall_s\": %.6f,\n"
        "  \"stream_write_wall_s\": %.6f,\n"
        "  \"staged_decode_wall_s\": %.6f,\n"
        "  \"stream_decode_wall_s\": %.6f,\n"
        "  \"stream_decode_telemetry_wall_s\": %.6f,\n"
        "  \"telemetry_overhead_fraction\": %.6f,\n"
        "  \"telemetry\": {\n"
        "    \"trace_spans\": %zu,\n"
        "    \"snapshot\": %s\n"
        "  },\n"
        "  \"io_overlap_speedup\": %.4f,\n"
        "  \"happy_path_archive_overhead_fraction\": %.6f,\n"
        "  \"preambled_archive_bytes\": %llu,\n"
        "  \"recovery_preamble_overhead_fraction\": %.6f,\n"
        "  \"strict_decode_read_amplification\": %.6f\n"
        "}\n",
        scale, kWorkers, corpus.size(),
        static_cast<unsigned long long>(corpus_bytes),
        static_cast<unsigned long long>(stream_archive_bytes),
        static_cast<unsigned long long>(reader.resident_bytes()),
        static_cast<unsigned long long>(reader.max_frame_bytes()),
        static_cast<unsigned long long>(peak_buffered), peak_fraction,
        worst_case_fraction, identical ? "true" : "false",
        bounded ? "true" : "false", whole_write_wall, stream_write_wall,
        staged_wall, stream_wall, telemetry_wall, telemetry_overhead,
        trace_spans, snapshot_json.c_str(), overlap_speedup,
        (static_cast<double>(stream_archive_bytes) -
         static_cast<double>(whole_bytes.size())) /
            static_cast<double>(whole_bytes.size()),
        static_cast<unsigned long long>(pre_sink.bytes().size()),
        preamble_overhead, read_amplification);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  const char* json_path = "BENCH_stream.json";
  const char* trace_path = nullptr;
  const char* snapshot_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "TRACE_stream.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot_path = "SNAPSHOT_stream.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') snapshot_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json [path]] [--trace [path]] "
                   "[--snapshot [path]]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(emit_json, json_path, trace_path, snapshot_path);
}

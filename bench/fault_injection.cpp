// Seeded fault-injection matrix driver: exercises the fault-tolerance layer
// end to end against a deterministic fault schedule and reports recovery
// statistics. Four scenarios per seed:
//
//  * retry convergence — a strict streamed decompress over a
//    FaultInjectingSource (transient errors + short reads) with a bounded
//    RetryPolicy must converge to floats bit-identical to the clean run;
//  * truncation salvage — the archive cut at a seed-derived point, reopened
//    with ArchiveReader::open_salvage: every chunk reported Ok must match the
//    reference bit-exactly (zero CRC-invalid bytes surfaced), everything
//    else must be zero-filled and reported Missing/Corrupt;
//  * bit-flip quarantine — one seeded bit flipped inside a known frame; the
//    degraded batch decompress must quarantine exactly that chunk;
//  * torn-write repair — a FaultInjectingSink tears one append mid-session
//    (the crash model); repair_truncated() must re-finalize the prefix into
//    a strictly valid archive whose chunks verify and match the reference.
//
// The schedule is a pure function of the seed, so a failing seed replays
// exactly. CI runs this under ASan+UBSan across a seed matrix and uploads
// the JSON report.
//
//   ./bench_fault_injection                    # table on stdout
//   ./bench_fault_injection --seeds 8          # widen the matrix
//   ./bench_fault_injection --seed-base 100    # disjoint CI matrix legs
//   ./bench_fault_injection --json [path]      # also write FAULT_injection.json
//
// OHD_BENCH_SCALE scales the corpus exactly like bench_stream_io.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/generic.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/recovery.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace ohd;

constexpr std::size_t kWorkers = 4;

double bench_scale() {
  if (const char* env = std::getenv("OHD_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

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

struct Corpus {
  std::vector<std::vector<float>> data;  // keeps the spec spans alive
  std::vector<pipeline::FieldSpec> specs;
};

Corpus make_corpus(double scale) {
  const auto n1 = static_cast<std::size_t>(196608 * scale);
  Corpus c;
  auto add = [&c](std::string name, std::vector<std::uint16_t> stream,
                  std::uint32_t alphabet, core::Method m, double rel_eb,
                  bool adaptive) {
    c.data.push_back(walk_field(stream, alphabet));
    pipeline::FieldSpec spec;
    spec.name = std::move(name);
    spec.data = c.data.back();
    spec.dims = sz::Dims::d1(c.data.back().size());
    spec.config.method = m;
    spec.config.rel_error_bound = rel_eb;
    spec.chunk_elems = std::max<std::size_t>(512, c.data.back().size() / 16);
    spec.plan.auto_method = adaptive;
    spec.plan.shared_codebook = adaptive;
    c.specs.push_back(spec);
  };
  add("uniform", data::uniform_stream(n1, 64, 301), 64,
      core::Method::SelfSyncOptimized, 1e-3, false);
  add("zipf", data::zipf_stream(n1, 512, 1.1, 302), 512,
      core::Method::GapArrayOptimized, 1e-4, true);
  add("markov", data::markov_stream(n1, 256, 0.005, 303), 256,
      core::Method::CuszNaive, 5e-3, false);
  return c;
}

/// Checks a degraded decode against the clean reference: Ok ranges must be
/// bit-identical, non-Ok ranges zero-filled. Fields match by name — a
/// salvaged reader may hold fewer fields than the reference run.
bool partial_verified(const pipeline::PartialBatchDecompress& partial,
                      const pipeline::BatchDecompressResult& reference) {
  for (std::size_t fi = 0; fi < partial.report.fields.size(); ++fi) {
    const pipeline::FieldReport& fr = partial.report.fields[fi];
    const std::vector<float>& got = partial.values[fi];
    const std::vector<float>* ref = nullptr;
    for (const auto& field : reference.fields) {
      if (field.name == fr.name) ref = &field.decode.data;
    }
    if (ref == nullptr) return false;
    for (const pipeline::ChunkReport& cr : fr.chunks) {
      const std::uint64_t count =
          cr.elem_count > 0 ? cr.elem_count : got.size() - cr.elem_offset;
      for (std::uint64_t i = 0; i < count; ++i) {
        const float v = got[cr.elem_offset + i];
        if (cr.status == pipeline::ChunkStatus::Ok) {
          if (v != (*ref)[cr.elem_offset + i]) return false;
        } else if (v != 0.0f) {
          return false;
        }
      }
    }
  }
  return true;
}

struct MatrixTotals {
  // retry convergence
  std::size_t retry_runs = 0;
  std::size_t retry_identical = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t read_faults_injected = 0;
  // truncation salvage
  std::size_t salvage_runs = 0;
  std::size_t salvage_verified = 0;
  std::size_t salvage_chunks_ok = 0;
  std::size_t salvage_chunks_missing = 0;
  std::size_t salvage_chunks_corrupt = 0;
  std::size_t salvage_frames_rejected = 0;
  // bit-flip quarantine
  std::size_t flip_runs = 0;
  std::size_t flip_verified = 0;
  std::size_t flip_quarantined = 0;
  // torn-write repair
  std::size_t repair_runs = 0;
  std::size_t repair_torn = 0;
  std::size_t repair_verified = 0;
  std::size_t repair_chunks_kept = 0;
  std::size_t repair_chunks_dropped = 0;
};

int run(std::size_t seed_base, std::size_t seeds, bool emit_json,
        const char* json_path) {
  const double scale = bench_scale();
  const Corpus corpus = make_corpus(scale);
  pipeline::ThreadPool pool(kWorkers);
  const pipeline::BatchScheduler sched(pool);

  // One preambled archive + clean reference shared by every seed.
  pipeline::MemorySink sink;
  pipeline::ArchiveWriter writer(sink, {.recovery_preambles = true});
  sched.compress_to(writer, corpus.specs);
  writer.finish();
  const std::vector<std::uint8_t>& archive = sink.bytes();
  std::size_t total_chunks = 0;
  for (const auto& f : writer.fields()) total_chunks += f.chunks.size();
  const pipeline::MemorySource clean(archive);
  const pipeline::ArchiveReader clean_reader(clean);
  const pipeline::BatchDecompressResult reference =
      sched.decompress(clean_reader);
  std::printf("archive: %zu B, %zu fields, %zu chunks, seeds %zu..%zu\n",
              archive.size(), corpus.specs.size(), total_chunks, seed_base,
              seed_base + seeds - 1);

  MatrixTotals t;
  for (std::size_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    util::Xoshiro256 rng(seed);  // seed-derived damage choices

    // -- retry convergence ---------------------------------------------------
    {
      pipeline::FaultSpec spec;
      spec.seed = seed;
      spec.transient_read_rate = 0.15;
      spec.short_read_rate = 0.10;
      const pipeline::FaultInjectingSource faulty(clean, spec);
      pipeline::ReaderOptions opts;
      opts.retry.max_attempts = 12;
      const pipeline::ArchiveReader reader(faulty, opts);
      const auto result = sched.decompress(reader);
      bool identical = result.fields.size() == reference.fields.size();
      for (std::size_t i = 0; identical && i < result.fields.size(); ++i) {
        identical = result.fields[i].decode.data ==
                    reference.fields[i].decode.data;
      }
      ++t.retry_runs;
      t.retry_identical += identical;
      t.io_retries += reader.io_retries();
      const pipeline::FaultStats fs = faulty.stats();
      t.read_faults_injected += fs.transient_read_errors + fs.short_reads;
    }

    // -- truncation salvage --------------------------------------------------
    {
      const double frac = 0.10 + 0.85 * rng.uniform();
      const std::size_t cut = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(archive.size()) * frac));
      const std::span<const std::uint8_t> damaged(archive.data(), cut);
      const pipeline::MemorySource source(damaged);
      pipeline::SalvageReport report;
      const pipeline::ArchiveReader reader =
          pipeline::ArchiveReader::open_salvage(source, &report);
      const pipeline::PartialBatchDecompress partial =
          sched.decompress_partial(reader);
      ++t.salvage_runs;
      t.salvage_verified += partial_verified(partial, reference);
      t.salvage_frames_rejected += report.frames_rejected;
      for (const auto& fr : partial.report.fields) {
        for (const auto& cr : fr.chunks) {
          t.salvage_chunks_ok += cr.status == pipeline::ChunkStatus::Ok;
          t.salvage_chunks_missing +=
              cr.status == pipeline::ChunkStatus::Missing;
          t.salvage_chunks_corrupt +=
              cr.status == pipeline::ChunkStatus::Corrupt;
        }
      }
    }

    // -- bit-flip quarantine -------------------------------------------------
    {
      const std::size_t fi = rng.bounded(clean_reader.fields().size());
      const auto& chunks = clean_reader.fields()[fi].chunks;
      const std::size_t ci = rng.bounded(chunks.size());
      const std::uint64_t at = 8 + chunks[ci].payload_offset +
                               rng.bounded(chunks[ci].payload_bytes);
      std::vector<std::uint8_t> flipped(archive);
      flipped[at] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
      const pipeline::MemorySource source(flipped);
      const pipeline::ArchiveReader reader(source);
      const pipeline::PartialBatchDecompress partial =
          sched.decompress_partial(reader);
      std::size_t corrupt = 0;
      bool target_hit = false;
      for (std::size_t f = 0; f < partial.report.fields.size(); ++f) {
        for (const auto& cr : partial.report.fields[f].chunks) {
          if (cr.status == pipeline::ChunkStatus::Corrupt) {
            ++corrupt;
            target_hit |= f == fi && cr.chunk == ci;
          }
        }
      }
      ++t.flip_runs;
      t.flip_quarantined += corrupt;
      t.flip_verified += corrupt == 1 && target_hit &&
                         partial_verified(partial, reference);
    }

    // -- torn-write repair ---------------------------------------------------
    {
      pipeline::MemorySink torn_store;
      pipeline::FaultSpec spec;
      spec.seed = seed;
      spec.torn_write_rate = 0.02;
      spec.max_faults = 1;
      pipeline::FaultInjectingSink torn_sink(torn_store, spec);
      bool torn = false;
      try {
        pipeline::ArchiveWriter torn_writer(torn_sink,
                                            {.recovery_preambles = true});
        sched.compress_to(torn_writer, corpus.specs);
        torn_writer.finish();
      } catch (const pipeline::ArchiveError&) {
        torn = true;
      }
      ++t.repair_runs;
      t.repair_torn += torn;
      const pipeline::MemorySource damaged(torn_store.bytes());
      pipeline::MemorySink repaired_sink;
      const pipeline::RepairReport rr =
          pipeline::repair_truncated(damaged, repaired_sink);
      t.repair_chunks_kept += rr.chunks_kept;
      t.repair_chunks_dropped += rr.chunks_dropped;
      // The repaired archive must be strictly valid: footer-first open,
      // every frame CRC verifies, and every chunk matches the reference.
      const pipeline::MemorySource repaired_src(repaired_sink.bytes());
      const pipeline::ArchiveReader repaired(repaired_src);
      repaired.verify();
      const pipeline::PartialBatchDecompress round =
          sched.decompress_partial(repaired);
      t.repair_verified +=
          round.report.complete() && partial_verified(round, reference);
    }
  }

  const bool all_ok = t.retry_identical == t.retry_runs &&
                      t.salvage_verified == t.salvage_runs &&
                      t.flip_verified == t.flip_runs &&
                      t.repair_verified == t.repair_runs;
  std::printf(
      "retry: %zu/%zu identical (%llu retries over %llu injected faults)\n",
      t.retry_identical, t.retry_runs,
      static_cast<unsigned long long>(t.io_retries),
      static_cast<unsigned long long>(t.read_faults_injected));
  std::printf(
      "salvage: %zu/%zu verified (chunks ok %zu, missing %zu, corrupt %zu; "
      "frames rejected %zu)\n",
      t.salvage_verified, t.salvage_runs, t.salvage_chunks_ok,
      t.salvage_chunks_missing, t.salvage_chunks_corrupt,
      t.salvage_frames_rejected);
  std::printf("bit-flip: %zu/%zu quarantined exactly (%zu chunks)\n",
              t.flip_verified, t.flip_runs, t.flip_quarantined);
  std::printf(
      "repair: %zu/%zu verified (%zu torn sessions; chunks kept %zu, "
      "dropped %zu)\n",
      t.repair_verified, t.repair_runs, t.repair_torn, t.repair_chunks_kept,
      t.repair_chunks_dropped);
  std::printf("all checks passed: %s\n", all_ok ? "yes" : "NO");

  if (emit_json) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"fault_injection\",\n"
        "  \"scale\": %.4f,\n"
        "  \"seed_base\": %zu,\n"
        "  \"seeds\": %zu,\n"
        "  \"archive_bytes\": %zu,\n"
        "  \"total_chunks\": %zu,\n"
        "  \"retry_runs\": %zu,\n"
        "  \"retry_identical\": %zu,\n"
        "  \"io_retries\": %llu,\n"
        "  \"read_faults_injected\": %llu,\n"
        "  \"salvage_runs\": %zu,\n"
        "  \"salvage_verified\": %zu,\n"
        "  \"salvage_chunks_ok\": %zu,\n"
        "  \"salvage_chunks_missing\": %zu,\n"
        "  \"salvage_chunks_corrupt\": %zu,\n"
        "  \"salvage_frames_rejected\": %zu,\n"
        "  \"bitflip_runs\": %zu,\n"
        "  \"bitflip_verified\": %zu,\n"
        "  \"bitflip_chunks_quarantined\": %zu,\n"
        "  \"repair_runs\": %zu,\n"
        "  \"repair_torn_sessions\": %zu,\n"
        "  \"repair_verified\": %zu,\n"
        "  \"repair_chunks_kept\": %zu,\n"
        "  \"repair_chunks_dropped\": %zu,\n"
        "  \"all_checks_passed\": %s\n"
        "}\n",
        scale, seed_base, seeds, archive.size(), total_chunks, t.retry_runs,
        t.retry_identical, static_cast<unsigned long long>(t.io_retries),
        static_cast<unsigned long long>(t.read_faults_injected),
        t.salvage_runs, t.salvage_verified, t.salvage_chunks_ok,
        t.salvage_chunks_missing, t.salvage_chunks_corrupt,
        t.salvage_frames_rejected, t.flip_runs, t.flip_verified,
        t.flip_quarantined, t.repair_runs, t.repair_torn, t.repair_verified,
        t.repair_chunks_kept, t.repair_chunks_dropped,
        all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seed_base = 1;
  std::size_t seeds = 5;
  bool emit_json = false;
  const char* json_path = "FAULT_injection.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed-base") == 0 && i + 1 < argc) {
      seed_base = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--seeds N] [--seed-base B] [--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (seeds == 0) seeds = 1;
  if (seed_base == 0) seed_base = 1;
  return run(seed_base, seeds, emit_json, json_path);
}

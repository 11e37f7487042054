// Pipeline determinism: a batch run on N workers must be bit-identical to
// a run on one worker — archive bytes, decoded floats, aggregated
// PhaseTimings, the simulated makespan, and the value-only reads' floats and
// reports — because all merges are ordered by chunk id and every chunk task
// owns a fresh SimContext.
#include "pipeline/batch.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <utility>
#include <vector>

#include "data/generic.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/byte_stream.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

std::vector<float> bumpy_field(std::size_t n, std::uint64_t seed,
                               double noise) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::cos(0.002 * static_cast<double>(i)) +
                              noise * rng.normal());
  }
  return v;
}

void expect_phases_identical(const core::PhaseTimings& a,
                             const core::PhaseTimings& b) {
  EXPECT_EQ(a.intra_sync_s, b.intra_sync_s);
  EXPECT_EQ(a.inter_sync_s, b.inter_sync_s);
  EXPECT_EQ(a.output_index_s, b.output_index_s);
  EXPECT_EQ(a.tune_s, b.tune_s);
  EXPECT_EQ(a.decode_write_s, b.decode_write_s);
  EXPECT_EQ(a.other_s, b.other_s);
}

/// Mixed corpus over the four float-capable methods, several chunks each.
struct Corpus {
  std::vector<std::vector<float>> storage;
  std::vector<FieldSpec> specs;
};

Corpus make_corpus() {
  Corpus c;
  c.storage.push_back(bumpy_field(24000, 1, 0.02));
  c.storage.push_back(bumpy_field(64 * 90, 2, 0.01));
  c.storage.push_back(bumpy_field(20 * 16 * 18, 3, 0.05));
  c.storage.push_back(bumpy_field(18000, 4, 0.2));

  const core::Method methods[] = {
      core::Method::CuszNaive, core::Method::SelfSyncOriginal,
      core::Method::SelfSyncOptimized, core::Method::GapArrayOptimized};
  const sz::Dims dims[] = {sz::Dims::d1(24000), sz::Dims::d2(64, 90),
                           sz::Dims::d3(20, 16, 18), sz::Dims::d1(18000)};
  const double ebs[] = {1e-3, 1e-4, 5e-3, 1e-3};
  for (std::size_t i = 0; i < 4; ++i) {
    FieldSpec spec;
    spec.name = "field" + std::to_string(i);
    spec.data = c.storage[i];
    spec.dims = dims[i];
    spec.config.method = methods[i];
    spec.config.rel_error_bound = ebs[i];
    spec.chunk_elems = 3000;
    c.specs.push_back(spec);
  }
  return c;
}

TEST(BatchDeterminism, CompressedContainerIsWorkerCountInvariant) {
  const Corpus corpus = make_corpus();
  ThreadPool p1(1), p4(4);
  EXPECT_EQ(BatchScheduler(p1).compress(corpus.specs),
            BatchScheduler(p4).compress(corpus.specs));
}

TEST(BatchDeterminism, DecompressIsBitIdenticalAcrossWorkerCounts) {
  const Corpus corpus = make_corpus();
  ThreadPool p4(4);
  const auto archive = BatchScheduler(p4).compress(corpus.specs);
  const MemorySource source(archive);
  const ArchiveReader reader(source);

  ThreadPool p1(1), p3(3);
  const BatchDecompressResult seq = BatchScheduler(p1).decompress(reader);
  for (std::size_t workers : {std::size_t{3}, std::size_t{4}}) {
    ThreadPool& pool = workers == 3 ? p3 : p4;
    const BatchDecompressResult par = BatchScheduler(pool).decompress(reader);
    ASSERT_EQ(par.fields.size(), seq.fields.size());
    for (std::size_t fi = 0; fi < seq.fields.size(); ++fi) {
      EXPECT_EQ(par.fields[fi].decode.data, seq.fields[fi].decode.data)
          << "workers=" << workers << " field=" << fi;
      expect_phases_identical(par.fields[fi].decode.huffman_phases,
                              seq.fields[fi].decode.huffman_phases);
      EXPECT_EQ(par.fields[fi].decode.simulated_seconds,
                seq.fields[fi].decode.simulated_seconds);
    }
    expect_phases_identical(par.phases, seq.phases);
    EXPECT_EQ(par.simulated_seconds, seq.simulated_seconds);
    EXPECT_EQ(par.chunk_seconds, seq.chunk_seconds);
    EXPECT_EQ(par.makespan(4), seq.makespan(4));
  }
}

/// The planned (two-fan-out) compress path: adaptive method selection plus
/// shared codebooks must stay worker-count invariant.
TEST(BatchDeterminism, PlannedCompressIsWorkerCountInvariant) {
  Corpus corpus = make_corpus();
  for (FieldSpec& spec : corpus.specs) {
    spec.plan.auto_method = true;
    spec.plan.shared_codebook = true;
  }
  // The 8-bit-incapable methods only: auto selection re-picks per chunk, so
  // the spec method is just the fallback.
  ThreadPool p1(1), p4(4);
  const auto a = BatchScheduler(p1).compress(corpus.specs);
  EXPECT_EQ(BatchScheduler(p4).compress(corpus.specs), a);

  // The planned corpus actually exercises shared codebooks somewhere.
  const MemorySource source(a);
  const ArchiveReader reader(source);
  std::size_t shared_fields = 0;
  for (const FieldEntry& f : reader.fields()) {
    shared_fields += f.shared_codebook != nullptr;
  }
  EXPECT_GE(shared_fields, 1u);
}

TEST(BatchDeterminism, PlannedDecompressIsBitIdenticalAcrossWorkerCounts) {
  Corpus corpus = make_corpus();
  for (FieldSpec& spec : corpus.specs) {
    spec.plan.auto_method = true;
    spec.plan.shared_codebook = true;
  }
  ThreadPool p4(4);
  const auto archive = BatchScheduler(p4).compress(corpus.specs);
  const MemorySource source(archive);
  const ArchiveReader reader(source);

  ThreadPool p1(1), p3(3);
  const BatchDecompressResult seq = BatchScheduler(p1).decompress(reader);
  for (std::size_t workers : {std::size_t{3}, std::size_t{4}}) {
    ThreadPool& pool = workers == 3 ? p3 : p4;
    const BatchDecompressResult par = BatchScheduler(pool).decompress(reader);
    ASSERT_EQ(par.fields.size(), seq.fields.size());
    for (std::size_t fi = 0; fi < seq.fields.size(); ++fi) {
      EXPECT_EQ(par.fields[fi].decode.data, seq.fields[fi].decode.data)
          << "workers=" << workers << " field=" << fi;
    }
    expect_phases_identical(par.phases, seq.phases);
    EXPECT_EQ(par.chunk_seconds, seq.chunk_seconds);
  }
}

void expect_reports_identical(const DecodeReport& a, const DecodeReport& b) {
  ASSERT_EQ(a.fields.size(), b.fields.size());
  for (std::size_t fi = 0; fi < a.fields.size(); ++fi) {
    const FieldReport& fa = a.fields[fi];
    const FieldReport& fb = b.fields[fi];
    EXPECT_EQ(fa.name, fb.name);
    EXPECT_EQ(fa.elems_total, fb.elems_total);
    EXPECT_EQ(fa.elems_ok, fb.elems_ok);
    ASSERT_EQ(fa.chunks.size(), fb.chunks.size()) << fa.name;
    for (std::size_t ci = 0; ci < fa.chunks.size(); ++ci) {
      EXPECT_EQ(fa.chunks[ci].chunk, fb.chunks[ci].chunk);
      EXPECT_EQ(fa.chunks[ci].status, fb.chunks[ci].status);
      EXPECT_EQ(fa.chunks[ci].elem_offset, fb.chunks[ci].elem_offset);
      EXPECT_EQ(fa.chunks[ci].elem_count, fb.chunks[ci].elem_count);
      EXPECT_EQ(fa.chunks[ci].detail, fb.chunks[ci].detail);
    }
  }
}

TEST(BatchDeterminism, PartialDecompressIsIdenticalAcrossWorkerCounts) {
  // A flipped byte in the third frame of the first field: that chunk is
  // reported Corrupt and zero-filled, the floats and the report are the
  // same at 1 and 4 workers, and the floats equal the strict decode
  // everywhere else.
  const Corpus corpus = make_corpus();
  ThreadPool p1(1), p4(4);
  auto archive = BatchScheduler(p4).compress(corpus.specs);
  const MemorySource clean_source(archive);
  const ArchiveReader clean(clean_source);
  const BatchDecompressResult strict = BatchScheduler(p4).decompress(clean);
  const ChunkRecord rec = clean.fields()[0].chunks[2];
  archive[8 + rec.payload_offset + rec.payload_bytes / 2] ^= 0x10;  // 8: head
  const MemorySource source(archive);
  const ArchiveReader reader(source);

  const PartialBatchDecompress seq =
      BatchScheduler(p1).decompress_partial(reader);
  const PartialBatchDecompress par =
      BatchScheduler(p4).decompress_partial(reader);
  EXPECT_EQ(par.values, seq.values);
  expect_reports_identical(par.report, seq.report);
  EXPECT_EQ(seq.report.fields[0].chunks[2].status, ChunkStatus::Corrupt);
  EXPECT_EQ(seq.report.chunks_ok() + 1, seq.report.chunks_reported());
  for (std::size_t fi = 0; fi < strict.fields.size(); ++fi) {
    std::vector<float> expect = strict.fields[fi].decode.data;
    if (fi == 0) {
      std::fill_n(expect.begin() + static_cast<std::ptrdiff_t>(rec.elem_offset),
                  rec.dims.count(), 0.0f);
    }
    EXPECT_EQ(seq.values[fi], expect) << "field " << fi;
  }
}

TEST(BatchDeterminism, RangeDecodeIsIdenticalAcrossWorkerCounts) {
  // Whole fields, ranges across chunk boundaries with ragged ends, and
  // ranges inside one chunk: the same floats at 1 and 4 workers, equal to
  // the matching slice of the strict decode.
  const Corpus corpus = make_corpus();
  ThreadPool p1(1), p4(4);
  const auto archive = BatchScheduler(p4).compress(corpus.specs);
  const MemorySource source(archive);
  const ArchiveReader reader(source);
  const BatchDecompressResult strict = BatchScheduler(p4).decompress(reader);
  for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
    const std::vector<float>& whole = strict.fields[fi].decode.data;
    const std::uint64_t n = whole.size();
    const ChunkRecord& second = reader.fields()[fi].chunks[1];
    using Range = std::pair<std::uint64_t, std::uint64_t>;
    for (const auto& [lo, hi] : std::vector<Range>{
             {0, n},
             {n / 3 + 1, 2 * n / 3 + 7},
             {second.elem_offset, second.elem_offset + second.dims.count()},
             {second.elem_offset + 5, second.elem_offset + 9}}) {
      const std::vector<float> seq =
          BatchScheduler(p1).decode_range(reader, fi, lo, hi);
      EXPECT_EQ(BatchScheduler(p4).decode_range(reader, fi, lo, hi), seq)
          << "field " << fi << " [" << lo << ", " << hi << ")";
      EXPECT_EQ(seq, std::vector<float>(whole.begin() + lo, whole.begin() + hi))
          << "field " << fi << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(BatchScheduler, OneChunkRangeDecodesOnTheCallingThread) {
  // The pool's only worker is blocked until the range decode returns, so a
  // one-chunk range that waited for the pool would never return.
  const Corpus corpus = make_corpus();
  ThreadPool pool(1);
  const BatchScheduler sched(pool);
  const auto archive = sched.compress(corpus.specs);
  const MemorySource source(archive);
  const ArchiveReader reader(source);
  const std::vector<float> whole =
      sched.decompress(reader).fields[0].decode.data;
  const ChunkRecord& rec = reader.fields()[0].chunks[1];
  const std::uint64_t lo = rec.elem_offset + 10;
  const std::uint64_t hi = rec.elem_offset + rec.dims.count() - 10;

  std::promise<void> release;
  auto blocker = pool.submit([gate = release.get_future().share()] {
    gate.wait();
  });
  auto range = std::async(std::launch::async, [&] {
    return sched.decode_range(reader, 0, lo, hi);
  });
  const bool returned =
      range.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  blocker.get();
  ASSERT_TRUE(returned) << "a one-chunk range waited for the blocked pool";
  EXPECT_EQ(range.get(),
            std::vector<float>(whole.begin() + lo, whole.begin() + hi));
}

TEST(BatchScheduler, CompressRejectsInvalidSpecsBeforeFanOut) {
  const Corpus corpus = make_corpus();
  ThreadPool pool(2);
  BatchScheduler sched(pool);

  // An invalid LAST spec must fail cleanly even though valid fields precede
  // it (validation happens before any task is submitted).
  auto specs = corpus.specs;
  FieldSpec bad = specs[0];
  bad.name = "bad";
  bad.dims = sz::Dims::d1(bad.data.size() + 1);
  specs.push_back(bad);
  EXPECT_THROW(sched.compress(specs), ContainerError);

  auto dupes = corpus.specs;
  dupes.push_back(corpus.specs[0]);
  EXPECT_THROW(sched.compress(dupes), ContainerError);

  // The pool is still usable afterwards.
  const auto archive = sched.compress(corpus.specs);
  const MemorySource source(archive);
  EXPECT_EQ(ArchiveReader(source).fields().size(), 4u);
}

TEST(BatchScheduler, DecompressSurfacesCorruptionWithPendingTasks) {
  const Corpus corpus = make_corpus();
  ThreadPool pool(2);
  BatchScheduler sched(pool);
  const auto bytes = sched.compress(corpus.specs);
  const MemorySource intact_source(bytes);
  const ArchiveReader intact(intact_source);
  // The v3 payload section starts right after the 8-byte head; frame CRCs
  // are lazy, so the flip surfaces at decode time, not at open time.
  auto flipped = bytes;
  flipped[8 + 5] ^= 0x10;  // corrupt the first chunk's frame
  const MemorySource corrupted_source(flipped);
  const ArchiveReader corrupted(corrupted_source);

  // The CRC failure propagates while sibling chunk tasks are still in
  // flight; the scheduler must wait them out before rethrowing.
  EXPECT_THROW(sched.decompress(corrupted), ContainerError);
  EXPECT_EQ(sched.decompress(intact).fields.size(), 4u);
}

TEST(BatchDeterminism, MakespanShrinksWithSimulatedWorkers) {
  const Corpus corpus = make_corpus();
  ThreadPool p4(4);
  BatchScheduler sched(p4);
  const auto archive = sched.compress(corpus.specs);
  const MemorySource source(archive);
  const BatchDecompressResult r = sched.decompress(ArchiveReader(source));
  ASSERT_GE(r.chunk_seconds.size(), 16u);

  const double ms1 = r.makespan(1);
  const double ms4 = r.makespan(4);
  // Same chunks, different summation grouping (per-chunk vs per-field).
  EXPECT_DOUBLE_EQ(ms1, r.simulated_seconds);
  EXPECT_GE(ms1 / ms4, 2.0);
  // The makespan can never beat the critical path or perfect speedup.
  double longest = 0.0;
  for (double s : r.chunk_seconds) longest = std::max(longest, s);
  EXPECT_GE(ms4, longest);
  EXPECT_GE(ms4, r.simulated_seconds / 4.0 * (1 - 1e-12));
}

}  // namespace
}  // namespace ohd::pipeline

// MethodSelector: chunk probing, the analytic per-method cost estimates, and
// field planning (auto method selection + shared-codebook references).
#include "pipeline/method_selector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

sz::QuantizedField quantized_from_codes(std::vector<std::uint16_t> codes,
                                        std::uint32_t radius = 512,
                                        std::size_t num_outliers = 0) {
  sz::QuantizedField q;
  q.dims = sz::Dims::d1(codes.size());
  q.error_bound = 1e-3;
  q.radius = radius;
  q.codes = std::move(codes);
  for (std::size_t i = 0; i < num_outliers; ++i) {
    q.outliers.push_back({i, 1.0f});
  }
  return q;
}

std::vector<std::uint16_t> skewed_codes(std::size_t n, std::uint16_t center,
                                        double spread, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint16_t> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = center + spread * rng.normal();
    codes[i] = static_cast<std::uint16_t>(
        std::min(1023.0, std::max(1.0, std::round(v))));
  }
  return codes;
}

TEST(ChunkProbeTest, ComputesEntropyRunsAndOutliers) {
  // Constant stream: zero entropy, one run spanning the chunk, 1-bit code.
  const auto constant = probe_chunk(
      quantized_from_codes(std::vector<std::uint16_t>(1000, 512)));
  EXPECT_EQ(constant.num_symbols, 1000u);
  EXPECT_DOUBLE_EQ(constant.entropy_bits, 0.0);
  EXPECT_DOUBLE_EQ(constant.mean_run_length, 1000.0);
  EXPECT_DOUBLE_EQ(constant.avg_code_bits, 1.0);
  EXPECT_DOUBLE_EQ(constant.outlier_fraction, 0.0);

  // Four equiprobable symbols in round-robin: entropy 2 bits, runs of 1.
  std::vector<std::uint16_t> four(4096);
  for (std::size_t i = 0; i < four.size(); ++i) {
    four[i] = static_cast<std::uint16_t>(500 + i % 4);
  }
  const auto uniform4 = probe_chunk(quantized_from_codes(std::move(four)));
  EXPECT_NEAR(uniform4.entropy_bits, 2.0, 1e-9);
  EXPECT_NEAR(uniform4.avg_code_bits, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(uniform4.mean_run_length, 1.0);

  const auto with_outliers =
      probe_chunk(quantized_from_codes(std::vector<std::uint16_t>(200, 7),
                                       512, 20));
  EXPECT_DOUBLE_EQ(with_outliers.outlier_fraction, 0.1);

  EXPECT_THROW(probe_chunk(quantized_from_codes({})), std::invalid_argument);
}

TEST(MethodSelectorTest, SelectIsTheCheapestRankedCandidate) {
  const MethodSelector selector;
  const auto probe =
      probe_chunk(quantized_from_codes(skewed_codes(20000, 512, 12.0, 1)));
  const auto ranked = selector.rank(probe);
  ASSERT_EQ(ranked.size(), selector.candidates().size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].total_seconds(), ranked[i].total_seconds());
  }
  EXPECT_EQ(selector.select(probe), ranked.front().method);
  // Deterministic: same probe, same answer.
  EXPECT_EQ(selector.select(probe), selector.select(probe));
}

TEST(MethodSelectorTest, EstimatesReflectTheFamilies) {
  const MethodSelector selector;
  // A chunk small enough that the fine-grained families' sequence padding
  // (16 KiB of bits per sequence) is visible against the naive layout's
  // per-coarse-chunk unit padding.
  const auto probe =
      probe_chunk(quantized_from_codes(skewed_codes(3000, 512, 30.0, 2)));

  const auto naive = selector.estimate(core::Method::CuszNaive, probe);
  const auto selfsync =
      selector.estimate(core::Method::SelfSyncOptimized, probe);
  const auto gap = selector.estimate(core::Method::GapArrayOptimized, probe);

  // The naive decoder is critical-path bound (one thread per coarse chunk);
  // the fine-grained families beat it by orders of magnitude on decode.
  EXPECT_GT(naive.decode_seconds, 5.0 * gap.decode_seconds);
  // Self-sync pays speculative re-decoding the gap array avoids.
  EXPECT_GT(selfsync.decode_seconds, gap.decode_seconds);
  // The gap sidecar is exactly one byte per subsequence on top of the same
  // sequence-padded stream.
  EXPECT_GT(gap.stored_bytes, selfsync.stored_bytes);
  EXPECT_LT(gap.stored_bytes - selfsync.stored_bytes,
            selfsync.stored_bytes / 8);
  // The naive layout pads per coarse chunk, not per 16-KiB sequence, so its
  // stored bytes are the smallest of the three.
  EXPECT_LT(naive.stored_bytes, selfsync.stored_bytes);
}

TEST(MethodSelectorTest, ObjectiveChangesTheTradeoff) {
  // Device-resident data (DecodeOnly) must always prefer the optimized
  // gap array, the paper's fastest decoder.
  const MethodSelector decode_only({}, cudasim::DeviceSpec::v100(),
                                   SelectionObjective::DecodeOnly);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto probe = probe_chunk(quantized_from_codes(
        skewed_codes(4000 * seed, 512, 5.0 * static_cast<double>(seed), seed)));
    EXPECT_EQ(decode_only.select(probe), core::Method::GapArrayOptimized);
  }
}

TEST(MethodSelectorTest, MultiSymbolPricingCheapensShortCodeChunks) {
  // A heavily skewed chunk (short codewords) amortizes probes across
  // batches; a near-incompressible chunk (codewords about as wide as the
  // window) gains nothing.
  core::DecoderConfig multi;
  ASSERT_TRUE(multi.use_multisym_lut);
  core::DecoderConfig single = multi;
  single.use_multisym_lut = false;
  const MethodSelector with_multi(multi);
  const MethodSelector without_multi(single);

  const auto skewed =
      probe_chunk(quantized_from_codes(skewed_codes(50000, 512, 2.0, 3)));
  ASSERT_LT(skewed.avg_code_bits, 6.0);
  for (const core::Method m : with_multi.candidates()) {
    EXPECT_LT(with_multi.estimate(m, skewed).decode_seconds,
              without_multi.estimate(m, skewed).decode_seconds)
        << core::method_name(m);
  }

  util::Xoshiro256 rng(17);
  std::vector<std::uint16_t> wide(50000);
  for (auto& c : wide) {
    c = static_cast<std::uint16_t>(1 + rng.bounded(1023));
  }
  const auto flat = probe_chunk(quantized_from_codes(std::move(wide)));
  ASSERT_GT(flat.avg_code_bits, 9.0);
  // Near-uniform codes: about one codeword per window, so the batch cannot
  // be more than marginally cheaper.
  for (const core::Method m : with_multi.candidates()) {
    EXPECT_GT(with_multi.estimate(m, flat).decode_seconds,
              without_multi.estimate(m, flat).decode_seconds * 0.80)
        << core::method_name(m);
  }
}

TEST(MethodSelectorTest, OriginalVariantsPriceTheirSingleSymbolWritePass) {
  // The Original decoders' decode+write pass keeps the single-symbol probe
  // (decode_span disables the batch under record_table_reads), so their
  // estimate must sit strictly between the all-multi and all-single prices.
  core::DecoderConfig multi;
  core::DecoderConfig single = multi;
  single.use_multisym_lut = false;
  const MethodSelector with_multi(multi);
  const MethodSelector without_multi(single);
  const auto probe =
      probe_chunk(quantized_from_codes(skewed_codes(50000, 512, 2.0, 9)));
  for (const core::Method m :
       {core::Method::SelfSyncOriginal, core::Method::GapArrayOriginal8Bit}) {
    const double mixed = with_multi.estimate(m, probe).decode_seconds;
    const double all_single = without_multi.estimate(m, probe).decode_seconds;
    EXPECT_LT(mixed, all_single) << core::method_name(m);
    // Strictly dearer than its family's fully-batched Optimized pricing of
    // the same passes: force the comparison by rebuilding the mixed rate.
    MethodSelector fully_multi(multi);
    const double optimized_rate =
        fully_multi
            .estimate(m == core::Method::SelfSyncOriginal
                          ? core::Method::SelfSyncOptimized
                          : core::Method::GapArrayOptimized,
                      probe)
            .decode_seconds;
    EXPECT_GT(mixed, optimized_rate * 0.99) << core::method_name(m);
  }
}

TEST(MethodSelectorTest, CalibrationRescalesEstimates) {
  MethodSelector selector;
  const auto probe =
      probe_chunk(quantized_from_codes(skewed_codes(20000, 512, 12.0, 5)));
  const double raw =
      selector.estimate(core::Method::GapArrayOptimized, probe).decode_seconds;
  const double other =
      selector.estimate(core::Method::CuszNaive, probe).decode_seconds;

  const MethodCalibration fit[] = {
      {core::Method::GapArrayOptimized, 2.0, 1e-6}};
  selector.calibrate(fit);
  EXPECT_DOUBLE_EQ(
      selector.estimate(core::Method::GapArrayOptimized, probe).decode_seconds,
      2.0 * raw + 1e-6);
  // Methods without an entry keep the identity correction.
  EXPECT_DOUBLE_EQ(
      selector.estimate(core::Method::CuszNaive, probe).decode_seconds, other);
  // stored_bytes / transfer model are untouched by calibration.
  MethodSelector fresh;
  EXPECT_EQ(selector.estimate(core::Method::GapArrayOptimized, probe).stored_bytes,
            fresh.estimate(core::Method::GapArrayOptimized, probe).stored_bytes);

  const MethodCalibration bad[] = {{core::Method::CuszNaive, -1.0, 0.0}};
  EXPECT_THROW(selector.calibrate(bad), std::invalid_argument);
}

TEST(MethodSelectorTest, DefaultCalibrationIsLoadable) {
  // The committed fit must name only known methods with positive finite
  // scales, and applying it must keep estimates positive and ordered enough
  // to rank.
  const auto fit = default_calibration();
  ASSERT_FALSE(fit.empty());
  MethodSelector selector;
  selector.calibrate(fit);  // throws on a malformed committed fit
  const auto probe =
      probe_chunk(quantized_from_codes(skewed_codes(20000, 512, 12.0, 7)));
  for (const core::Method m : selector.candidates()) {
    const auto e = selector.estimate(m, probe);
    EXPECT_GT(e.decode_seconds, 0.0) << core::method_name(m);
    EXPECT_TRUE(std::isfinite(e.decode_seconds)) << core::method_name(m);
  }
  EXPECT_EQ(selector.rank(probe).size(), selector.candidates().size());
}

/// Probes every chunk, then plans the field: the planning step of
/// BatchScheduler::compress_to's planned path.
FieldPlan plan_chunks(std::span<const sz::QuantizedField> chunks,
                      core::Method default_method, const PlanOptions& options,
                      const MethodSelector& selector) {
  std::vector<ChunkProbe> probes;
  for (const sz::QuantizedField& q : chunks) probes.push_back(probe_chunk(q));
  return plan_from_probes(std::move(probes), default_method, options,
                          selector);
}

TEST(PlanFieldTest, FixedPlanKeepsMethodAndPrivateBooks) {
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 4; ++i) {
    chunks.push_back(quantized_from_codes(skewed_codes(5000, 512, 9.0, i)));
  }
  const MethodSelector selector;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::SelfSyncOptimized, {}, selector);
  ASSERT_EQ(plan.chunks.size(), 4u);
  EXPECT_FALSE(plan.has_shared_codebook);
  for (const ChunkPlan& cp : plan.chunks) {
    EXPECT_EQ(cp.method, core::Method::SelfSyncOptimized);
    EXPECT_FALSE(cp.use_shared_codebook);
  }
}

TEST(PlanFieldTest, AutoMethodMatchesSelector) {
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 3; ++i) {
    chunks.push_back(quantized_from_codes(skewed_codes(8000, 512, 20.0, i)));
  }
  const MethodSelector selector;
  MethodSelector calibrated = selector;
  calibrated.calibrate(default_calibration());
  PlanOptions options;
  options.auto_method = true;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::CuszNaive, options, selector);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(plan.chunks[i].method,
              calibrated.select(probe_chunk(chunks[i])));
  }
}

TEST(PlanFieldTest, UseCalibrationPricesThroughTheCommittedFit) {
  // The plan must pick exactly what a default_calibration()-calibrated copy
  // of the selector picks, while the caller's selector object stays
  // untouched (identity-calibrated).
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 4; ++i) {
    chunks.push_back(
        quantized_from_codes(skewed_codes(8000, 512, 4.0 + 12.0 * i, 50 + i)));
  }
  const MethodSelector selector;
  MethodSelector calibrated = selector;
  calibrated.calibrate(default_calibration());

  PlanOptions options;
  options.auto_method = true;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::CuszNaive, options, selector);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ChunkProbe probe = probe_chunk(chunks[i]);
    EXPECT_EQ(plan.chunks[i].method, calibrated.select(probe)) << i;
    // The caller's selector was not calibrated in place.
    EXPECT_EQ(selector.estimate(core::Method::GapArrayOptimized, probe)
                  .decode_seconds,
              MethodSelector().estimate(core::Method::GapArrayOptimized, probe)
                  .decode_seconds);
  }
}

TEST(PlanFieldTest, SimilarChunksShareTheFieldCodebook) {
  // Chunks drawn from the same distribution: the pooled book codes each of
  // them almost as well as its private book, so dropping ~1 KiB of codebook
  // per chunk wins.
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(quantized_from_codes(skewed_codes(4000, 512, 10.0, i)));
  }
  PlanOptions options;
  options.shared_codebook = true;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::GapArrayOptimized, options,
                  MethodSelector());
  EXPECT_TRUE(plan.has_shared_codebook);
  for (const ChunkPlan& cp : plan.chunks) {
    EXPECT_TRUE(cp.use_shared_codebook);
    EXPECT_LT(cp.est_shared_bytes, cp.est_private_bytes);
  }
}

TEST(PlanFieldTest, DivergentChunkKeepsItsPrivateBook) {
  // Five large chunks around one center plus one SMALL chunk around a
  // disjoint center: the pooled book is dominated by the majority, so the
  // divergent chunk's symbols get codes ~log2(pool/chunk) bits longer than
  // its private ones — more than a private book costs — while the majority
  // chunks lose almost nothing to pooling. The divergent chunk must stay
  // private while the rest share.
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 5; ++i) {
    chunks.push_back(quantized_from_codes(skewed_codes(30000, 100, 3.0, i)));
  }
  chunks.push_back(quantized_from_codes(skewed_codes(4000, 900, 80.0, 99)));
  PlanOptions options;
  options.shared_codebook = true;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::GapArrayOptimized, options,
                  MethodSelector());
  ASSERT_TRUE(plan.has_shared_codebook);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(plan.chunks[i].use_shared_codebook) << "chunk " << i;
  }
  EXPECT_FALSE(plan.chunks[5].use_shared_codebook);
}

TEST(PlanFieldTest, EightBitChunksNeverShare) {
  // The 8-bit baseline re-trims its codes to a private alphabet, so it can
  // never reference a field book; the planner must keep such chunks private
  // even when sharing is requested (encode_with_codebook would throw).
  std::vector<sz::QuantizedField> chunks;
  for (int i = 0; i < 4; ++i) {
    chunks.push_back(quantized_from_codes(skewed_codes(4000, 512, 10.0, i)));
  }
  PlanOptions options;
  options.shared_codebook = true;
  const FieldPlan plan =
      plan_chunks(chunks, core::Method::GapArrayOriginal8Bit, options,
                  MethodSelector());
  EXPECT_FALSE(plan.has_shared_codebook);
  for (const ChunkPlan& cp : plan.chunks) {
    EXPECT_FALSE(cp.use_shared_codebook);
  }
}

TEST(PlanFieldTest, SingleChunkFieldNeverShares) {
  std::vector<sz::QuantizedField> one;
  one.push_back(quantized_from_codes(skewed_codes(4000, 512, 10.0, 3)));
  PlanOptions options;
  options.shared_codebook = true;
  const FieldPlan plan = plan_chunks(one, core::Method::GapArrayOptimized,
                                     options, MethodSelector());
  EXPECT_FALSE(plan.has_shared_codebook);
  EXPECT_FALSE(plan.chunks[0].use_shared_codebook);
}

}  // namespace
}  // namespace ohd::pipeline

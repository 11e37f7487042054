// Fused decode→dequantize→reconstruct write path: the rank-1 streaming
// sink is float-for-float identical to the staged lorenzo_reconstruct, and
// the host value path (host_decompress_into) matches the simulated
// decompress across methods, ranks, outlier densities, and both decompress
// entry points.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_write.hpp"
#include "sz/compressor.hpp"
#include "util/rng.hpp"

namespace ohd::sz {
namespace {

/// Smooth field with occasional jumps, so quantization produces a realistic
/// mix of short codes plus genuine outlier records.
std::vector<float> spiky_field(std::size_t n, std::uint64_t seed,
                               double spike_p = 0.002) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  float level = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < spike_p) {
      level += static_cast<float>(rng.normal() * 50.0);
    }
    v[i] = level + static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                                      0.001 * rng.normal());
  }
  return v;
}

TEST(FusedDecodeWrite, MatchesStagedReconstructBitForBit) {
  const auto data = spiky_field(60000, 5);
  CompressorConfig cfg;
  cfg.rel_error_bound = 1e-5;  // tight enough that the spikes become outliers
  const auto blob = compress(data, Dims::d1(data.size()), cfg);
  ASSERT_FALSE(blob.outliers.empty());  // the corpus must exercise outliers

  std::vector<std::uint16_t> codes;
  core::host_decode_symbols(
      blob.encoded, [&codes](std::uint16_t code) { codes.push_back(code); });
  const std::vector<float> staged = lorenzo_reconstruct(
      codes, blob.outliers, blob.dims, blob.abs_error_bound, blob.radius);
  std::vector<float> fused(data.size());
  Lorenzo1DSink sink(fused, blob.outliers, blob.abs_error_bound, blob.radius);
  for (const std::uint16_t code : codes) sink(code);
  sink.finish();
  EXPECT_EQ(fused, staged);  // exact, not approximate
  // decompress streams rank-1 codes through the same sink.
  cudasim::SimContext ctx;
  EXPECT_EQ(decompress(ctx, blob).data, fused);
}

TEST(FusedDecodeWrite, DecompressIntoMatchesDecompress) {
  const auto data = spiky_field(40000, 7);
  CompressorConfig cfg;
  const auto blob = compress(data, Dims::d1(data.size()), cfg);

  cudasim::SimContext ctx_a, ctx_b;
  const auto whole = decompress(ctx_a, blob);
  std::vector<float> dest(data.size());
  const auto into = decompress_into(ctx_b, blob, dest);
  EXPECT_TRUE(into.data.empty());
  EXPECT_EQ(dest, whole.data);
  EXPECT_DOUBLE_EQ(into.total_seconds(), whole.total_seconds());
  EXPECT_DOUBLE_EQ(into.huffman_seconds, whole.huffman_seconds);

  std::vector<float> wrong_size(data.size() - 1);
  cudasim::SimContext ctx_c;
  EXPECT_THROW(decompress_into(ctx_c, blob, wrong_size),
               std::invalid_argument);
}

TEST(FusedDecodeWrite, HostFusedPathMatchesSimulatedDecode) {
  const auto data = spiky_field(50000, 9);
  for (const core::Method method :
       {core::Method::SelfSyncOptimized, core::Method::GapArrayOptimized,
        core::Method::CuszNaive}) {
    CompressorConfig cfg;
    cfg.method = method;
    const auto blob = compress(data, Dims::d1(data.size()), cfg);
    cudasim::SimContext ctx;
    const auto simulated = decompress(ctx, blob);
    std::vector<float> host(data.size());
    host_decompress_into(blob, host);
    EXPECT_EQ(host, simulated.data)
        << core::method_name(method) << " fused host decode diverged";
  }
}

TEST(FusedDecodeWrite, HigherRankBlobsUseTheStagedPathIdentically) {
  const auto data = spiky_field(128 * 96, 11);
  for (const Dims& dims : {Dims::d2(128, 96), Dims::d3(32, 24, 16)}) {
    CompressorConfig cfg;
    const auto blob = compress(data, dims, cfg);
    std::vector<std::uint16_t> codes;
    core::host_decode_symbols(
        blob.encoded, [&codes](std::uint16_t code) { codes.push_back(code); });
    const std::vector<float> staged = lorenzo_reconstruct(
        codes, blob.outliers, blob.dims, blob.abs_error_bound, blob.radius);

    cudasim::SimContext ctx_a, ctx_b;
    EXPECT_EQ(decompress(ctx_a, blob).data, staged) << "rank " << dims.rank;
    std::vector<float> dest(data.size());
    decompress_into(ctx_b, blob, dest);
    EXPECT_EQ(dest, staged) << "rank " << dims.rank;
    std::vector<float> host(data.size());
    host_decompress_into(blob, host);
    EXPECT_EQ(host, staged) << "rank " << dims.rank;
  }
}

TEST(FusedDecodeWrite, AllOutlierChunkReconstructs) {
  // Pathological chunk: every element an outlier (pure noise at a tight
  // bound) — the sink must consume the records in index order.
  util::Xoshiro256 rng(13);
  std::vector<float> data(5000);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 1e6);
  CompressorConfig cfg;
  cfg.rel_error_bound = 1e-9;
  const auto blob = compress(data, Dims::d1(data.size()), cfg);
  ASSERT_GT(blob.outliers.size(), data.size() / 2);
  cudasim::SimContext ctx;
  const auto fused = decompress(ctx, blob);
  std::vector<float> host(data.size());
  host_decompress_into(blob, host);
  EXPECT_EQ(host, fused.data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::abs(data[i] - fused.data[i]),
              blob.abs_error_bound * (1 + 1e-6))
        << i;
  }
}

}  // namespace
}  // namespace ohd::sz

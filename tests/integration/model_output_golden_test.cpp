// Golden pin of the simulated-V100 model output: every timeline entry of
// core::decode on the eight datasets (scale 0.05) x five methods x LUT
// on/off, plus sz::decompress with its host-to-device copy, must match
// model_output_golden.inc to the last bit. The simulator's host speed
// (recorder data structures, allocation, inlining) must never move a
// simulated second.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/huffman_codec.hpp"
#include "data/fields.hpp"
#include "sz/compressor.hpp"
#include "sz/lorenzo.hpp"

namespace ohd {
namespace {

struct Row {
  std::string run, entry, seconds;
  bool operator==(const Row&) const = default;
};

const std::vector<Row> kGolden = {
#include "model_output_golden.inc"
};

/// %.17g round-trips a double, so equal strings mean equal bits.
std::string exact(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", seconds);
  return buf;
}

void append_timeline(std::vector<Row>& rows, const std::string& run,
                     const cudasim::Timeline& timeline) {
  for (const auto& [entry, seconds] : timeline.entries()) {
    rows.push_back({run, entry, exact(seconds)});
  }
}

std::vector<Row> model_rows() {
  constexpr core::Method kMethods[] = {
      core::Method::CuszNaive, core::Method::SelfSyncOriginal,
      core::Method::SelfSyncOptimized, core::Method::GapArrayOriginal8Bit,
      core::Method::GapArrayOptimized};
  std::vector<Row> rows;
  for (const data::Field& field : data::evaluation_suite(0.05)) {
    const auto [lo, hi] =
        std::minmax_element(field.data.begin(), field.data.end());
    const double range = *hi - *lo > 0 ? *hi - *lo : 1.0;
    const sz::QuantizedField q =
        sz::lorenzo_quantize(field.data, field.dims, 1e-3 * range);
    for (const core::Method method : kMethods) {
      for (const bool lut : {true, false}) {
        core::DecoderConfig config;
        config.use_lut_decode = lut;
        const core::EncodedStream enc = core::encode_for_method(
            method, q.codes, q.alphabet_size(), config);
        cudasim::SimContext ctx;
        core::decode(ctx, enc, config);
        append_timeline(rows,
                        field.name + "/" + core::method_name(method) +
                            (lut ? "/lut" : "/bitwise"),
                        ctx.timeline());
      }
    }
    const sz::CompressorConfig cfg;
    const sz::CompressedBlob blob = sz::compress(field.data, field.dims, cfg);
    cudasim::SimContext ctx;
    sz::decompress(ctx, blob, cfg.decoder, /*simulate_h2d=*/true);
    append_timeline(rows, field.name + "/sz::decompress", ctx.timeline());
  }
  return rows;
}

TEST(ModelOutputGolden, TimelineMatchesBitForBit) {
  const std::vector<Row> rows = model_rows();
  EXPECT_EQ(rows.size(), kGolden.size());
  const std::size_t n = std::min(rows.size(), kGolden.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i], kGolden[i])
        << "row " << i << " is now {\"" << rows[i].run << "\", \""
        << rows[i].entry << "\", \"" << rows[i].seconds << "\"}";
  }
}

}  // namespace
}  // namespace ohd

// Golden pin of the simulated-V100 model output: every timeline entry of
// core::decode on the eight datasets (scale 0.05) x five methods x LUT
// on/off, plus sz::decompress with its host-to-device copy, plus the staged
// decode-write with a fixed shared buffer of 1024 and 4096 symbols (the
// gap-array and self-sync decoders without Algorithm 2, as Table I and
// Figure 3 sweep them), must match model_output_golden.inc to the last bit.
// The simulator's host speed (recorder data structures, allocation,
// inlining, closed-form pricing) must never move a simulated second.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "core/gap_decoder.hpp"
#include "core/huffman_codec.hpp"
#include "core/selfsync_decoder.hpp"
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

/// Table I / Figure 3 runs: both staged decoder families on a fixed buffer.
void append_fixed_buffer_runs(std::vector<Row>& rows, const std::string& field,
                              const sz::QuantizedField& q) {
  const core::DecoderConfig config;
  const core::EncodedStream gap = core::encode_for_method(
      core::Method::GapArrayOptimized, q.codes, q.alphabet_size(), config);
  const core::EncodedStream sync = core::encode_for_method(
      core::Method::SelfSyncOptimized, q.codes, q.alphabet_size(), config);
  for (const std::uint32_t buffer : {1024u, 4096u}) {
    const std::string suffix = "/fixed " + std::to_string(buffer);
    core::GapArrayOptions gap_options;
    gap_options.tune_shared_memory = false;
    gap_options.fixed_buffer_symbols = buffer;
    cudasim::SimContext gap_ctx;
    core::decode_gap_array(gap_ctx,
                           std::get<huffman::GapEncoding>(gap.payload),
                           gap.codebook, config, gap_options);
    append_timeline(rows, field + "/gap-array" + suffix, gap_ctx.timeline());

    core::SelfSyncOptions sync_options;
    sync_options.tune_shared_memory = false;
    sync_options.fixed_buffer_symbols = buffer;
    cudasim::SimContext sync_ctx;
    core::decode_selfsync(sync_ctx,
                          std::get<huffman::StreamEncoding>(sync.payload),
                          sync.codebook, config, sync_options);
    append_timeline(rows, field + "/self-sync" + suffix, sync_ctx.timeline());
  }
}

std::vector<Row> model_rows() {
  constexpr core::Method kMethods[] = {
      core::Method::CuszNaive, core::Method::SelfSyncOriginal,
      core::Method::SelfSyncOptimized, core::Method::GapArrayOriginal8Bit,
      core::Method::GapArrayOptimized};
  std::vector<Row> rows;
  std::vector<Row> fixed_buffer_rows;  // pinned after every other row
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
    append_fixed_buffer_runs(fixed_buffer_rows, field.name, q);
  }
  rows.insert(rows.end(), fixed_buffer_rows.begin(), fixed_buffer_rows.end());
  return rows;
}

/// A row in model_output_golden.inc's format.
std::string inc_line(const Row& row) {
  return "{\"" + row.run + "\", \"" + row.entry + "\", \"" + row.seconds +
         "\"},";
}

TEST(ModelOutputGolden, TimelineMatchesBitForBit) {
  const std::vector<Row> rows = model_rows();
  EXPECT_EQ(rows.size(), kGolden.size());
  const std::size_t n = std::min(rows.size(), kGolden.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i], kGolden[i])
        << "row " << i << " is now " << inc_line(rows[i]);
  }
  for (std::size_t i = n; i < rows.size(); ++i) {
    ADD_FAILURE() << "row " << i << " is missing " << inc_line(rows[i]);
  }
}

}  // namespace
}  // namespace ohd

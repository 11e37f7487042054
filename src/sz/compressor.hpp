// The cuSZ-style error-bounded lossy compression pipeline:
//
//   compress:   Lorenzo predict + quantize  ->  Huffman encode (per method)
//   decompress: Huffman decode (per method) ->  reverse Lorenzo
//
// Decompression charges the simulated GPU timeline for every stage, which is
// what the end-to-end experiments (paper Figures 4 and 5) measure. Reads that
// need only the floats take host_decompress_into, which runs no model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/huffman_codec.hpp"
#include "cudasim/exec.hpp"
#include "sz/lorenzo.hpp"
#include "sz/metrics.hpp"

namespace ohd::sz {

struct CompressorConfig {
  /// Point-wise error bound relative to the field's value range (the paper
  /// evaluates at relative eb 1e-3).
  double rel_error_bound = 1e-3;
  std::uint32_t radius = 512;
  core::Method method = core::Method::GapArrayOptimized;
  core::DecoderConfig decoder;
};

/// One serialized outlier record: u64 element index + f32 exact value.
/// Shared by compressed_bytes() accounting, the simulated outlier-scatter
/// kernel, and the byte-level serializers (sz/serialize, pipeline/container).
inline constexpr std::uint64_t kOutlierEntryBytes = 12;

/// Fixed per-blob framing budget: magic + version + dims + error bound +
/// radius + outlier count + embedded-stream length prefix. A stable budget
/// (not chased byte-for-byte) so the size model stays comparable across
/// format revisions; tests/sz/serialize_test.cpp pins it to the real framing.
inline constexpr std::uint64_t kBlobHeaderBytes = 64;

struct CompressedBlob {
  Dims dims;
  double abs_error_bound = 0.0;
  std::uint32_t radius = 512;
  core::EncodedStream encoded;           // Huffman-coded quantization codes
  std::vector<Outlier> outliers;

  std::uint64_t original_bytes() const { return dims.count() * 4; }
  std::uint64_t quant_code_bytes() const {
    return encoded.quant_code_bytes();
  }
  std::uint64_t compressed_bytes() const {
    // Huffman payload + codebook + outliers (index+value) + header.
    return encoded.compressed_bytes() + outliers.size() * kOutlierEntryBytes +
           kBlobHeaderBytes;
  }
  double ratio() const {
    return compression_ratio(original_bytes(), compressed_bytes());
  }
};

struct DecompressionResult {
  std::vector<float> data;
  core::PhaseTimings huffman_phases;
  double huffman_seconds = 0.0;
  double reverse_lorenzo_seconds = 0.0;
  double outlier_scatter_seconds = 0.0;
  double h2d_seconds = 0.0;  // only when simulate_h2d (Figure 5)

  double total_seconds() const {
    return huffman_seconds + reverse_lorenzo_seconds +
           outlier_scatter_seconds + h2d_seconds;
  }
};

/// The absolute bound sz::compress derives from a relative one: the bound
/// scaled by the field's value range (a zero range degenerates to the bound
/// itself). Exposed so the chunked pipeline can fix ONE absolute bound per
/// field and compress its chunks independently — per-chunk relative bounds
/// would drift with each chunk's local range.
double resolve_error_bound(std::span<const float> data, double rel_error_bound);

/// Compresses `data` with the pipeline configured in `config`.
CompressedBlob compress(std::span<const float> data, const Dims& dims,
                        const CompressorConfig& config);

/// Chunk-level entry point: same pipeline, but with a caller-supplied
/// ABSOLUTE error bound (`config.rel_error_bound` is ignored).
CompressedBlob compress_with_abs_bound(std::span<const float> data,
                                       const Dims& dims, double abs_error_bound,
                                       const CompressorConfig& config);

/// Prediction + quantization half of the pipeline, split out so the batch
/// planner can probe a chunk's quantized codes (entropy, outliers, runs)
/// BEFORE committing to an encoding method or codebook.
QuantizedField quantize_with_abs_bound(std::span<const float> data,
                                       const Dims& dims, double abs_error_bound,
                                       const CompressorConfig& config);

/// Encoding half: Huffman-encodes an already-quantized chunk with a private
/// codebook built from the chunk's own histogram. `method` overrides
/// `config.method` so the planner can pick a method per chunk.
CompressedBlob encode_quantized(QuantizedField&& q, core::Method method,
                                const CompressorConfig& config);

/// Codebook-injection variant: encodes against a caller-supplied (shared)
/// codebook, which must cover every quant code of the chunk. The resulting
/// blob serializes WITHOUT codebook bytes via serialize_blob(blob, false).
CompressedBlob encode_quantized(QuantizedField&& q, core::Method method,
                                const CompressorConfig& config,
                                const huffman::Codebook& codebook);

/// Decompresses on the simulated GPU: the model prices every stage while the
/// floats come out of host code. When `simulate_h2d` is set, the compressed
/// payload is first "copied" host-to-device over the PCIe model (Figure 5's
/// scenario); otherwise data is assumed device-resident (in-memory
/// compression, Figure 4). Rank-1 codes stream through Lorenzo1DSink into
/// the result; ranks 2–3 take the staged lorenzo_reconstruct. Equivalent to
/// decompress_into over a fresh vector.
DecompressionResult decompress(cudasim::SimContext& ctx,
                               const CompressedBlob& blob,
                               const core::DecoderConfig& decoder_config = {},
                               bool simulate_h2d = false);

/// Decompress-into variant: identical simulated timings, but the floats land
/// in caller-owned memory (`out.size() == blob.dims.count()`) and the
/// returned result's `data` stays empty. This is the pipeline chunk-decode
/// entry point: each chunk reconstructs straight into its slice of the field
/// buffer, with no per-chunk float vector or merge copy.
DecompressionResult decompress_into(cudasim::SimContext& ctx,
                                    const CompressedBlob& blob,
                                    std::span<float> out,
                                    const core::DecoderConfig& decoder_config = {},
                                    bool simulate_h2d = false);

/// The value path: reconstructs a blob of any rank into `out` on the host,
/// with no simulation and no model seconds. The quant codes are decoded
/// sequentially with the multi-symbol LUT (core::host_decode_symbols); rank 1
/// streams them through Lorenzo1DSink straight into `out` (no intermediate
/// code vector, one pass), ranks 2–3 stage them for lorenzo_reconstruct.
/// Floats are bit-identical to decompress(). Throws std::invalid_argument on
/// a size mismatch, for the 8-bit gap baseline, and for a payload that
/// decodes to an unassigned prefix.
void host_decompress_into(const CompressedBlob& blob, std::span<float> out);

}  // namespace ohd::sz

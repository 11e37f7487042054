#include "sz/compressor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/decode_write.hpp"

namespace ohd::sz {

double resolve_error_bound(std::span<const float> data,
                           double rel_error_bound) {
  if (rel_error_bound <= 0.0) {
    throw std::invalid_argument("relative error bound must be positive");
  }
  float lo = data.empty() ? 0.0f : data[0];
  float hi = lo;
  for (float v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  return rel_error_bound * (range > 0.0 ? range : 1.0);
}

CompressedBlob compress(std::span<const float> data, const Dims& dims,
                        const CompressorConfig& config) {
  return compress_with_abs_bound(
      data, dims, resolve_error_bound(data, config.rel_error_bound), config);
}

CompressedBlob compress_with_abs_bound(std::span<const float> data,
                                       const Dims& dims, double abs_error_bound,
                                       const CompressorConfig& config) {
  return encode_quantized(
      quantize_with_abs_bound(data, dims, abs_error_bound, config),
      config.method, config);
}

QuantizedField quantize_with_abs_bound(std::span<const float> data,
                                       const Dims& dims, double abs_error_bound,
                                       const CompressorConfig& config) {
  if (abs_error_bound <= 0.0) {
    throw std::invalid_argument("absolute error bound must be positive");
  }
  if (data.size() != dims.count()) {
    throw std::invalid_argument("data size does not match dimensions");
  }
  return lorenzo_quantize(data, dims, abs_error_bound, config.radius);
}

namespace {

CompressedBlob blob_from_quantized(QuantizedField&& q) {
  CompressedBlob blob;
  blob.dims = q.dims;
  blob.abs_error_bound = q.error_bound;
  blob.radius = q.radius;
  blob.outliers = std::move(q.outliers);
  return blob;
}

}  // namespace

CompressedBlob encode_quantized(QuantizedField&& q, core::Method method,
                                const CompressorConfig& config) {
  const std::uint32_t alphabet = q.alphabet_size();
  const std::vector<std::uint16_t> codes = std::move(q.codes);
  CompressedBlob blob = blob_from_quantized(std::move(q));
  blob.encoded =
      core::encode_for_method(method, codes, alphabet, config.decoder);
  return blob;
}

CompressedBlob encode_quantized(QuantizedField&& q, core::Method method,
                                const CompressorConfig& config,
                                const huffman::Codebook& codebook) {
  const std::vector<std::uint16_t> codes = std::move(q.codes);
  CompressedBlob blob = blob_from_quantized(std::move(q));
  blob.encoded =
      core::encode_with_codebook(method, codes, codebook, config.decoder);
  return blob;
}

namespace {

/// The checks both decode paths make before decoding: `out` holds exactly
/// the blob's elements, and the codes are multi-byte.
void require_reconstructible(const CompressedBlob& blob,
                             std::span<const float> out) {
  if (out.size() != blob.dims.count()) {
    throw std::invalid_argument(
        "destination size does not match blob dimensions");
  }
  if (blob.encoded.method == core::Method::GapArrayOriginal8Bit) {
    throw std::invalid_argument(
        "the 8-bit gap-array baseline cannot reconstruct multi-byte "
        "quantization codes; it exists for decode benchmarking only");
  }
}

/// The simulated decompression stages of decompress_into: H2D (optional),
/// Huffman decode, outlier scatter, reverse Lorenzo. Fills the timings of
/// `result` and returns the decoded quant codes.
core::DecodeResult run_simulated_stages(cudasim::SimContext& ctx,
                                        const CompressedBlob& blob,
                                        const core::DecoderConfig& decoder_config,
                                        bool simulate_h2d,
                                        DecompressionResult& result) {
  if (simulate_h2d) {
    result.h2d_seconds =
        ctx.host_to_device(blob.compressed_bytes(), "h2d_compressed");
  }

  // Stage 1: Huffman decode (the paper's focus).
  core::DecodeResult decoded = core::decode(ctx, blob.encoded, decoder_config);
  result.huffman_phases = decoded.phases;
  result.huffman_seconds = decoded.phases.total();

  // Stage 2: outlier scatter — write the stored exact values back. Sparse
  // uncoalesced writes, one per outlier.
  const std::uint64_t n = blob.dims.count();
  if (!blob.outliers.empty()) {
    const std::uint64_t out_addr = ctx.reserve_address(n * 4);
    const std::uint64_t rec_addr =
        ctx.reserve_address(blob.outliers.size() * kOutlierEntryBytes);
    const std::uint32_t block = 256;
    const std::uint32_t grid = static_cast<std::uint32_t>(
        (blob.outliers.size() + block - 1) / block);
    const auto r = ctx.launch(
        "outlier_scatter", {grid, block, 0}, [&](cudasim::BlockCtx& blk) {
          blk.for_each_thread([&](cudasim::ThreadCtx& t) {
            const std::uint64_t i = blk.global_tid(t);
            if (i >= blob.outliers.size()) return;
            t.global_read(rec_addr + i * kOutlierEntryBytes,
                          static_cast<std::uint32_t>(kOutlierEntryBytes));
            t.global_write(out_addr + blob.outliers[i].index * 4, 4);
            t.charge(4);
          });
        });
    result.outlier_scatter_seconds = r.timing.seconds;
  }

  // Stage 3: reverse Lorenzo — a partial-sum scan kernel streaming the codes
  // and producing the reconstructed field (functionally executed on the
  // host; charged as the coalesced streaming kernel cuSZ runs).
  {
    const std::uint64_t codes_addr = ctx.reserve_address(n * 2);
    const std::uint64_t out_addr = ctx.reserve_address(n * 4);
    const std::uint32_t block = 256;
    const std::uint32_t grid =
        static_cast<std::uint32_t>((n + block - 1) / block);
    const auto r = ctx.launch(
        "reverse_lorenzo", {grid, block, 0}, [&](cudasim::BlockCtx& blk) {
          const std::uint64_t first =
              static_cast<std::uint64_t>(blk.block_idx()) * block;
          const cudasim::StreamAccess accesses[] = {
              {codes_addr + first * 2, 2, /*is_write=*/false},
              {out_addr + first * 4, 4, /*is_write=*/true}};
          blk.stream_phase(std::min<std::uint64_t>(block, n - first),
                           accesses, /*cycles_per_elem=*/10);
        });
    result.reverse_lorenzo_seconds = r.timing.seconds;
  }
  return decoded;
}

/// Ranks 2–3 reconstruct from the whole staged code vector: their predictor
/// reads neighbours along every axis.
void reconstruct_staged(const CompressedBlob& blob,
                        std::span<const std::uint16_t> codes,
                        std::span<float> out) {
  const std::vector<float> recon = lorenzo_reconstruct(
      codes, blob.outliers, blob.dims, blob.abs_error_bound, blob.radius);
  std::copy(recon.begin(), recon.end(), out.begin());
}

}  // namespace

DecompressionResult decompress(cudasim::SimContext& ctx,
                               const CompressedBlob& blob,
                               const core::DecoderConfig& decoder_config,
                               bool simulate_h2d) {
  std::vector<float> data(blob.dims.count());
  DecompressionResult result =
      decompress_into(ctx, blob, data, decoder_config, simulate_h2d);
  result.data = std::move(data);
  return result;
}

DecompressionResult decompress_into(cudasim::SimContext& ctx,
                                    const CompressedBlob& blob,
                                    std::span<float> out,
                                    const core::DecoderConfig& decoder_config,
                                    bool simulate_h2d) {
  require_reconstructible(blob, out);
  DecompressionResult result;
  const core::DecodeResult decoded =
      run_simulated_stages(ctx, blob, decoder_config, simulate_h2d, result);
  if (blob.dims.rank == 1) {
    Lorenzo1DSink sink(out, blob.outliers, blob.abs_error_bound, blob.radius);
    for (const std::uint16_t code : decoded.symbols) sink(code);
    sink.finish();
  } else {
    reconstruct_staged(blob, decoded.symbols, out);
  }
  return result;
}

void host_decompress_into(const CompressedBlob& blob, std::span<float> out) {
  require_reconstructible(blob, out);
  if (blob.dims.rank == 1) {
    Lorenzo1DSink sink(out, blob.outliers, blob.abs_error_bound, blob.radius);
    core::host_decode_symbols(blob.encoded, sink);
    sink.finish();
  } else {
    std::vector<std::uint16_t> codes;
    codes.reserve(blob.dims.count());
    core::host_decode_symbols(
        blob.encoded, [&codes](std::uint16_t code) { codes.push_back(code); });
    reconstruct_staged(blob, codes, out);
  }
}

}  // namespace ohd::sz

// The decode-and-write phase shared by the self-synchronization and gap-array
// decoders, in both variants the paper evaluates:
//
//  * decode_write_direct — the ORIGINAL scheme: every thread decodes its
//    subsequence and stores each symbol straight to global memory at its
//    output index. Warp lanes write to locations ~one subsequence's output
//    apart, so stores are uncoalesced (one 32-byte transaction per symbol),
//    which is the §IV-B bottleneck.
//  * decode_write_staged — the paper's Algorithm 1: decode into a block-local
//    shared-memory buffer, then cooperatively copy the buffer to global
//    memory with fully coalesced stores. Iterates when the buffer is smaller
//    than the block's total output.
//  * decode_write_tuned — the paper's Algorithm 2 (shmem_tuner.hpp) drives
//    decode_write_staged with per-compression-ratio-class buffer sizes.
//
// Alongside the simulated kernels lives the HOST-side decode-write sink
// (host_decode_symbols): a sequential multi-symbol-LUT decode of a whole
// encoded stream that hands each quantization code to a caller sink in
// stream order — the front half of the fused decode→dequantize→reconstruct
// path (sz::Lorenzo1DSink supplies the back half), with no intermediate
// quant-code vector.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/huffman_codec.hpp"
#include "core/phase_timings.hpp"
#include "cudasim/exec.hpp"
#include "huffman/codebook.hpp"
#include "huffman/decode_step.hpp"
#include "huffman/encoder.hpp"

namespace ohd::core {

/// Everything the decode+write phase needs, prepared by the synchronization
/// (self-sync) or counting (gap-array) phases.
struct WritePlan {
  const huffman::StreamEncoding* stream = nullptr;
  const huffman::Codebook* codebook = nullptr;

  /// Validated start bit per subsequence, plus a sentinel entry equal to
  /// total_bits. Size = num_subseqs + 1.
  std::span<const std::uint64_t> start_bit;
  /// Output index per subsequence, plus a sentinel equal to the total symbol
  /// count. Size = num_subseqs + 1.
  std::span<const std::uint64_t> out_index;

  /// Simulated device addresses for the coalescing model.
  std::uint64_t units_addr = 0;
  std::uint64_t start_bit_addr = 0;
  std::uint64_t out_index_addr = 0;
  std::uint64_t out_addr = 0;
  std::uint64_t table_addr = 0;

  /// Bytes per output symbol: 2 for the multi-byte decoders, 1 for the
  /// original 8-bit gap-array decoder.
  std::uint32_t symbol_bytes = 2;

  std::uint32_t num_subseqs() const {
    return static_cast<std::uint32_t>(start_bit.size() - 1);
  }
};

/// Original direct-store decode+write over all subsequences.
/// `record_table_reads` marks the original implementations, which fetch the
/// decode tables from global memory per codeword.
double decode_write_direct(cudasim::SimContext& ctx, const WritePlan& plan,
                           std::span<std::uint16_t> out,
                           const DecoderConfig& config,
                           bool record_table_reads);

/// Algorithm 1 with a fixed shared buffer of `buffer_symbols` u16 entries,
/// over the given sequences (pass an empty span for "all sequences").
/// Returns the simulated kernel seconds (body time + launch overhead).
double decode_write_staged(cudasim::SimContext& ctx, const WritePlan& plan,
                           std::span<std::uint16_t> out,
                           const DecoderConfig& config,
                           std::uint32_t buffer_symbols,
                           std::span<const std::uint32_t> sequence_ids = {});

/// Result of the Algorithm 2 tuned decode+write.
struct TunedDecodeResult {
  double tune_seconds = 0.0;          // classify + histogram + sort + readback
  double decode_write_seconds = 0.0;  // concurrent per-class kernels
  std::uint32_t t_high = 0;
  std::vector<std::uint32_t> class_freq;           // sequences per class
  std::vector<std::uint32_t> class_buffer_symbols; // buffer chosen per class
};

/// Algorithm 2: classify each sequence by compression ratio, then launch one
/// staged kernel per class with a class-specific buffer, on concurrent
/// streams.
TunedDecodeResult decode_write_tuned(cudasim::SimContext& ctx,
                                     const WritePlan& plan,
                                     std::span<std::uint16_t> out,
                                     const DecoderConfig& config);

// ---------------------------------------------------------------------------
// Host-side decode-write sink (no simulation).

namespace detail {

/// Decodes exactly `n` codewords from `units`/`total_bits` starting at
/// `start_bit`, invoking sink(symbol) for each, with the multi-symbol LUT on
/// the bulk and single-symbol steps on the < kMaxMultiSymbols tail. Throws
/// std::invalid_argument on a prefix that matches no codeword: a codebook
/// may be incomplete (a lone 1-bit code), so a frame with valid CRCs can
/// still hold such bits, and that is bad data, never a library fault.
template <typename Sink>
void host_decode_span(std::span<const std::uint32_t> units,
                      std::uint64_t total_bits, std::uint64_t start_bit,
                      std::uint64_t n, const huffman::Codebook& cb,
                      Sink&& sink) {
  const huffman::DecodeTable& table = cb.decode_table();
  bitio::BitReader reader(units, total_bits);
  reader.seek(start_bit);
  std::uint64_t emitted = 0;
  while (emitted + huffman::DecodeTable::kMaxMultiSymbols <= n) {
    const huffman::DecodedBatch batch = huffman::decode_multi(reader, cb, table);
    if (batch.count == 0) [[unlikely]] {
      throw std::invalid_argument("host decode hit an unassigned prefix");
    }
    for (std::uint32_t i = 0; i < batch.count; ++i) sink(batch.symbols[i]);
    emitted += batch.count;
  }
  while (emitted < n) {
    const huffman::DecodedSymbol d = huffman::decode_one_lut(reader, cb, table);
    if (!d.valid) [[unlikely]] {
      throw std::invalid_argument("host decode hit an unassigned prefix");
    }
    sink(d.symbol);
    ++emitted;
  }
}

}  // namespace detail

/// Sequentially decodes ALL of an encoded stream's symbols on the host (no
/// simulated kernels, no intermediate symbol vector) and hands each one to
/// `sink(std::uint16_t)` in stream order. Handles every payload layout: the
/// plain and gap-array streams decode front to back (the gap sidecar is a
/// parallel-decoder aid and is not needed sequentially); the chunked layout
/// decodes chunk by chunk from its unit-aligned offsets.
template <typename Sink>
void host_decode_symbols(const EncodedStream& enc, Sink&& sink) {
  if (const auto* plain = std::get_if<huffman::StreamEncoding>(&enc.payload)) {
    detail::host_decode_span(plain->units, plain->total_bits, 0,
                             enc.num_symbols, enc.codebook, sink);
  } else if (const auto* gap = std::get_if<huffman::GapEncoding>(&enc.payload)) {
    detail::host_decode_span(gap->stream.units, gap->stream.total_bits, 0,
                             enc.num_symbols, enc.codebook, sink);
  } else {
    const auto& chunked = std::get<huffman::ChunkedEncoding>(enc.payload);
    for (std::uint32_t c = 0; c < chunked.num_chunks(); ++c) {
      detail::host_decode_span(chunked.units, chunked.total_bits,
                               chunked.chunk_bit_offset[c],
                               chunked.chunk_num_symbols[c], enc.codebook,
                               sink);
    }
  }
}

}  // namespace ohd::core

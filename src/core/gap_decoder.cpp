#include "core/gap_decoder.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/decode_write.hpp"
#include "core/subseq_decode.hpp"
#include "cudasim/algorithms.hpp"

namespace ohd::core {

DecodeResult decode_gap_array(cudasim::SimContext& ctx,
                              const huffman::GapEncoding& enc,
                              const huffman::Codebook& cb,
                              const DecoderConfig& config,
                              const GapArrayOptions& options) {
  DecodeResult result;
  const huffman::StreamEncoding& stream = enc.stream;
  result.symbols.assign(stream.num_symbols, 0);
  const std::uint32_t num_subseqs = stream.num_subseqs();
  if (num_subseqs == 0) return result;
  if (enc.gaps.size() != num_subseqs) {
    throw std::invalid_argument("gap array size mismatch");
  }

  const std::uint32_t S = config.threads_per_block;
  const std::uint32_t num_seqs = stream.num_seqs();
  const std::uint64_t subseq_bits = stream.geometry.subseq_bits();

  const std::uint64_t units_addr = ctx.reserve_address(stream.units.size() * 4);
  const std::uint64_t gaps_addr = ctx.reserve_address(enc.gaps.size());
  const std::uint64_t start_addr = ctx.reserve_address((num_subseqs + 1) * 8);
  const std::uint64_t count_addr = ctx.reserve_address(num_subseqs * 4);
  const std::uint64_t table_addr = ctx.reserve_address(1 << 18);

  // ---- Output-index phase: expand gaps to absolute starts and count the
  // symbols per subsequence (the "redundant decoding" of §IV-C), then prefix
  // sum. All charged to the same phase, as in Table II's "get output idx".
  const double t0 = ctx.timeline().total();
  std::vector<std::uint64_t> start_bit(num_subseqs + 1, 0);
  std::vector<std::uint32_t> sym_count(num_subseqs, 0);
  ctx.launch("gap_count", {num_seqs, S, 0}, [&](cudasim::BlockCtx& blk) {
    blk.for_each_thread([&](cudasim::ThreadCtx& t) {
      const std::uint64_t g = blk.global_tid(t);
      if (g >= num_subseqs) return;
      // Gap loads are dense bytes: fully coalesced.
      t.global_read(gaps_addr + g, 1);
      t.charge(4);
      const std::uint64_t start =
          std::min<std::uint64_t>(g * subseq_bits + enc.gaps[g],
                                  stream.total_bits);
      start_bit[g] = start;
      t.global_write(start_addr + g * 8, 8);
      // Counting needs the NEXT subsequence's start as the limit; recompute
      // it from the gap array rather than waiting on a barrier.
      const std::uint64_t limit =
          g + 1 < num_subseqs
              ? std::min<std::uint64_t>((g + 1) * subseq_bits +
                                            enc.gaps[g + 1],
                                        stream.total_bits)
              : stream.total_bits;
      if (g + 1 < num_subseqs) t.global_read(gaps_addr + g + 1, 1);
      const auto r =
          count_span(t, stream, units_addr, cb, start, limit, config);
      sym_count[g] = r.num_symbols;
      t.global_write(count_addr + g * 4, 4);
    });
  });
  start_bit[num_subseqs] = stream.total_bits;

  const std::vector<std::uint64_t> out_index =
      cudasim::device_exclusive_prefix_sum(ctx, sym_count, "output_index");
  result.phases.output_index_s = ctx.timeline().total() - t0;
  if (out_index.back() != stream.num_symbols) {
    // The codebook may be incomplete, so a payload bit pattern that matches
    // no codeword is bad data.
    throw std::invalid_argument(
        "gap-array decode found a different symbol count than the stream "
        "declares (bits that match no codeword, or a corrupt payload)");
  }

  // ---- Decode + write phase -------------------------------------------------
  WritePlan plan;
  plan.stream = &stream;
  plan.codebook = &cb;
  plan.start_bit = start_bit;
  plan.out_index = out_index;
  plan.units_addr = units_addr;
  plan.start_bit_addr = start_addr;
  plan.out_index_addr = ctx.reserve_address(out_index.size() * 8);
  plan.out_addr = ctx.reserve_address(stream.num_symbols * 2);
  plan.table_addr = table_addr;
  plan.symbol_bytes = options.symbol_bytes;

  if (!options.staged_writes) {
    result.phases.decode_write_s = decode_write_direct(
        ctx, plan, result.symbols, config, /*record_table_reads=*/true);
  } else if (options.tune_shared_memory) {
    const TunedDecodeResult tuned =
        decode_write_tuned(ctx, plan, result.symbols, config);
    result.phases.tune_s = tuned.tune_seconds;
    result.phases.decode_write_s = tuned.decode_write_seconds;
  } else {
    result.phases.decode_write_s = decode_write_staged(
        ctx, plan, result.symbols, config, options.fixed_buffer_symbols);
  }
  return result;
}

}  // namespace ohd::core

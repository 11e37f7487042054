#include "core/selfsync_decoder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/decode_write.hpp"
#include "core/subseq_decode.hpp"
#include "cudasim/algorithms.hpp"

namespace ohd::core {

namespace {

struct DeviceAddrs {
  std::uint64_t units;
  std::uint64_t start_bit;
  std::uint64_t sym_count;
  std::uint64_t seq_exit;
  std::uint64_t sync_flag;
  std::uint64_t out_index;
  std::uint64_t out;
  std::uint64_t table;
};

DeviceAddrs reserve_addrs(cudasim::SimContext& ctx,
                          const huffman::StreamEncoding& enc) {
  DeviceAddrs a;
  const std::uint64_t n = enc.num_subseqs();
  a.units = ctx.reserve_address(enc.units.size() * 4);
  a.start_bit = ctx.reserve_address((n + 1) * 8);
  a.sym_count = ctx.reserve_address(n * 4);
  a.seq_exit = ctx.reserve_address(enc.num_seqs() * 8);
  a.sync_flag = ctx.reserve_address(n * 4);
  a.out_index = ctx.reserve_address((n + 1) * 8);
  a.out = ctx.reserve_address(enc.num_symbols * 2);
  a.table = ctx.reserve_address(1 << 18);
  return a;
}

}  // namespace

SyncInfo selfsync_synchronize(cudasim::SimContext& ctx,
                              const huffman::StreamEncoding& enc,
                              const huffman::Codebook& cb,
                              const DecoderConfig& config, bool early_exit) {
  SyncInfo info;
  const std::uint32_t num_subseqs = enc.num_subseqs();
  const std::uint32_t S = config.threads_per_block;
  const std::uint32_t num_seqs = enc.num_seqs();
  const std::uint64_t subseq_bits = enc.geometry.subseq_bits();
  const CostModel& cost = config.cost;

  info.start_bit.assign(num_subseqs + 1, 0);
  info.sym_count.assign(num_subseqs, 0);
  for (std::uint32_t g = 0; g < num_subseqs; ++g) {
    info.start_bit[g] = static_cast<std::uint64_t>(g) * subseq_bits;
  }
  info.start_bit[num_subseqs] = enc.total_bits;
  if (num_subseqs == 0) return info;

  std::vector<std::uint64_t> seq_exit(num_seqs, 0);
  const DeviceAddrs addrs = reserve_addrs(ctx, enc);

  // ---- Phase 1: intra-sequence synchronization ----------------------------
  const auto intra = ctx.launch(
      "intra_sync", {num_seqs, S, 0}, [&](cudasim::BlockCtx& blk) {
        const std::uint32_t first = blk.block_idx() * S;
        const std::uint32_t last = std::min(first + S, num_subseqs);

        std::vector<std::uint64_t> pos(S, 0);
        std::vector<std::uint32_t> next_s(S, 0);
        std::vector<char> finished(S, 0);
        std::uint32_t num_finished = 0;

        // Iteration 0: every thread decodes its own subsequence from its
        // (assumed) boundary start.
        blk.for_each_thread([&](cudasim::ThreadCtx& t) {
          const std::uint32_t g = first + t.tid();
          if (g >= num_subseqs) {
            finished[t.tid()] = 1;
            ++num_finished;
            return;
          }
          const std::uint64_t start =
              t.tid() == 0 ? info.start_bit[first]
                           : static_cast<std::uint64_t>(g) * subseq_bits;
          const std::uint64_t limit =
              static_cast<std::uint64_t>(g + 1) * subseq_bits;
          const auto r = count_span(t, enc, addrs.units, cb, start, limit,
                                    config);
          info.sym_count[g] = r.num_symbols;
          if (g + 1 < last) {
            info.start_bit[g + 1] = r.end_bit;
            t.global_write(addrs.start_bit + (g + 1) * 8, 8);
          } else {
            seq_exit[blk.block_idx()] = r.end_bit;
            t.global_write(addrs.seq_exit + blk.block_idx() * 8, 8);
          }
          t.global_write(addrs.sym_count + g * 4, 4);
          t.charge(6);
          pos[t.tid()] = r.end_bit;
          next_s[t.tid()] = g + 1;
        });

        // Iterations 1..S-1: each thread continues into the next
        // subsequence until its decode "meets up" with the recorded
        // synchronization point. The ORIGINAL kernel always runs all S-1
        // iterations (every barrier costs the whole block); the OPTIMIZED
        // kernel votes with __all_sync and exits as soon as every thread has
        // validated its point (§IV-A).
        for (std::uint32_t iter = 1; iter < S; ++iter) {
          if (early_exit && num_finished == S) break;
          blk.for_each_thread([&](cudasim::ThreadCtx& t) {
            t.charge(early_exit ? cost.all_sync_cycles
                                : cost.sync_check_cycles);
            if (!early_exit) {
              // The published kernel decides per-iteration progress by
              // re-polling its subsequence's synchronization flag from
              // global memory (a volatile load every busy-wait round); the
              // optimized variant replaces the poll with a register-only
              // __all_sync vote, which is exactly why early exit also shows
              // up in the memory-bound regime.
              const std::uint32_t g = first + t.tid();
              if (g < num_subseqs) t.global_read(addrs.sync_flag + g * 4, 4);
            }
            if (finished[t.tid()]) return;
            const std::uint32_t s = next_s[t.tid()];
            if (s >= last) {
              finished[t.tid()] = 1;
              ++num_finished;
              return;
            }
            const std::uint64_t limit =
                static_cast<std::uint64_t>(s + 1) * subseq_bits;
            const auto r = count_span(t, enc, addrs.units, cb, pos[t.tid()],
                                      limit, config);
            info.sym_count[s] = r.num_symbols;
            t.global_write(addrs.sym_count + s * 4, 4);
            const bool at_seq_end = (s + 1 == last);
            std::uint64_t& slot = at_seq_end ? seq_exit[blk.block_idx()]
                                             : info.start_bit[s + 1];
            const std::uint64_t slot_addr =
                at_seq_end ? addrs.seq_exit + blk.block_idx() * 8
                           : addrs.start_bit + (s + 1) * 8;
            t.global_read(slot_addr, 8);
            t.charge(6);
            if (r.end_bit == slot) {
              finished[t.tid()] = 1;
              ++num_finished;
            } else {
              slot = r.end_bit;
              t.global_write(slot_addr, 8);
              if (!early_exit && s < num_subseqs) {
                // Publish the moved sync point for the busy-wait pollers.
                t.global_write(addrs.sync_flag + s * 4, 4);
              }
            }
            pos[t.tid()] = r.end_bit;
            next_s[t.tid()] = s + 1;
          });
        }
      });
  info.intra_seconds = intra.timing.seconds;

  // ---- Phase 2: inter-sequence synchronization -----------------------------
  // Each block compares its entry (the previous sequence's exit) with the
  // assumed one and re-synchronizes its chain if they differ; iterate until
  // no exit changes. Exits are snapshotted per iteration to match the GPU's
  // parallel-read semantics.
  for (std::uint32_t round = 0; round < num_seqs + 1; ++round) {
    bool changed = false;
    const std::vector<std::uint64_t> exit_snapshot = seq_exit;
    const auto inter = ctx.launch(
        "inter_sync", {num_seqs, S, 0}, [&](cudasim::BlockCtx& blk) {
          blk.for_each_thread([&](cudasim::ThreadCtx& t) {
            if (t.tid() != 0) return;  // lane 0 walks the chain
            const std::uint32_t j = blk.block_idx();
            const std::uint32_t first = j * S;
            const std::uint32_t last = std::min(first + S, num_subseqs);
            const std::uint64_t entry =
                j == 0 ? 0 : exit_snapshot[j - 1];
            t.global_read(addrs.seq_exit + (j == 0 ? 0 : (j - 1)) * 8, 8);
            t.global_read(addrs.start_bit + first * 8, 8);
            t.charge(8);
            if (entry == info.start_bit[first]) return;
            info.start_bit[first] = entry;
            t.global_write(addrs.start_bit + first * 8, 8);
            std::uint64_t p = entry;
            for (std::uint32_t s = first; s < last; ++s) {
              const std::uint64_t limit =
                  static_cast<std::uint64_t>(s + 1) * subseq_bits;
              const auto r =
                  count_span(t, enc, addrs.units, cb, p, limit, config);
              info.sym_count[s] = r.num_symbols;
              t.global_write(addrs.sym_count + s * 4, 4);
              const bool at_seq_end = (s + 1 == last);
              std::uint64_t& slot =
                  at_seq_end ? seq_exit[j] : info.start_bit[s + 1];
              t.charge(4);
              if (r.end_bit == slot) break;  // met an existing sync point
              slot = r.end_bit;
              t.global_write(at_seq_end ? addrs.seq_exit + j * 8
                                        : addrs.start_bit + (s + 1) * 8,
                             8);
              if (at_seq_end) changed = true;
              p = r.end_bit;
            }
          });
        });
    info.inter_seconds += inter.timing.seconds;
    ++info.inter_iterations;
    if (!changed) break;
  }

  info.start_bit[num_subseqs] = enc.total_bits;
  return info;
}

DecodeResult decode_selfsync(cudasim::SimContext& ctx,
                             const huffman::StreamEncoding& enc,
                             const huffman::Codebook& cb,
                             const DecoderConfig& config,
                             const SelfSyncOptions& options) {
  DecodeResult result;
  result.symbols.assign(enc.num_symbols, 0);
  if (enc.num_subseqs() == 0) return result;

  SyncInfo sync =
      selfsync_synchronize(ctx, enc, cb, config, options.early_exit);
  result.phases.intra_sync_s = sync.intra_seconds;
  result.phases.inter_sync_s = sync.inter_seconds;

  // ---- Phase 3: output indices ---------------------------------------------
  const double t_before = ctx.timeline().total();
  const std::vector<std::uint64_t> out_index =
      cudasim::device_exclusive_prefix_sum(ctx, sync.sym_count,
                                           "output_index");
  result.phases.output_index_s = ctx.timeline().total() - t_before;
  if (out_index.back() != enc.num_symbols) {
    // The codebook may be incomplete (the encoder itself writes a lone 1-bit
    // code), so a payload bit pattern that matches no codeword is bad data.
    throw std::invalid_argument(
        "self-sync decode found a different symbol count than the stream "
        "declares (bits that match no codeword, or a corrupt payload)");
  }

  // ---- Phase 4: decode + write ---------------------------------------------
  WritePlan plan;
  plan.stream = &enc;
  plan.codebook = &cb;
  plan.start_bit = sync.start_bit;
  plan.out_index = out_index;
  plan.units_addr = ctx.reserve_address(enc.units.size() * 4);
  plan.start_bit_addr = ctx.reserve_address(sync.start_bit.size() * 8);
  plan.out_index_addr = ctx.reserve_address(out_index.size() * 8);
  plan.out_addr = ctx.reserve_address(enc.num_symbols * 2);
  plan.table_addr = ctx.reserve_address(1 << 18);

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

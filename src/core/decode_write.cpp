#include "core/decode_write.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/subseq_decode.hpp"
#include "cudasim/algorithms.hpp"

namespace ohd::core {

namespace {

/// Number of subsequences handled by one block (= block_dim).
std::uint32_t seqs_in(const WritePlan& plan, const DecoderConfig& config) {
  const std::uint32_t s = config.threads_per_block;
  return (plan.num_subseqs() + s - 1) / s;
}

}  // namespace

double decode_write_direct(cudasim::SimContext& ctx, const WritePlan& plan,
                           std::span<std::uint16_t> out,
                           const DecoderConfig& config,
                           bool record_table_reads) {
  const std::uint32_t num_subseqs = plan.num_subseqs();
  if (num_subseqs == 0) return 0.0;
  const std::uint32_t block_dim = config.threads_per_block;
  const std::uint32_t grid = seqs_in(plan, config);

  const cudasim::DeviceSpec& spec = ctx.spec();
  const auto result = ctx.launch(
      "decode_write", {grid, block_dim, 0}, [&](cudasim::BlockCtx& blk) {
        blk.for_each_thread([&](cudasim::ThreadCtx& t) {
          const std::uint64_t g = blk.global_tid(t);
          if (g >= num_subseqs) return;
          // Load this thread's bounds (coalesced: consecutive lanes read
          // consecutive u64 entries).
          t.global_read(plan.start_bit_addr + g * 8, 16);
          t.global_read(plan.out_index_addr + g * 8, 8);
          t.charge(6);
          const std::uint64_t out_base = plan.out_index[g];
          // Store-stall ramp for this warp's scattered one-symbol stores:
          // footprint = 32 lanes x this thread's output bytes (neighbouring
          // lanes decode neighbouring subsequences, so their output sizes
          // are statistically alike). See DeviceSpec::scatter_* for the
          // calibration rationale.
          const std::uint64_t footprint =
              (plan.out_index[g + 1] - out_base) * plan.symbol_bytes *
              spec.warp_size;
          double ramp = 0.0;
          if (footprint > spec.scatter_window_lo_bytes) {
            ramp = std::min(
                1.0, static_cast<double>(footprint -
                                         spec.scatter_window_lo_bytes) /
                         (spec.scatter_window_hi_bytes -
                          spec.scatter_window_lo_bytes));
          }
          const auto stall_cycles = static_cast<std::uint64_t>(
              ramp * spec.scatter_penalty_cycles * spec.warp_size);
          decode_span(
              t, *plan.stream, plan.units_addr, *plan.codebook,
              plan.start_bit[g], plan.start_bit[g + 1], config,
              record_table_reads, plan.table_addr,
              [&](std::uint16_t sym, std::uint32_t k) {
                // Scattered store: lanes write ~one subsequence's output
                // apart, so each store is its own 32B transaction and, for
                // wide footprints, a store-queue stall.
                out[out_base + k] = sym;
                t.global_write(
                    plan.out_addr + (out_base + k) * plan.symbol_bytes,
                    plan.symbol_bytes);
                t.charge(1 + stall_cycles);
              });
        });
      });
  return result.timing.seconds;
}

namespace {

/// Shared implementation of Algorithm 1 for one launch over a set of
/// sequences. When `sequence_ids` is empty, block b decodes sequence b;
/// otherwise block b decodes sequence sequence_ids[b] (Algorithm 2's
/// compIndex indirection).
cudasim::KernelResult run_staged(cudasim::SimContext& ctx,
                                 const WritePlan& plan,
                                 std::span<std::uint16_t> out,
                                 const DecoderConfig& config,
                                 std::uint32_t buffer_symbols,
                                 std::span<const std::uint32_t> sequence_ids,
                                 bool timed) {
  const std::uint32_t num_subseqs = plan.num_subseqs();
  const std::uint32_t block_dim = config.threads_per_block;
  const std::uint32_t total_seqs = (num_subseqs + block_dim - 1) / block_dim;
  const std::uint32_t grid = sequence_ids.empty()
                                 ? total_seqs
                                 : static_cast<std::uint32_t>(
                                       sequence_ids.size());
  // A subsequence can hold at most subseq_bits one-bit codewords, so the
  // buffer must be able to hold one subsequence's worth of output or the
  // inner loop cannot make progress: a thread whose output never fits caps
  // tempEnd at its own start in every iteration.
  const std::uint64_t max_per_subseq = plan.stream->geometry.subseq_bits();
  if (buffer_symbols < max_per_subseq) {
    throw std::invalid_argument(
        "shared buffer smaller than one subsequence's worst-case output");
  }
  const std::uint32_t shmem_bytes = buffer_symbols * 2;

  const cudasim::LaunchConfig cfg{grid, block_dim, shmem_bytes};
  // Per-thread registers, loaded once per block (phase 0 rewrites start and
  // end of every lane, so they are shared by all blocks of the launch).
  std::vector<std::uint64_t> start(block_dim), end(block_dim);
  std::vector<std::uint64_t> bit_lo(block_dim), bit_hi(block_dim);
  const auto body = [&](cudasim::BlockCtx& blk) {
    const std::uint32_t seq = sequence_ids.empty()
                                  ? blk.block_idx()
                                  : sequence_ids[blk.block_idx()];
    const std::uint64_t first = static_cast<std::uint64_t>(seq) * block_dim;
    auto* buffer = blk.shared_as<std::uint16_t>();

    std::uint64_t si = 0, ei = 0;
    blk.for_each_thread([&](cudasim::ThreadCtx& t) {
      if (!sequence_ids.empty() && t.tid() == 0) {
        // compIndex indirection load (Algorithm 2).
        t.global_read(plan.out_index_addr + blk.block_idx() * 4, 4);
      }
      const std::uint64_t g = first + t.tid();
      if (g >= num_subseqs) {
        start[t.tid()] = end[t.tid()] = ~0ull;
        return;
      }
      t.global_read(plan.out_index_addr + g * 8, 16);
      t.global_read(plan.start_bit_addr + g * 8, 16);
      t.charge(8);
      start[t.tid()] = plan.out_index[g];
      end[t.tid()] = plan.out_index[g + 1];
      bit_lo[t.tid()] = plan.start_bit[g];
      bit_hi[t.tid()] = plan.start_bit[g + 1];
      if (t.tid() == 0) si = plan.out_index[g];
      const std::uint64_t last =
          std::min<std::uint64_t>(first + block_dim, num_subseqs);
      if (g + 1 == last) ei = plan.out_index[last];
    });

    while (si < ei) {
      std::uint64_t temp_end = ei;
      // Decode phase: threads whose whole output fits in the buffer decode
      // into shared memory; a thread whose output does not fit caps tempEnd
      // at its own start (Algorithm 1, lines 8-12).
      blk.for_each_thread([&](cudasim::ThreadCtx& t) {
        const std::uint32_t i = t.tid();
        if (start[i] == ~0ull) return;
        t.charge(4);
        if (start[i] >= si && end[i] <= si + buffer_symbols) {
          decode_span(t, *plan.stream, plan.units_addr, *plan.codebook,
                      bit_lo[i], bit_hi[i], config,
                      /*record_table_reads=*/false, plan.table_addr,
                      [&](std::uint16_t sym, std::uint32_t k) {
                        buffer[start[i] - si + k] = sym;
                        t.charge(config.cost.staged_symbol_cycles);
                      });
          // Consumed: exclude from later iterations.
          start[i] = ~0ull;
        } else if (end[i] > si + buffer_symbols) {
          temp_end = std::min(temp_end, std::max(start[i], si));
        }
      });
      // Cooperative coalesced copy of buffer[0 .. tempEnd-si) to global
      // memory (Algorithm 1, line 13).
      const std::uint64_t count = temp_end - si;
      std::copy_n(buffer, count, out.data() + si);
      const cudasim::StreamAccess copy[] = {
          {plan.out_addr + si * plan.symbol_bytes, plan.symbol_bytes,
           /*is_write=*/true}};
      blk.stream_phase(count, copy, config.cost.coop_copy_cycles);
      if (temp_end == si) {
        throw std::logic_error("staged decode made no progress");
      }
      si = temp_end;
      // Loop overhead: two block barriers (pipeline drains) plus the
      // shared-state update round per while-iteration.
      blk.charge_all(150);
    }
  };
  return timed ? ctx.launch("decode_write", cfg, body)
               : ctx.launch_untimed("decode_write", cfg, body);
}

}  // namespace

double decode_write_staged(cudasim::SimContext& ctx, const WritePlan& plan,
                           std::span<std::uint16_t> out,
                           const DecoderConfig& config,
                           std::uint32_t buffer_symbols,
                           std::span<const std::uint32_t> sequence_ids) {
  if (plan.num_subseqs() == 0) return 0.0;
  return run_staged(ctx, plan, out, config, buffer_symbols, sequence_ids,
                    /*timed=*/true)
      .timing.seconds;
}

TunedDecodeResult decode_write_tuned(cudasim::SimContext& ctx,
                                     const WritePlan& plan,
                                     std::span<std::uint16_t> out,
                                     const DecoderConfig& config) {
  TunedDecodeResult result;
  const std::uint32_t num_subseqs = plan.num_subseqs();
  if (num_subseqs == 0) return result;

  const std::uint32_t block_dim = config.threads_per_block;
  const std::uint32_t num_seqs = (num_subseqs + block_dim - 1) / block_dim;
  const std::uint32_t t_high =
      compute_t_high(ctx.spec(), config.threads_per_block);
  result.t_high = t_high;

  // --- Tuning (Algorithm 2, lines 1-11) ------------------------------------
  const double tune_t0 = ctx.timeline().total();

  // classifyCR kernel: one sequence holds seq_bits/8 compressed bytes and
  // produces count*2 output bytes; ratio r = out/in. Classes 1..T_high cover
  // (k-1, k]; class T_high+1 is the overflow group.
  std::vector<std::uint32_t> comp_class(num_seqs);
  const double in_bytes =
      static_cast<double>(plan.stream->geometry.seq_bits()) / 8.0;
  for (std::uint32_t j = 0; j < num_seqs; ++j) {
    const std::uint64_t lo = static_cast<std::uint64_t>(j) * block_dim;
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + block_dim, num_subseqs);
    const double syms = static_cast<double>(plan.out_index[hi] -
                                            plan.out_index[lo]);
    const double ratio = syms * 2.0 / in_bytes;
    const std::uint32_t k = static_cast<std::uint32_t>(
        std::min<double>(t_high + 1, std::max(1.0, std::ceil(ratio))));
    comp_class[j] = k;
  }
  {
    // Charge the classify kernel: stream the per-sequence counts once.
    const std::uint64_t idx_addr = plan.out_index_addr;
    ctx.launch("tune_classify",
               {std::max(1u, (num_seqs + 255) / 256), 256, 0},
               [&](cudasim::BlockCtx& blk) {
                 blk.for_each_thread([&](cudasim::ThreadCtx& t) {
                   const std::uint64_t j = blk.global_tid(t);
                   if (j >= num_seqs) return;
                   t.global_read(idx_addr + j * block_dim * 8, 16);
                   t.global_write(idx_addr + j * 4, 4);
                   t.charge(8);
                 });
               });
  }

  // Histogram of classes, then key-value sort (class, sequence id).
  result.class_freq =
      cudasim::device_histogram(ctx, comp_class, t_high + 2, "tune_histogram");
  std::vector<std::uint32_t> keys = comp_class;
  std::vector<std::uint32_t> seq_ids(num_seqs);
  for (std::uint32_t j = 0; j < num_seqs; ++j) seq_ids[j] = j;
  cudasim::device_radix_sort_pairs(ctx, keys, seq_ids, /*key_bits=*/8,
                                   "tune_sort");

  // Host-side prefix over the (tiny) histogram plus readback latency.
  ctx.timeline().add("tune_readback", config.tuner_fixed_overhead_s);
  std::vector<std::uint32_t> class_start(t_high + 3, 0);
  for (std::uint32_t k = 0; k + 1 < t_high + 3 && k < result.class_freq.size();
       ++k) {
    class_start[k + 1] = class_start[k] + result.class_freq[k];
  }
  result.tune_seconds = ctx.timeline().total() - tune_t0;

  // --- Per-class decode kernels (Algorithm 2, lines 12-14) -----------------
  // Buffer per class: one sequence's worth of input symbols per unit of
  // compression ratio (1024 for the paper's 2048-byte sequences); the
  // overflow class uses the architecture-specific size from the config.
  const std::uint32_t base_symbols = static_cast<std::uint32_t>(
      plan.stream->geometry.seq_bits() / 16);
  const std::uint32_t min_buffer =
      static_cast<std::uint32_t>(plan.stream->geometry.subseq_bits());
  result.class_buffer_symbols.assign(t_high + 2, 0);
  double bodies = 0.0;
  double max_critical = 0.0;
  bool launched_any = false;
  for (std::uint32_t k = 1; k <= t_high + 1; ++k) {
    const std::uint32_t freq =
        k < result.class_freq.size() ? result.class_freq[k] : 0;
    if (freq == 0) continue;
    const std::uint32_t buffer = std::max(
        min_buffer,
        k <= t_high ? base_symbols * k : config.overflow_buffer_symbols);
    result.class_buffer_symbols[k] = buffer;
    std::span<const std::uint32_t> ids(seq_ids.data() + class_start[k], freq);
    const auto r = run_staged(ctx, plan, out, config, buffer, ids,
                              /*timed=*/false);
    // Concurrent streams: machine-wide resources (issue slots, DRAM) add up
    // across the class kernels, but their critical paths overlap.
    bodies += r.timing.saturated_seconds;
    max_critical = std::max(max_critical, r.timing.critical_seconds);
    launched_any = true;
  }
  result.decode_write_seconds =
      std::max(bodies, max_critical) +
      (launched_any ? ctx.spec().launch_overhead_s : 0.0);
  ctx.timeline().add("decode_write", result.decode_write_seconds);
  return result;
}

}  // namespace ohd::core

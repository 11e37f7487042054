// Tunable constants of the decoder implementations and of the simulated cost
// of their inner loops. The cycle constants are calibrated so the simulated
// V100 reproduces the throughput regimes of the paper's Table II / Table V;
// tests/integration/perf_shape_test.cpp pins the resulting shapes and the
// bench_table2/bench_table5 binaries print the full tables.
#pragma once

#include <cstdint>

#include "cudasim/device_spec.hpp"

namespace ohd::core {

/// Per-operation cycle costs charged by the decoder kernels.
struct CostModel {
  // Canonical first-code decoding (W&S / gap-array decoders): cost per bit
  // examined plus fixed per-codeword bookkeeping.
  std::uint32_t cycles_per_bit = 2;
  std::uint32_t cycles_per_symbol = 4;

  // Flat-LUT fast path (decode table resident in shared memory / L1 for the
  // fine-grained decoders): one probe resolves every codeword of length <=
  // the table's index width, so the per-symbol cost collapses to peek +
  // table read + skip. Codewords longer than the index width pay the probe
  // plus a ladder walk charged per extra bit at the family's per-bit rate.
  std::uint32_t cycles_per_symbol_lut = 5;

  // The naive cuSZ kernel runs one thread per coarse chunk, so a warp's 32
  // LUT probes scatter across the table (a serialized gather, not the
  // broadcast the fine decoders get) — the probe costs nearly a full
  // dependent-load round trip, calibrated against the same baseline rows as
  // the tree walk below.
  std::uint32_t cycles_per_symbol_lut_naive = 36;

  // Multi-symbol LUT probes (DecodeTable::MultiEntry): one 64-bit table read
  // retires up to kMaxMultiSymbols complete short codewords, so the probe
  // cost is paid once per BATCH and each symbol beyond the first adds only
  // the unpack/store increment. The probe is slightly dearer than the
  // single-symbol one (8-byte entry, batch bookkeeping); for the naive
  // decoder the serialized gather dominates either way, so amortizing it
  // over a batch is where that family gains.
  std::uint32_t cycles_per_probe_multi = 6;
  std::uint32_t cycles_per_probe_multi_naive = 38;
  std::uint32_t cycles_per_extra_symbol_multi = 1;

  // cuSZ's naive decoder walks a serialized Huffman tree one bit at a time
  // (a DEPENDENT node fetch + branch per bit; the tree stays L1/L2-resident
  // so no global transactions are charged, but each hop serializes on cache
  // latency — calibrated against the paper's ~26 GB/s baseline row).
  std::uint32_t cycles_per_bit_naive = 12;
  std::uint32_t cycles_per_symbol_naive = 10;

  // Busy-wait iteration cost in the ORIGINAL intra-sequence synchronization
  // (flag check + barrier participation), and the cost of the optimized
  // variant's __all_sync vote.
  std::uint32_t sync_check_cycles = 4;
  std::uint32_t all_sync_cycles = 2;

  // Fixed per-thread cost of staging one symbol through shared memory in the
  // optimized decode+write kernel (shared store + index arithmetic).
  std::uint32_t staged_symbol_cycles = 2;
  // Per-element cost of the cooperative shared->global copy.
  std::uint32_t coop_copy_cycles = 1;
};

/// Geometry and policy knobs of the decoders.
struct DecoderConfig {
  // W&S stream geometry (also used by the gap-array decoder): 4 units of 32
  // bits per subsequence, 128 subsequences (= threads) per sequence (= block),
  // exactly as in the paper (§III-B, footnote 2).
  std::uint32_t units_per_subseq = 4;
  std::uint32_t threads_per_block = 128;

  // cuSZ baseline: symbols per coarse chunk, one thread per chunk.
  std::uint32_t chunk_symbols = 1024;
  std::uint32_t naive_block_dim = 256;

  // Shared-memory tuning (Algorithm 2): fixed host-side overhead of the
  // tuning round trip (histogram readback + kernel argument setup), and the
  // buffer used for the overflow class (compression ratio > T_high); the
  // paper found 3584 symbols optimal on V100 (§IV-C).
  double tuner_fixed_overhead_s = 8e-6;
  std::uint32_t overflow_buffer_symbols = 3584;

  // Decode-path selection for ALL decoder families: the flat-LUT fast path
  // (huffman::DecodeTable) is the default; set false to force the legacy
  // bit-by-bit first-code ladder (decode_one), e.g. for A/B benchmarks.
  bool use_lut_decode = true;

  // Multi-symbol LUT probes on top of the flat LUT (requires
  // use_lut_decode): each probe retires up to DecodeTable::kMaxMultiSymbols
  // complete short codewords. Decoded output is bit-identical to the
  // single-symbol paths; only the charged cycles (cycles_per_probe_multi*)
  // differ. Applies to the OPTIMIZED variants and the naive baseline; the
  // Original decoders fetch tables from global memory per codeword, where
  // scattering across the wider MultiEntry array wins nothing, so they
  // keep the single-symbol probe. Set false to A/B the single-symbol LUT.
  bool use_multisym_lut = true;

  CostModel cost;
};

/// The paper's T_high derivation (§IV-C): the largest per-block shared buffer
/// that still allows >= 25% occupancy, divided by 2048 bytes (the shared
/// buffer needed per unit compression ratio: one sequence holds 2048 input
/// bytes, i.e. 1024 u16 symbols at ratio 1).
std::uint32_t compute_t_high(const cudasim::DeviceSpec& spec,
                             std::uint32_t threads_per_block);

}  // namespace ohd::core

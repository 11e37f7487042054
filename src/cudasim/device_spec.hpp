// Architectural parameters of the simulated GPU. The performance model in
// perf_model.hpp converts recorded kernel events into time using these
// numbers. DeviceSpec::v100() is calibrated against the paper's evaluation
// platform (NVIDIA Tesla V100-SXM2-32GB on PSC Bridges-2): the organisation
// and bandwidth figures are the V100's published ones, the fitted constants
// say below which paper result they reproduce, and
// tests/integration/perf_shape_test.cpp pins those results' shapes.
#pragma once

#include <cstdint>
#include <string>

namespace ohd::cudasim {

struct DeviceSpec {
  std::string name;

  // Compute organisation.
  std::uint32_t num_sms = 80;
  std::uint32_t warp_size = 32;
  std::uint32_t max_threads_per_sm = 2048;
  std::uint32_t max_blocks_per_sm = 32;
  std::uint32_t warp_schedulers_per_sm = 4;  // warp-instructions issued per clock
  double clock_ghz = 1.53;

  // Shared memory.
  std::uint32_t shmem_per_sm_bytes = 96 * 1024;
  std::uint32_t max_shmem_per_block_bytes = 96 * 1024;

  // Global memory system.
  double global_bw_gbps = 900.0;       // peak HBM2 bandwidth
  std::uint32_t transaction_bytes = 32; // minimum global transaction (sector)
  std::uint32_t mem_issue_cycles = 1;   // per-transaction issue cost on the LSU

  // Latency hiding: achieved fraction of peak ramps linearly from
  // latency_hide_base (a single resident warp still makes progress through
  // pipelining) up to 1.0 at warps_for_full_throughput resident warps/SM.
  std::uint32_t warps_for_full_throughput = 28;
  double latency_hide_base = 0.45;

  // Wide-scatter store-stall model, used by the ORIGINAL decoders'
  // one-symbol-per-store write path (core/decode_write_direct). When a
  // warp's 32 simultaneous stores spread over a window wider than the
  // store-combining reach, each store serializes against the store queue and
  // pays (a ramp toward) exposed DRAM latency. The ramp is linear in the
  // warp's output footprint from scatter_window_lo_bytes (no stall) to
  // scatter_window_hi_bytes (full stall). Calibrated against the paper's
  // Table II decode+write throughputs: this is what collapses the original
  // decoders as the compression ratio grows (adjacent threads' output
  // regions drift apart), i.e. the paper's Figure 2, while the baseline's
  // few-threads write trickle never builds that pressure (paper §V-B1).
  std::uint32_t scatter_window_lo_bytes = 2048;
  std::uint32_t scatter_window_hi_bytes = 8192;
  std::uint32_t scatter_penalty_cycles = 220;

  // Host link (used only for Figure 5's host-to-device transfer model).
  double pcie_bw_gbps = 12.0;

  // Fixed cost of launching one kernel (driver + scheduling), seconds.
  double launch_overhead_s = 3.0e-6;

  /// The paper's evaluation GPU.
  static DeviceSpec v100();
  /// The paper's future-work target (used by tests to check the model reacts
  /// to architecture parameters, and by the `dataset_study` example).
  static DeviceSpec a100();

  std::uint32_t threads_per_warp() const { return warp_size; }
  double clock_hz() const { return clock_ghz * 1e9; }
};

}  // namespace ohd::cudasim

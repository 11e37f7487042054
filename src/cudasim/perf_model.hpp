// Analytical performance model: converts the architectural events recorded
// while a kernel executes functionally (see exec.hpp) into simulated time on
// the configured DeviceSpec.
//
// Model summary
// -------------
// Within a warp, a phase (the code between two block barriers) costs the
// MAXIMUM of its lanes' compute cycles — this is SIMT lockstep and is what
// makes one long-running lane stall its whole warp (paper §IV-A). Within a
// block, a phase costs the maximum over its warps, because a barrier releases
// only when the slowest warp arrives. A block's cycle count is the sum of its
// phase costs.
//
// Grid-level time combines two terms:
//   * a throughput term: total warp-cycles (idle warps waiting at barriers
//     still occupy scheduler slots, so a block contributes
//     block_cycles x warps_per_block) divided by the machine-wide issue rate,
//     derated by an occupancy-dependent latency-hiding factor;
//   * a critical-path term: the most expensive single block cannot finish
//     faster than its own cycle count.
// plus a memory term: coalesced 32-byte transactions are accumulated per warp
// "instruction slot" (the k-th access of every lane in a warp is considered
// simultaneous), and total transacted bytes are divided by the effective
// bandwidth. Kernel time = max(compute, memory) + launch overhead.
//
// Occupancy is derived from threads/block and shared memory/block exactly as
// on real hardware; it feeds the latency-hiding derate. This is the mechanism
// that reproduces the paper's Figure 3 hump and the T_high threshold of §IV-C.
#pragma once

#include <cstdint>
#include <string>

#include "cudasim/device_spec.hpp"

namespace ohd::cudasim {

/// Raw event counts accumulated over one kernel launch.
struct KernelStats {
  // Sum over blocks of (sum over phases of max-over-warps warp cycles).
  std::uint64_t critical_block_cycles_max = 0;  // max over blocks
  std::uint64_t block_cycles_sum = 0;           // sum over blocks
  // Total warp-cycles charged for scheduling purposes (block cycles x warps
  // in the block, summed over blocks).
  std::uint64_t scheduled_warp_cycles = 0;
  // Coalesced global memory transactions (32B sectors).
  std::uint64_t global_transactions = 0;

  std::uint32_t grid_dim = 0;
  std::uint32_t block_dim = 0;
  std::uint32_t shmem_per_block = 0;

  void merge(const KernelStats& other);
};

/// Occupancy for a launch configuration.
struct Occupancy {
  std::uint32_t blocks_per_sm = 0;
  std::uint32_t resident_warps_per_sm = 0;
  double fraction = 0.0;  // resident threads / max threads per SM
};

Occupancy occupancy_for(const DeviceSpec& spec, std::uint32_t block_dim,
                        std::uint32_t shmem_per_block);

/// Result of timing one kernel.
struct KernelTiming {
  double seconds = 0.0;
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  /// Machine-wide shared-resource time (issue slots + DRAM): this is the part
  /// that ADDS UP when kernels run concurrently on separate streams.
  double saturated_seconds = 0.0;
  /// Serial critical path (slowest single block): this part OVERLAPS across
  /// concurrent kernels.
  double critical_seconds = 0.0;
  Occupancy occupancy;
};

class PerfModel {
public:
  explicit PerfModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }

  KernelTiming time_kernel(const KernelStats& stats) const;

  /// Time to copy `bytes` across PCIe (Figure 5's host-to-device model).
  double host_to_device_seconds(std::uint64_t bytes) const;

private:
  DeviceSpec spec_;
};

}  // namespace ohd::cudasim

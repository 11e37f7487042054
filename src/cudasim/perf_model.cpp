#include "cudasim/perf_model.hpp"

#include <algorithm>
#include <cmath>

namespace ohd::cudasim {

void KernelStats::merge(const KernelStats& other) {
  critical_block_cycles_max =
      std::max(critical_block_cycles_max, other.critical_block_cycles_max);
  block_cycles_sum += other.block_cycles_sum;
  scheduled_warp_cycles += other.scheduled_warp_cycles;
  global_transactions += other.global_transactions;
}

Occupancy occupancy_for(const DeviceSpec& spec, std::uint32_t block_dim,
                        std::uint32_t shmem_per_block) {
  Occupancy occ;
  if (block_dim == 0) return occ;
  const std::uint32_t by_threads = spec.max_threads_per_sm / block_dim;
  const std::uint32_t by_shmem =
      shmem_per_block == 0
          ? spec.max_blocks_per_sm
          : spec.shmem_per_sm_bytes / std::max(shmem_per_block, 1u);
  occ.blocks_per_sm =
      std::min({by_threads, by_shmem, spec.max_blocks_per_sm});
  const std::uint32_t warps_per_block =
      (block_dim + spec.warp_size - 1) / spec.warp_size;
  occ.resident_warps_per_sm = occ.blocks_per_sm * warps_per_block;
  occ.fraction = static_cast<double>(occ.blocks_per_sm * block_dim) /
                 static_cast<double>(spec.max_threads_per_sm);
  return occ;
}

KernelTiming PerfModel::time_kernel(const KernelStats& stats) const {
  KernelTiming t;
  t.occupancy = occupancy_for(spec_, stats.block_dim, stats.shmem_per_block);
  if (stats.grid_dim == 0 || stats.block_dim == 0) {
    t.seconds = spec_.launch_overhead_s;
    return t;
  }

  // Latency hiding: with fewer resident warps than warps_for_full_throughput
  // per SM, both issue throughput and achieved memory bandwidth degrade —
  // but pipelining keeps even a single warp at latency_hide_base of peak.
  const double resident =
      std::max<std::uint32_t>(1, t.occupancy.resident_warps_per_sm);
  const double hide_eff = std::min(
      1.0, spec_.latency_hide_base +
               (1.0 - spec_.latency_hide_base) * resident /
                   static_cast<double>(spec_.warps_for_full_throughput));

  // Throughput term: machine-wide warp-instruction issue rate.
  const double issue_rate = static_cast<double>(spec_.num_sms) *
                            spec_.warp_schedulers_per_sm * spec_.clock_hz();
  const double throughput_s =
      static_cast<double>(stats.scheduled_warp_cycles) /
      (issue_rate * hide_eff);

  // Critical path: the slowest block cannot finish faster than its own
  // serial cycle count. When the block has more warps than the SM has
  // schedulers, issue contention stretches it proportionally.
  const std::uint32_t warps_per_block =
      (stats.block_dim + spec_.warp_size - 1) / spec_.warp_size;
  const double contention = std::max(
      1.0, static_cast<double>(warps_per_block) /
               spec_.warp_schedulers_per_sm);
  const double critical_s =
      static_cast<double>(stats.critical_block_cycles_max) * contention /
      spec_.clock_hz();

  t.compute_seconds = std::max(throughput_s, critical_s);

  // Memory term: transacted bytes over effective bandwidth.
  const double bytes_moved = static_cast<double>(stats.global_transactions) *
                             spec_.transaction_bytes;
  t.memory_seconds = bytes_moved / (spec_.global_bw_gbps * 1e9 * hide_eff);

  t.saturated_seconds = std::max(throughput_s, t.memory_seconds);
  t.critical_seconds = critical_s;
  t.seconds = std::max(t.saturated_seconds, t.critical_seconds) +
              spec_.launch_overhead_s;
  return t;
}

double PerfModel::host_to_device_seconds(std::uint64_t bytes) const {
  // Fixed DMA setup cost plus bandwidth-limited transfer.
  return 10e-6 + static_cast<double>(bytes) / (spec_.pcie_bw_gbps * 1e9);
}

}  // namespace ohd::cudasim

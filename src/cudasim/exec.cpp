#include "cudasim/exec.hpp"

#include <algorithm>
#include <bit>

namespace ohd::cudasim {

namespace detail {

void SectorSet::clear() {
  size_ = 0;
  if (++epoch_ == 0) {
    // Stamps from 2^32 phases ago would read as live again: wipe them.
    for (Slot& s : table_) s.stamp = 0;
    epoch_ = 1;
  }
}

void SectorSet::resize(std::size_t capacity) {
  table_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(capacity));
}

void SectorSet::grow() {
  std::vector<Slot> old;
  old.swap(table_);
  resize(old.size() * 2);
  for (const Slot& s : old) {
    if (s.stamp != epoch_) continue;
    std::size_t i = home(s.sector);
    while (table_[i].stamp == epoch_) i = (i + 1) & mask_;
    table_[i] = s;
  }
}

}  // namespace detail

BlockCtx::BlockCtx(const DeviceSpec& spec, LaunchConfig cfg)
    : spec_(spec),
      cfg_(cfg),
      warps_per_block_((cfg.block_dim + spec.warp_size - 1) / spec.warp_size),
      shared_(cfg.shmem_bytes) {}

void BlockCtx::begin_block(std::uint32_t block_idx) {
  block_idx_ = block_idx;
  block_cycles_ = 0;
  stats_ = KernelStats{};
  stats_.grid_dim = cfg_.grid_dim;
  stats_.block_dim = cfg_.block_dim;
  stats_.shmem_per_block = cfg_.shmem_bytes;
}

void BlockCtx::open_slot() {
  if (slots_used_ == slots_.size()) slots_.emplace_back();
  ++slots_used_;
}

void BlockCtx::flush_warp(std::uint64_t max_lane_cycles) {
  // Memory issue cost: every distinct transaction occupies the LSU.
  // Bandwidth-wise (stats_.global_transactions) a sector already touched by
  // this warp in the current phase is an L1 hit and is not recounted — this
  // models the warp-phase working-set reuse of the real kernels (decode
  // tables, a subsequence's units).
  std::uint64_t mem_cycles = 0;
  for (std::uint32_t s = 0; s < slots_used_; ++s) {
    const std::uint32_t txns = slots_[s].distinct();
    mem_cycles += static_cast<std::uint64_t>(txns) * spec_.mem_issue_cycles;
    slots_[s].clear();
  }
  slots_used_ = 0;
  warp_sectors_.clear();
  phase_warp_max_cycles_ =
      std::max(phase_warp_max_cycles_, max_lane_cycles + mem_cycles);
}

void BlockCtx::charge_all(std::uint64_t cycles) {
  block_cycles_ += cycles;
  stats_.critical_block_cycles_max = block_cycles_;
  stats_.block_cycles_sum = block_cycles_;
  stats_.scheduled_warp_cycles = block_cycles_ * warps_per_block_;
}

SimContext::SimContext(DeviceSpec spec) : model_(std::move(spec)) {}

std::uint64_t SimContext::reserve_address(std::uint64_t bytes) {
  // 512-byte alignment so distinct buffers never share a 32B segment.
  const std::uint64_t base = next_address_;
  next_address_ += (bytes + 511) / 512 * 512 + 512;
  return base;
}

KernelResult SimContext::run(LaunchConfig cfg, const BlockKernel& body) {
  KernelStats total;
  total.grid_dim = cfg.grid_dim;
  total.block_dim = cfg.block_dim;
  total.shmem_per_block = cfg.shmem_bytes;

  BlockCtx block(model_.spec(), cfg);
  for (std::uint32_t b = 0; b < cfg.grid_dim; ++b) {
    block.begin_block(b);
    body(block);
    total.merge(block.stats_);
  }
  KernelResult result;
  result.stats = total;
  result.timing = model_.time_kernel(total);
  return result;
}

KernelResult SimContext::launch(const std::string& name, LaunchConfig cfg,
                                const BlockKernel& body) {
  KernelResult result = run(cfg, body);
  timeline_.add(name, result.timing.seconds);
  return result;
}

KernelResult SimContext::launch_untimed(const std::string& /*name*/,
                                        LaunchConfig cfg,
                                        const BlockKernel& body) {
  return run(cfg, body);
}

double SimContext::host_to_device(std::uint64_t bytes,
                                  const std::string& name) {
  const double seconds = model_.host_to_device_seconds(bytes);
  timeline_.add(name, seconds);
  return seconds;
}

}  // namespace ohd::cudasim

#include "cudasim/exec.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

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

void BlockCtx::stream_phase(std::uint64_t count,
                            std::span<const StreamAccess> accesses,
                            std::uint64_t cycles_per_elem) {
  for (const StreamAccess& a : accesses) {
    if (a.elem_bytes == 0 || a.elem_bytes > detail::kSectorBytes) {
      throw std::invalid_argument("stream_phase: elem_bytes must be 1-32");
    }
  }
  const std::uint64_t block_dim = cfg_.block_dim;
  std::uint64_t phase_max = 0;
  // Warps whose first lane has no element are idle and cost nothing.
  for (std::uint64_t warp_start = 0; warp_start < block_dim &&
                                     warp_start < count;
       warp_start += spec_.warp_size) {
    const std::uint64_t warp_end =
        std::min<std::uint64_t>(block_dim, warp_start + spec_.warp_size);
    // The warp's first lane handles the most elements: the warp's compute.
    const std::uint64_t rounds = (count - warp_start + block_dim - 1) /
                                 block_dim;
    // Round r's active lanes cover elements [lo, hi), so each access's slot
    // touches one contiguous run of sectors, each distinct in that slot.
    std::uint64_t slot_sectors = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t lo = warp_start + r * block_dim;
      const std::uint64_t hi = std::min(warp_end + r * block_dim, count);
      for (const StreamAccess& a : accesses) {
        const std::uint64_t first =
            (a.base + lo * a.elem_bytes) / detail::kSectorBytes;
        const std::uint64_t last =
            (a.base + hi * a.elem_bytes - 1) / detail::kSectorBytes;
        slot_sectors += last - first + 1;
        // As in record(): stores are write-through, so every written sector
        // is a transaction. No read of the phase touches a written sector,
        // so the warp's set holds only the read ones.
        if (a.is_write) {
          stats_.global_transactions += last - first + 1;
          continue;
        }
        for (std::uint64_t seg = first; seg <= last; ++seg) {
          // Reads of a sector the warp already holds are L1 hits.
          if (warp_sectors_.insert(seg)) ++stats_.global_transactions;
        }
      }
    }
    warp_sectors_.clear();
    phase_max = std::max(phase_max, rounds * cycles_per_elem +
                                        slot_sectors * spec_.mem_issue_cycles);
  }
  charge_all(phase_max);
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

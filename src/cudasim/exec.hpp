// Functional execution of CUDA-style kernels on the host, with architectural
// event recording.
//
// Kernels are written *phase-structured*: the body receives a BlockCtx and
// calls for_each_thread(...) once per barrier-delimited phase. Because the
// host executes lanes of a phase sequentially, __syncthreads() semantics
// between consecutive for_each_thread calls hold trivially, while per-lane
// work inside one call is recorded with SIMT cost semantics (a warp's phase
// cost is the max over its lanes).
//
// Example (a kernel with two phases separated by a barrier):
//
//   ctx.launch("scale", {grid, block, shmem}, [&](cudasim::BlockCtx& blk) {
//     auto* buf = blk.shared_as<float>();
//     blk.for_each_thread([&](cudasim::ThreadCtx& t) {   // phase 1
//       buf[t.tid()] = in[blk.global_tid(t)];
//       t.global_read(in.addr_of(blk.global_tid(t)), 4);
//       t.charge(4);
//     });
//     blk.for_each_thread([&](cudasim::ThreadCtx& t) {   // phase 2
//       out[blk.global_tid(t)] = 2.f * buf[t.tid()];
//       t.global_write(out.addr_of(blk.global_tid(t)), 4);
//       t.charge(4);
//     });
//   });
//
// A phase whose accesses follow a fixed contiguous pattern (thread t handles
// elements t, t + block_dim, ...) can be priced without running lanes:
//
//     const cudasim::StreamAccess accesses[] = {{in_addr, 2, false},
//                                               {out_addr, 4, true}};
//     blk.stream_phase(count, accesses, /*cycles_per_elem=*/10);
//
// The recorder runs once per recorded access, so it allocates nothing on
// that path: one BlockCtx serves every block of a launch and reuses its
// shared arena, slot sets and sector set. docs/architecture.md describes
// how accesses are priced and the recorder's data structures.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cudasim/device_spec.hpp"
#include "cudasim/perf_model.hpp"
#include "cudasim/timeline.hpp"

namespace ohd::cudasim {

struct LaunchConfig {
  std::uint32_t grid_dim = 1;
  std::uint32_t block_dim = 1;
  std::uint32_t shmem_bytes = 0;
};

namespace detail {

/// Granularity of the coalescing model: one global transaction moves one
/// 32-byte sector.
inline constexpr std::uint64_t kSectorBytes = 32;

/// Distinct sectors touched by one warp-wide access slot. Inline storage: a
/// warp has at most warp_size lanes, each touching at most two sectors for
/// the small scalar accesses our kernels perform. Past capacity the count
/// still grows for every sector not among the stored ones, so the distinct
/// count saturates at capacity precision.
class SegmentSet {
public:
  /// Adds `segment`; returns whether it was counted as a new sector.
  bool insert(std::uint64_t segment) {
    // Coalesced lanes mostly hit the sector their neighbour stored last.
    if (count_ != 0 && count_ < kCapacity &&
        segments_[count_ - 1] == segment) {
      return false;
    }
    const std::uint32_t stored = std::min(count_, kCapacity);
    for (std::uint32_t i = 0; i < stored; ++i) {
      if (segments_[i] == segment) return false;
    }
    if (count_ < kCapacity) segments_[count_] = segment;
    ++count_;
    return true;
  }
  std::uint32_t distinct() const { return count_; }
  void clear() { count_ = 0; }

private:
  static constexpr std::uint32_t kCapacity = 64;
  // count_ first: the early-out reads it with the newest entries, which then
  // share its cache line.
  std::uint32_t count_ = 0;
  std::uint64_t segments_[kCapacity];
};

/// Exact set of the sectors one warp touched in the current phase (its L1
/// working set). Open addressing with linear probing; a slot is live only
/// while its stamp equals the current epoch, so clear() is one increment.
class SectorSet {
public:
  SectorSet() { resize(kInitialCapacity); }

  /// Adds `sector`; returns whether it was absent.
  bool insert(std::uint64_t sector) {
    std::size_t i = home(sector);
    while (table_[i].stamp == epoch_) {
      if (table_[i].sector == sector) return false;
      i = (i + 1) & mask_;
    }
    table_[i] = {sector, epoch_};
    if (++size_ * 2 > table_.size()) grow();
    return true;
  }
  void clear();

private:
  struct Slot {
    std::uint64_t sector = 0;
    std::uint32_t stamp = 0;  // live iff == epoch_
  };
  static constexpr std::size_t kInitialCapacity = 256;

  std::size_t home(std::uint64_t sector) const {
    // Fibonacci hashing spreads runs of consecutive sectors.
    return static_cast<std::size_t>((sector * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
  }
  void resize(std::size_t capacity);
  void grow();

  std::vector<Slot> table_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace detail

/// One access every element of a streaming phase makes: element k touches
/// bytes [base + k * elem_bytes, base + (k + 1) * elem_bytes).
struct StreamAccess {
  std::uint64_t base = 0;
  std::uint32_t elem_bytes = 0;
  bool is_write = false;
};

class BlockCtx;

/// Per-lane handle given to kernel thread functions.
class ThreadCtx {
public:
  std::uint32_t tid() const { return tid_; }
  std::uint32_t lane() const { return tid_ % warp_size_; }
  std::uint32_t warp() const { return tid_ / warp_size_; }

  /// Charge compute cycles to this lane in the current phase.
  void charge(std::uint64_t cycles) { cycles_ += cycles; }

  /// Record a global-memory read/write of `bytes` at byte address `addr`.
  /// The k-th access of each lane in a warp is treated as simultaneous for
  /// coalescing purposes. Reads hitting a sector this warp already touched
  /// in the current phase are L1 hits; stores are write-through (V100
  /// semantics) and always cost a sector transaction.
  void global_read(std::uint64_t addr, std::uint32_t bytes);
  void global_write(std::uint64_t addr, std::uint32_t bytes);

private:
  friend class BlockCtx;
  ThreadCtx(BlockCtx& block, std::uint32_t warp_size)
      : block_(block), warp_size_(warp_size) {}

  BlockCtx& block_;
  std::uint32_t tid_ = 0;
  std::uint32_t warp_size_;
  std::uint64_t cycles_ = 0;
  std::uint32_t slot_counter_ = 0;
};

/// One launch's block execution context: shared-memory arena plus event
/// recorder. SimContext runs every block of a launch through the same
/// BlockCtx, resetting it between blocks.
class BlockCtx {
public:
  std::uint32_t block_idx() const { return block_idx_; }
  std::uint32_t block_dim() const { return cfg_.block_dim; }
  std::uint32_t grid_dim() const { return cfg_.grid_dim; }
  std::uint32_t shared_size() const { return cfg_.shmem_bytes; }

  /// The block's shared arena. Like CUDA shared memory it is uninitialized
  /// at block start: it holds whatever the previous block left there.
  std::byte* shared() { return shared_.data(); }
  template <typename T>
  T* shared_as() {
    return reinterpret_cast<T*>(shared_.data());
  }

  /// Global thread id for a lane of this block.
  std::uint64_t global_tid(const ThreadCtx& t) const {
    return static_cast<std::uint64_t>(block_idx_) * cfg_.block_dim + t.tid();
  }

  /// Execute one barrier-delimited phase: `lane` runs once per thread, in tid
  /// order, as lane(ThreadCtx&); SIMT cost semantics are applied per warp.
  template <typename LaneFn>
  void for_each_thread(LaneFn&& lane);

  /// Execute one barrier-delimited streaming phase without running lanes:
  /// thread t handles elements t, t + block_dim, ... below `count`, and
  /// each element makes `accesses` in order, then charges
  /// `cycles_per_elem`. The phase costs and counts exactly what the same
  /// phase written as for_each_thread would, provided that:
  ///  - the accesses touch disjoint buffers, or repeat an earlier access
  ///    exactly (same base, size and direction), so no sector is both read
  ///    and written in the phase;
  ///  - every elem_bytes is 1-32, so one slot of a warp spans at most 33
  ///    sectors, which SegmentSet counts exactly. Other sizes throw
  ///    std::invalid_argument.
  void stream_phase(std::uint64_t count,
                    std::span<const StreamAccess> accesses,
                    std::uint64_t cycles_per_elem);

  /// Charge cycles uniformly to every lane of the block without running user
  /// code (used for fixed-cost steps such as a barrier's own latency).
  void charge_all(std::uint64_t cycles);

private:
  friend class ThreadCtx;
  friend class SimContext;

  BlockCtx(const DeviceSpec& spec, LaunchConfig cfg);
  void begin_block(std::uint32_t block_idx);
  void record(std::uint32_t slot, std::uint64_t addr, std::uint32_t bytes,
              bool is_write);
  void open_slot();
  void flush_warp(std::uint64_t max_lane_cycles);

  const DeviceSpec& spec_;
  LaunchConfig cfg_;
  std::uint32_t warps_per_block_;
  std::uint32_t block_idx_ = 0;
  std::vector<std::byte> shared_;

  // Recording state for the warp currently executing; flush_warp() leaves
  // it empty, so a phase (and therefore a block) starts clean.
  std::vector<detail::SegmentSet> slots_;
  detail::SectorSet warp_sectors_;  // L1 reuse within a warp
  std::uint32_t slots_used_ = 0;
  std::uint64_t phase_warp_max_cycles_ = 0;  // max over finished warps
  std::uint64_t block_cycles_ = 0;           // sum over finished phases
  KernelStats stats_;  // this block's totals
};

inline void ThreadCtx::global_read(std::uint64_t addr, std::uint32_t bytes) {
  block_.record(slot_counter_++, addr, bytes, /*is_write=*/false);
}

inline void ThreadCtx::global_write(std::uint64_t addr, std::uint32_t bytes) {
  block_.record(slot_counter_++, addr, bytes, /*is_write=*/true);
}

inline void BlockCtx::record(std::uint32_t slot, std::uint64_t addr,
                             std::uint32_t bytes, bool is_write) {
  // Slot = how many accesses this lane has already made in the current
  // phase; the k-th access of every lane in the warp coalesces together. A
  // lane opens its slots in order, so `slot` is at most one past the last.
  if (slot == slots_used_) open_slot();
  detail::SegmentSet& segments = slots_[slot];
  const std::uint64_t first = addr / detail::kSectorBytes;
  const std::uint64_t last =
      (addr + std::max(bytes, 1u) - 1) / detail::kSectorBytes;
  for (std::uint64_t seg = first; seg <= last; ++seg) {
    // A sector this slot already holds is no new transaction, read or write,
    // and is already in the warp's working set.
    if (!segments.insert(seg)) continue;
    // Write-through (V100 global stores bypass L1): every distinct sector
    // per slot is a memory-system transaction. Reads re-touching a sector
    // this warp already holds are L1 hits.
    const bool warp_new = warp_sectors_.insert(seg);
    if (is_write || warp_new) ++stats_.global_transactions;
  }
}

template <typename LaneFn>
void BlockCtx::for_each_thread(LaneFn&& lane) {
  const std::uint32_t warp_size = spec_.warp_size;
  phase_warp_max_cycles_ = 0;
  ThreadCtx t(*this, warp_size);
  for (std::uint32_t warp_start = 0; warp_start < cfg_.block_dim;
       warp_start += warp_size) {
    const std::uint32_t warp_end =
        std::min(cfg_.block_dim, warp_start + warp_size);
    std::uint64_t warp_max_lane_cycles = 0;
    for (std::uint32_t tid = warp_start; tid < warp_end; ++tid) {
      t.tid_ = tid;
      t.cycles_ = 0;
      t.slot_counter_ = 0;
      lane(t);
      warp_max_lane_cycles = std::max(warp_max_lane_cycles, t.cycles_);
    }
    flush_warp(warp_max_lane_cycles);
  }
  // Barrier: the block's phase costs as much as its slowest warp, and every
  // warp occupies its scheduler slot for that long.
  charge_all(phase_warp_max_cycles_);
}

using BlockKernel = std::function<void(BlockCtx&)>;

/// Result of a simulated launch.
struct KernelResult {
  KernelTiming timing;
  KernelStats stats;
};

/// Owns the device spec, the performance model, the simulated timeline, and
/// the device address space used for coalescing analysis.
class SimContext {
public:
  explicit SimContext(DeviceSpec spec = DeviceSpec::v100());

  const DeviceSpec& spec() const { return model_.spec(); }
  const PerfModel& model() const { return model_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// Run `body` once per block, record events, convert them to simulated
  /// time, append that time to the timeline under `name`, and return it.
  KernelResult launch(const std::string& name, LaunchConfig cfg,
                      const BlockKernel& body);

  /// Same as launch() but the timing is NOT appended to the timeline; used
  /// by components that model concurrent streams themselves (Algorithm 2
  /// launches up to T_high+1 kernels on independent streams).
  KernelResult launch_untimed(const std::string& name, LaunchConfig cfg,
                              const BlockKernel& body);

  /// Reserve a device address range of `bytes` for a buffer; returns the base
  /// address. Addresses only feed the coalescing model.
  std::uint64_t reserve_address(std::uint64_t bytes);

  /// Simulated host-to-device transfer; appends to the timeline.
  double host_to_device(std::uint64_t bytes, const std::string& name = "h2d");

private:
  KernelResult run(LaunchConfig cfg, const BlockKernel& body);

  PerfModel model_;
  Timeline timeline_;
  std::uint64_t next_address_ = 1 << 12;
};

}  // namespace ohd::cudasim

// Differential test of the event recorder. `reference` below is the
// straightforward recorder the allocation-free one must agree with: a
// std::unordered_set of the warp's sectors per phase, a fresh block context
// per block, and two scans (contains, then insert) of the slot's sector
// list. Seeded random kernels run through SimContext::launch and through the
// reference, and every KernelStats field must match per launch. Seeded
// streaming phases priced by BlockCtx::stream_phase must match the same
// phases run lane by lane through the recorder, in every KernelStats field
// and in simulated seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "cudasim/exec.hpp"
#include "util/rng.hpp"

namespace ohd::cudasim {
namespace {

namespace reference {

class SegmentSet {
public:
  void insert(std::uint64_t segment) {
    for (std::uint32_t i = 0; i < count_ && i < kCapacity; ++i) {
      if (segments_[i] == segment) return;
    }
    if (count_ < kCapacity) segments_[count_] = segment;
    ++count_;  // distinct count saturates at capacity precision
  }
  std::uint32_t distinct() const { return count_; }
  bool contains(std::uint64_t segment) const {
    for (std::uint32_t i = 0; i < count_ && i < kCapacity; ++i) {
      if (segments_[i] == segment) return true;
    }
    return false;
  }
  void clear() { count_ = 0; }

private:
  static constexpr std::uint32_t kCapacity = 64;
  std::uint64_t segments_[kCapacity] = {};
  std::uint32_t count_ = 0;
};

class Block {
public:
  Block(const DeviceSpec& spec, LaunchConfig cfg, std::uint32_t block_idx)
      : spec_(spec), cfg_(cfg), block_idx_(block_idx),
        shared_(cfg.shmem_bytes) {
    stats_.grid_dim = cfg.grid_dim;
    stats_.block_dim = cfg.block_dim;
    stats_.shmem_per_block = cfg.shmem_bytes;
  }

  class Lane {
  public:
    Lane(Block& block, std::uint32_t tid) : block_(block), tid_(tid) {}
    std::uint32_t tid() const { return tid_; }
    std::uint32_t block_idx() const { return block_.block_idx_; }
    std::uint32_t block_dim() const { return block_.cfg_.block_dim; }
    std::byte* shared() { return block_.shared_.data(); }
    void charge(std::uint64_t cycles) { cycles_ += cycles; }
    void read(std::uint64_t addr, std::uint32_t bytes) {
      block_.access(slot_counter_++, addr, bytes, false);
    }
    void write(std::uint64_t addr, std::uint32_t bytes) {
      block_.access(slot_counter_++, addr, bytes, true);
    }
    std::uint64_t cycles() const { return cycles_; }

  private:
    Block& block_;
    std::uint32_t tid_;
    std::uint64_t cycles_ = 0;
    std::uint32_t slot_counter_ = 0;
  };

  template <typename F>
  void for_each_thread(F&& f) {
    const std::uint32_t warp_size = spec_.warp_size;
    phase_warp_max_cycles_ = 0;
    std::uint64_t warp_max_lane_cycles = 0;
    for (std::uint32_t tid = 0; tid < cfg_.block_dim; ++tid) {
      if (tid != 0 && tid % warp_size == 0) {
        flush_warp(warp_max_lane_cycles);
        warp_max_lane_cycles = 0;
      }
      Lane lane(*this, tid);
      f(lane);
      warp_max_lane_cycles = std::max(warp_max_lane_cycles, lane.cycles());
    }
    flush_warp(warp_max_lane_cycles);
    charge_all(phase_warp_max_cycles_);
  }

  void charge_all(std::uint64_t cycles) {
    block_cycles_ += cycles;
    const std::uint32_t warps_per_block =
        (cfg_.block_dim + spec_.warp_size - 1) / spec_.warp_size;
    stats_.critical_block_cycles_max = block_cycles_;
    stats_.block_cycles_sum = block_cycles_;
    stats_.scheduled_warp_cycles = block_cycles_ * warps_per_block;
  }

  const KernelStats& stats() const { return stats_; }
  std::uint32_t widest_slot() const { return widest_slot_; }

private:
  void access(std::uint32_t slot, std::uint64_t addr, std::uint32_t bytes,
              bool is_write) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    slots_used_ = std::max(slots_used_, slot + 1);
    const std::uint64_t first = addr / 32;
    const std::uint64_t last = (addr + std::max(bytes, 1u) - 1) / 32;
    for (std::uint64_t seg = first; seg <= last; ++seg) {
      const bool warp_new = warp_sectors_.insert(seg).second;
      if (is_write) {
        if (!slots_[slot].contains(seg)) ++stats_.global_transactions;
      } else if (warp_new) {
        ++stats_.global_transactions;
      }
      slots_[slot].insert(seg);
    }
  }

  void flush_warp(std::uint64_t max_lane_cycles) {
    std::uint64_t mem_cycles = 0;
    for (std::uint32_t s = 0; s < slots_used_; ++s) {
      mem_cycles +=
          static_cast<std::uint64_t>(slots_[s].distinct()) *
          spec_.mem_issue_cycles;
      widest_slot_ = std::max(widest_slot_, slots_[s].distinct());
      slots_[s].clear();
    }
    slots_used_ = 0;
    warp_sectors_.clear();
    phase_warp_max_cycles_ =
        std::max(phase_warp_max_cycles_, max_lane_cycles + mem_cycles);
  }

  const DeviceSpec& spec_;
  LaunchConfig cfg_;
  std::uint32_t block_idx_;
  std::vector<std::byte> shared_;
  std::vector<SegmentSet> slots_;
  std::unordered_set<std::uint64_t> warp_sectors_;
  std::uint32_t slots_used_ = 0;
  std::uint64_t phase_warp_max_cycles_ = 0;
  std::uint64_t block_cycles_ = 0;
  KernelStats stats_;
  std::uint32_t widest_slot_ = 0;  // most sectors one slot counted
};

struct Launch {
  KernelStats stats;
  std::uint32_t widest_slot = 0;
};

/// The reference launch: a fresh Block per block, stats merged per block.
template <typename Body>
Launch launch(const DeviceSpec& spec, LaunchConfig cfg, Body&& body) {
  Launch result;
  result.stats.grid_dim = cfg.grid_dim;
  result.stats.block_dim = cfg.block_dim;
  result.stats.shmem_per_block = cfg.shmem_bytes;
  for (std::uint32_t b = 0; b < cfg.grid_dim; ++b) {
    Block block(spec, cfg, b);
    body(block);
    result.stats.merge(block.stats());
    result.widest_slot = std::max(result.widest_slot, block.widest_slot());
  }
  return result;
}

}  // namespace reference

/// The lane interface the reference's Lane offers, over a real ThreadCtx.
class SimLane {
public:
  SimLane(BlockCtx& blk, ThreadCtx& t) : blk_(blk), t_(t) {}
  std::uint32_t tid() const { return t_.tid(); }
  std::uint32_t block_idx() const { return blk_.block_idx(); }
  std::uint32_t block_dim() const { return blk_.block_dim(); }
  std::byte* shared() { return blk_.shared(); }
  void charge(std::uint64_t cycles) { t_.charge(cycles); }
  void read(std::uint64_t addr, std::uint32_t bytes) {
    t_.global_read(addr, bytes);
  }
  void write(std::uint64_t addr, std::uint32_t bytes) {
    t_.global_write(addr, bytes);
  }

private:
  BlockCtx& blk_;
  ThreadCtx& t_;
};

/// One seeded random kernel. Every lane's accesses are a pure function of
/// (seed, block, phase, tid) and, after phase 0, of the shared-memory words
/// phase 0 wrote, so both recorders see the same access stream.
struct RandomKernel {
  std::uint64_t seed = 0;
  LaunchConfig cfg;
  std::uint32_t phases = 1;
  std::uint64_t base = 0;      // start of the buffer accesses land in
  std::uint64_t span = 0;      // bytes of that buffer in use
  std::uint32_t max_accesses = 0;
  std::uint32_t min_bytes = 0;
  bool uses_shared = false;
  std::uint64_t hot[8] = {};   // addresses revisited to force sector reuse

  RandomKernel(std::uint64_t kernel_seed, SimContext& ctx) : seed(kernel_seed) {
    util::Xoshiro256 rng(kernel_seed);
    cfg.grid_dim = 1 + static_cast<std::uint32_t>(rng.bounded(3));
    // Mix full warps with ragged tails (block_dim % 32 != 0).
    const std::uint32_t dims[] = {32, 64, 96, 128};
    cfg.block_dim = rng.uniform() < 0.5
                        ? dims[rng.bounded(4)]
                        : 1 + static_cast<std::uint32_t>(rng.bounded(160));
    phases = 1 + static_cast<std::uint32_t>(rng.bounded(3));
    uses_shared = rng.uniform() < 0.5;
    cfg.shmem_bytes = uses_shared ? 4 * cfg.block_dim : 0;
    // Narrow spans force L1 reuse across slots. Wide kernels scatter
    // 33-64-byte accesses (2-3 sectors each) from every lane, so one warp's
    // slot passes the 64 sectors SegmentSet stores.
    const bool wide = rng.uniform() < 0.3;
    const std::uint64_t spans[] = {256, 4096, 1 << 20};
    span = wide ? 1 << 20 : spans[rng.bounded(3)];
    min_bytes = wide ? 33 : 0;
    base = ctx.reserve_address(span + 64);
    max_accesses = 1 + static_cast<std::uint32_t>(rng.bounded(6));
    for (auto& h : hot) h = base + rng.bounded(span);
  }

  template <typename Lane>
  void run_lane(Lane& lane, std::uint32_t phase) const {
    util::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull *
                                 (1 + lane.block_idx() * 131071ull +
                                  phase * 8191ull + lane.tid())));
    auto* words = reinterpret_cast<std::uint32_t*>(lane.shared());
    std::uint64_t skew = 0;
    if (uses_shared) {
      if (phase == 0) {
        words[lane.tid()] = static_cast<std::uint32_t>(rng());
      } else {
        // Read a neighbour's word: the access stream depends on data phase 0
        // left in this block's shared memory.
        skew = words[(lane.tid() + phase) % lane.block_dim()] % 64;
      }
    }
    const std::uint32_t n =
        min_bytes > 0
            ? 1 + static_cast<std::uint32_t>(rng.bounded(max_accesses))
            : static_cast<std::uint32_t>(rng.bounded(max_accesses + 1));
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint64_t addr =
          rng.uniform() < 0.25 ? hot[rng.bounded(8)]
                               : base + (rng.bounded(span) + skew) % span;
      const auto bytes = min_bytes + static_cast<std::uint32_t>(
                                         rng.bounded(65 - min_bytes));
      if (rng.uniform() < 0.5) {
        lane.read(addr, bytes);
      } else {
        lane.write(addr, bytes);
      }
      lane.charge(rng.bounded(40));
    }
  }

  template <typename Block, typename MakeLane>
  void run_block(Block& blk, MakeLane&& make_lane) const {
    for (std::uint32_t p = 0; p < phases; ++p) {
      blk.for_each_thread([&](auto& t) {
        auto&& lane = make_lane(t);
        run_lane(lane, p);
      });
      if (p % 2 == 1) blk.charge_all(150);
    }
  }
};

void expect_same_stats(const KernelStats& got, const KernelStats& want) {
  EXPECT_EQ(got.critical_block_cycles_max, want.critical_block_cycles_max);
  EXPECT_EQ(got.block_cycles_sum, want.block_cycles_sum);
  EXPECT_EQ(got.scheduled_warp_cycles, want.scheduled_warp_cycles);
  EXPECT_EQ(got.global_transactions, want.global_transactions);
  EXPECT_EQ(got.grid_dim, want.grid_dim);
  EXPECT_EQ(got.block_dim, want.block_dim);
  EXPECT_EQ(got.shmem_per_block, want.shmem_per_block);
}

/// Runs `body` (generic over the block type and a lane factory) through
/// both recorders, compares their stats and returns the reference's launch.
template <typename Body>
reference::Launch run_both(SimContext& ctx, LaunchConfig cfg,
                           const Body& body) {
  const KernelResult got = ctx.launch("diff", cfg, [&](BlockCtx& blk) {
    body(blk, [&](ThreadCtx& t) { return SimLane(blk, t); });
  });
  const reference::Launch want =
      reference::launch(ctx.spec(), cfg, [&](reference::Block& blk) {
        body(blk, [](reference::Block::Lane& lane) -> reference::Block::Lane& {
          return lane;
        });
      });
  expect_same_stats(got.stats, want.stats);
  return want;
}

TEST(RecorderDiff, RandomKernelsMatchReference) {
  SimContext ctx;
  std::uint32_t past_capacity = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "kernel seed " << seed);
    const RandomKernel kernel(seed, ctx);
    const reference::Launch launch =
        run_both(ctx, kernel.cfg, [&](auto& blk, auto&& make_lane) {
          kernel.run_block(blk, make_lane);
        });
    if (launch.widest_slot > 64) ++past_capacity;
  }
  // The seeds must push slots past the 64 sectors SegmentSet stores.
  EXPECT_GT(past_capacity, 10u);
}

TEST(RecorderDiff, SlotPastSixtyFourSectorsKeepsCounting) {
  // Slot 0: lanes 0-21 each write three fresh sectors (66 distinct, past the
  // 64 a slot stores), then lanes 22-31 write one far sector that the slot
  // could not store, so each of the ten writes counts again. Slot 1: every
  // lane reads that sector; lane 0 runs first and misses, the rest hit L1.
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 16);
  const std::uint64_t far = base + (1 << 15);
  const reference::Launch launch =
      run_both(ctx, {1, 32, 0}, [&](auto& blk, auto&& make_lane) {
        blk.for_each_thread([&](auto& t) {
          auto&& lane = make_lane(t);
          if (lane.tid() < 22) {
            lane.write(base + lane.tid() * 96 + 16, 64);
          } else {
            lane.write(far, 4);
          }
          lane.read(far, 4);
        });
      });
  EXPECT_EQ(launch.stats.global_transactions, 66u + 10u + 1u);
  // LSU cycles: 76 counted sectors in slot 0 plus one in slot 1.
  EXPECT_EQ(launch.stats.critical_block_cycles_max,
            77u * ctx.spec().mem_issue_cycles);
}

TEST(RecorderDiff, WriteThenReadOfOneSectorIsOneTransaction) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(4096);
  const reference::Launch launch =
      run_both(ctx, {1, 32, 0}, [&](auto& blk, auto&& make_lane) {
        blk.for_each_thread([&](auto& t) {
          auto&& lane = make_lane(t);
          if (lane.tid() != 0) return;
          lane.write(base, 4);  // write-through: one transaction
          lane.read(base, 4);   // the warp holds the sector: L1 hit
        });
      });
  EXPECT_EQ(launch.stats.global_transactions, 1u);
}

TEST(RecorderDiff, ReadThenWriteOfOneSectorIsTwoTransactions) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(4096);
  const reference::Launch launch =
      run_both(ctx, {1, 32, 0}, [&](auto& blk, auto&& make_lane) {
        blk.for_each_thread([&](auto& t) {
          auto&& lane = make_lane(t);
          if (lane.tid() != 0) return;
          lane.read(base, 4);   // miss: one transaction
          lane.write(base, 4);  // stores bypass L1: another one
        });
      });
  EXPECT_EQ(launch.stats.global_transactions, 2u);
}

/// One seeded streaming kernel: each block runs one or two streaming phases
/// with their own element counts and accesses. An access either gets a
/// buffer of its own, starting anywhere within a sector, or repeats an
/// earlier access of its phase exactly, which is what stream_phase's
/// precondition allows.
struct StreamKernel {
  static constexpr std::uint32_t kElemBytes[] = {1, 2, 4, 8, 12, 16, 32};

  LaunchConfig cfg;
  // [phase][block]: what one block's phase streams.
  std::vector<std::vector<std::uint64_t>> counts;
  std::vector<std::vector<std::vector<StreamAccess>>> accesses;
  std::vector<std::uint64_t> cycles_per_elem;  // [phase]

  StreamKernel(std::uint64_t seed, std::uint32_t block_dim, SimContext& ctx) {
    util::Xoshiro256 rng(seed);
    cfg = {1 + static_cast<std::uint32_t>(rng.bounded(3)), block_dim, 0};
    const std::uint32_t phases = 1 + static_cast<std::uint32_t>(rng.bounded(2));
    for (std::uint32_t p = 0; p < phases; ++p) {
      std::vector<std::uint64_t> phase_counts;
      std::uint64_t max_count = 0;
      for (std::uint32_t b = 0; b < cfg.grid_dim; ++b) {
        // Nothing, a partial first warp, or several strides of the block.
        const std::uint64_t kind = rng.bounded(4);
        const std::uint64_t count =
            kind == 0 ? 0
            : kind == 1
                ? 1 + rng.bounded(std::min<std::uint32_t>(31, block_dim))
                : rng.bounded(5 * static_cast<std::uint64_t>(block_dim) + 1);
        phase_counts.push_back(count);
        max_count = std::max(max_count, count);
      }
      std::vector<StreamAccess> phase_accesses;
      const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.bounded(4));
      for (std::uint32_t a = 0; a < n; ++a) {
        if (a > 0 && rng.uniform() < 0.25) {
          phase_accesses.push_back(phase_accesses[rng.bounded(a)]);
          continue;
        }
        const std::uint32_t bytes = kElemBytes[rng.bounded(7)];
        const std::uint64_t block_span = max_count * bytes + 32;
        const std::uint64_t base =
            ctx.reserve_address(cfg.grid_dim * block_span) + rng.bounded(32);
        phase_accesses.push_back({base, bytes, rng.uniform() < 0.5});
      }
      // Block b streams its own stretch of each buffer.
      std::vector<std::vector<StreamAccess>> per_block;
      for (std::uint32_t b = 0; b < cfg.grid_dim; ++b) {
        std::vector<StreamAccess> shifted = phase_accesses;
        for (StreamAccess& s : shifted) {
          s.base += b * (max_count * s.elem_bytes + 32);
        }
        per_block.push_back(std::move(shifted));
      }
      counts.push_back(std::move(phase_counts));
      accesses.push_back(std::move(per_block));
      cycles_per_elem.push_back(rng.bounded(20));
    }
  }

  void run_stream(BlockCtx& blk) const {
    for (std::size_t p = 0; p < counts.size(); ++p) {
      const std::uint32_t b = blk.block_idx();
      blk.stream_phase(counts[p][b], accesses[p][b], cycles_per_elem[p]);
    }
  }

  void run_lanes(BlockCtx& blk) const {
    for (std::size_t p = 0; p < counts.size(); ++p) {
      const std::uint32_t b = blk.block_idx();
      blk.for_each_thread([&](ThreadCtx& t) {
        for (std::uint64_t k = t.tid(); k < counts[p][b];
             k += blk.block_dim()) {
          for (const StreamAccess& a : accesses[p][b]) {
            const std::uint64_t addr = a.base + k * a.elem_bytes;
            if (a.is_write) {
              t.global_write(addr, a.elem_bytes);
            } else {
              t.global_read(addr, a.elem_bytes);
            }
          }
          t.charge(cycles_per_elem[p]);
        }
      });
    }
  }
};

TEST(RecorderDiff, StreamPhaseMatchesLaneByLanePhase) {
  SimContext ctx;
  std::set<std::uint32_t> elem_bytes_seen;
  std::uint32_t empty = 0, partial_warp = 0, strided = 0, repeats = 0;
  std::uint32_t unaligned = 0, mixed = 0;
  for (const std::uint32_t block_dim : {32u, 40u, 100u, 128u, 256u}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "block_dim " << block_dim << ", seed " << seed);
      const StreamKernel kernel(seed * 1000 + block_dim, block_dim, ctx);
      const KernelResult got = ctx.launch(
          "stream", kernel.cfg, [&](BlockCtx& blk) { kernel.run_stream(blk); });
      const KernelResult want = ctx.launch(
          "lanes", kernel.cfg, [&](BlockCtx& blk) { kernel.run_lanes(blk); });
      expect_same_stats(got.stats, want.stats);
      EXPECT_EQ(got.timing.seconds, want.timing.seconds);

      for (std::size_t p = 0; p < kernel.counts.size(); ++p) {
        for (const std::uint64_t count : kernel.counts[p]) {
          empty += count == 0;
          partial_warp += count > 0 && count < 32;
          strided += count > block_dim;
        }
        const std::vector<StreamAccess>& list = kernel.accesses[p][0];
        bool reads = false, writes = false;
        for (std::size_t a = 0; a < list.size(); ++a) {
          elem_bytes_seen.insert(list[a].elem_bytes);
          unaligned += list[a].base % 32 != 0;
          reads |= !list[a].is_write;
          writes |= list[a].is_write;
          for (std::size_t e = 0; e < a; ++e) {
            if (list[e].base == list[a].base) {
              ++repeats;
              break;
            }
          }
        }
        mixed += reads && writes;
      }
    }
  }
  EXPECT_EQ(elem_bytes_seen.size(), std::size(StreamKernel::kElemBytes));
  EXPECT_GT(empty, 50u);
  EXPECT_GT(partial_warp, 50u);
  EXPECT_GT(strided, 50u);
  EXPECT_GT(repeats, 50u);
  EXPECT_GT(unaligned, 50u);
  EXPECT_GT(mixed, 50u);
}

TEST(RecorderDiff, StreamPhaseRejectsElementSizesOutsideOneToThirtyTwo) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 12);
  for (const std::uint32_t bytes : {0u, 33u}) {
    const StreamAccess accesses[] = {{base, 4, false}, {base, bytes, true}};
    EXPECT_THROW(ctx.launch("stream", {1, 32, 0},
                            [&](BlockCtx& blk) {
                              blk.stream_phase(32, accesses, 1);
                            }),
                 std::invalid_argument)
        << "elem_bytes " << bytes;
  }
}

}  // namespace
}  // namespace ohd::cudasim

#include "cudasim/exec.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace ohd::cudasim {
namespace {

TEST(Exec, KernelRunsEveryThreadOnce) {
  SimContext ctx;
  std::vector<int> hits(1024, 0);
  ctx.launch("touch", {4, 256, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& t) { ++hits[blk.global_tid(t)]; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Exec, PhasesActAsBarriers) {
  // Phase 2 reads what phase 1 wrote across the whole block.
  SimContext ctx;
  bool ok = true;
  ctx.launch("barrier", {1, 128, 4 * 128}, [&](BlockCtx& blk) {
    auto* shared = blk.shared_as<std::uint32_t>();
    blk.for_each_thread([&](ThreadCtx& t) { shared[t.tid()] = t.tid(); });
    blk.for_each_thread([&](ThreadCtx& t) {
      const std::uint32_t peer = (t.tid() + 64) % 128;
      if (shared[peer] != peer) ok = false;
    });
  });
  EXPECT_TRUE(ok);
}

TEST(Exec, WarpAndLaneIdentifiers) {
  SimContext ctx;
  ctx.launch("ids", {1, 64, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& t) {
      EXPECT_EQ(t.warp(), t.tid() / 32);
      EXPECT_EQ(t.lane(), t.tid() % 32);
    });
  });
}

TEST(Exec, CoalescedWarpAccessProducesFewTransactions) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 20);
  // 32 lanes write 4-byte values to consecutive addresses: 128 bytes = 4
  // 32-byte transactions per warp.
  const auto r = ctx.launch("coalesced", {1, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread(
        [&](ThreadCtx& t) { t.global_write(base + t.tid() * 4, 4); });
  });
  EXPECT_EQ(r.stats.global_transactions, 4u);
}

TEST(Exec, ScatteredWarpAccessProducesOneTransactionPerLane) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 20);
  const auto r = ctx.launch("scattered", {1, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread(
        [&](ThreadCtx& t) { t.global_write(base + t.tid() * 4096, 4); });
  });
  EXPECT_EQ(r.stats.global_transactions, 32u);
}

TEST(Exec, WarpPhaseSectorReuseHitsL1) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 20);
  // Slot 0 scatters to 32 sectors; slot 1 re-reads a sector lane 0 already
  // touched — an L1 hit, so no new bandwidth transaction is counted.
  const auto r = ctx.launch("slots", {1, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& t) {
      t.global_read(base + t.tid() * 4096, 4);  // slot 0: 32 txns
      t.global_read(base, 4);                   // slot 1: warm sector
    });
  });
  EXPECT_EQ(r.stats.global_transactions, 32u);
}

TEST(Exec, SectorReuseDoesNotCarryAcrossPhases) {
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 20);
  const auto r = ctx.launch("twophase", {1, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& t) { t.global_read(base, 4); });
    blk.for_each_thread([&](ThreadCtx& t) { t.global_read(base, 4); });
  });
  EXPECT_EQ(r.stats.global_transactions, 2u);
}

TEST(Exec, SectorReuseDoesNotCarryAcrossBlocks) {
  // Every block of a launch runs through one reused context; the second
  // block must still miss on the sector the first block read.
  SimContext ctx;
  const std::uint64_t base = ctx.reserve_address(1 << 20);
  const auto r = ctx.launch("twoblocks", {2, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& t) { t.global_read(base, 4); });
  });
  EXPECT_EQ(r.stats.global_transactions, 2u);
}

TEST(Exec, DivergenceChargesWarpAtMaxLaneCost) {
  SimContext ctx;
  // Lane 0 charges 1000 cycles, the rest 1: the warp costs 1000.
  const auto r = ctx.launch("diverge", {1, 32, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread(
        [&](ThreadCtx& t) { t.charge(t.tid() == 0 ? 1000 : 1); });
  });
  EXPECT_EQ(r.stats.critical_block_cycles_max, 1000u);
}

TEST(Exec, BarrierChargesBlockAtMaxWarpCost) {
  SimContext ctx;
  // Warp 1 (tids 32-63) is slow: the whole block pays for it.
  const auto r = ctx.launch("slowwarp", {1, 64, 0}, [&](BlockCtx& blk) {
    blk.for_each_thread(
        [&](ThreadCtx& t) { t.charge(t.warp() == 1 ? 500 : 10); });
  });
  EXPECT_EQ(r.stats.critical_block_cycles_max, 500u);
  // Both warps occupy their schedulers for those 500 cycles.
  EXPECT_EQ(r.stats.scheduled_warp_cycles, 1000u);
}

TEST(Exec, TimelineAccumulatesLaunches) {
  SimContext ctx;
  ctx.launch("a", {1, 32, 0}, [](BlockCtx&) {});
  ctx.launch("a", {1, 32, 0}, [](BlockCtx&) {});
  ctx.launch("b", {1, 32, 0}, [](BlockCtx&) {});
  EXPECT_EQ(ctx.timeline().entries().size(), 3u);
  EXPECT_NEAR(ctx.timeline().total_with_prefix("a"),
              2 * ctx.spec().launch_overhead_s, 1e-9);
}

TEST(Exec, LaunchUntimedDoesNotTouchTimeline) {
  SimContext ctx;
  ctx.launch_untimed("x", {1, 32, 0}, [](BlockCtx&) {});
  EXPECT_TRUE(ctx.timeline().entries().empty());
}

TEST(Exec, DistinctBuffersGetDisjointAddressRanges) {
  SimContext ctx;
  const std::uint64_t a = ctx.reserve_address(100 * sizeof(std::uint32_t));
  const std::uint64_t b = ctx.reserve_address(100 * sizeof(std::uint32_t));
  EXPECT_GE(b, a + 100 * sizeof(std::uint32_t));
}

TEST(Exec, HostToDeviceChargesTimeline) {
  SimContext ctx;
  const double t = ctx.host_to_device(1'000'000);
  EXPECT_GT(t, 0.0);
  EXPECT_NEAR(ctx.timeline().total(), t, 1e-12);
}

}  // namespace
}  // namespace ohd::cudasim

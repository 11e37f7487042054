// PriorityRequestQueue unit coverage: the credit-weighted pop schedule and
// its starvation bound, FIFO order within a class, weight redistribution
// when classes empty out, and the three removal paths (remove-by-id for
// cancel, shed_below for overload, expire for deadlines) that hand requests
// back instead of dropping them.
#include "service/request_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ohd::service {
namespace {

QueuedRequest req(RequestId id, Priority p, std::uint64_t enqueue_ns = 0,
                  std::uint64_t deadline_ns = 0) {
  QueuedRequest r;
  r.id = id;
  r.priority = p;
  r.enqueue_ns = enqueue_ns;
  r.deadline_ns = deadline_ns;
  return r;
}

/// Pops everything, returning the ids in pop order.
std::vector<RequestId> pop_all(PriorityRequestQueue& q) {
  std::vector<RequestId> ids;
  while (auto r = q.pop()) ids.push_back(r->id);
  return ids;
}

TEST(PriorityRequestQueue, WeightedCycleUnderSaturation) {
  PriorityRequestQueue q;
  // 8 of each class, ids encode the class: 1xx interactive, 2xx batch,
  // 3xx background.
  for (RequestId i = 0; i < 8; ++i) {
    q.push(req(100 + i, Priority::Interactive));
    q.push(req(200 + i, Priority::Batch));
    q.push(req(300 + i, Priority::Background));
  }
  // One full credit cycle is 7 pops: 4 interactive, 2 batch, 1 background —
  // the documented starvation bound, FIFO within each class.
  const std::vector<RequestId> first_cycle = {100, 101, 102, 103,
                                              200, 201, 300};
  std::vector<RequestId> got;
  for (int i = 0; i < 7; ++i) got.push_back(q.pop()->id);
  EXPECT_EQ(got, first_cycle);
  // The next cycle repeats the pattern with the next ids.
  const std::vector<RequestId> second_cycle = {104, 105, 106, 107,
                                               202, 203, 301};
  got.clear();
  for (int i = 0; i < 7; ++i) got.push_back(q.pop()->id);
  EXPECT_EQ(got, second_cycle);
}

TEST(PriorityRequestQueue, LowClassesDrainWhenHighIsEmpty) {
  PriorityRequestQueue q;
  for (RequestId i = 0; i < 4; ++i) q.push(req(300 + i, Priority::Background));
  // No interactive/batch work: background pops immediately, in FIFO order —
  // empty classes never hoard the cycle.
  EXPECT_EQ(pop_all(q), (std::vector<RequestId>{300, 301, 302, 303}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(PriorityRequestQueue, RemoveByIdTakesTheRequestOut) {
  PriorityRequestQueue q;
  q.push(req(1, Priority::Batch));
  q.push(req(2, Priority::Batch));
  q.push(req(3, Priority::Interactive));
  auto removed = q.remove(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.remove(2).has_value());  // already gone
  EXPECT_FALSE(q.remove(99).has_value());
  EXPECT_EQ(pop_all(q), (std::vector<RequestId>{3, 1}));
}

TEST(PriorityRequestQueue, ShedBelowPicksNewestOfLowestClass) {
  PriorityRequestQueue q;
  q.push(req(20, Priority::Batch));
  q.push(req(30, Priority::Background));
  q.push(req(31, Priority::Background));

  // An interactive submit sheds the NEWEST background request first.
  auto victim = q.shed_below(Priority::Interactive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 31u);
  // A batch submit can still displace background...
  victim = q.shed_below(Priority::Batch);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 30u);
  // ...but never its own class, and background can displace nothing.
  EXPECT_FALSE(q.shed_below(Priority::Batch).has_value());
  EXPECT_FALSE(q.shed_below(Priority::Background).has_value());
  // With background empty, interactive may displace batch.
  victim = q.shed_below(Priority::Interactive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 20u);
  EXPECT_TRUE(q.empty());
}

TEST(PriorityRequestQueue, ExpireRemovesOnlyPastDeadlineRequests) {
  PriorityRequestQueue q;
  q.push(req(1, Priority::Batch, 0, 100));       // expires at t=100
  q.push(req(2, Priority::Batch, 0, 0));         // no deadline
  q.push(req(3, Priority::Interactive, 0, 50));  // expires at t=50
  q.push(req(4, Priority::Background, 0, 500));

  auto expired = q.expire(100);
  std::vector<RequestId> ids;
  for (const auto& r : expired) ids.push_back(r.id);
  // (priority, FIFO) order: interactive 3 before batch 1.
  EXPECT_EQ(ids, (std::vector<RequestId>{3, 1}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.expire(100).empty());  // idempotent at the same instant
}

TEST(PriorityRequestQueue, OldestEnqueueTracksFifoHead) {
  PriorityRequestQueue q;
  EXPECT_EQ(q.oldest_enqueue_ns(Priority::Batch), 0u);
  q.push(req(1, Priority::Batch, 1000));
  q.push(req(2, Priority::Batch, 2000));
  EXPECT_EQ(q.oldest_enqueue_ns(Priority::Batch), 1000u);
  EXPECT_EQ(q.oldest_enqueue_ns(Priority::Interactive), 0u);
  (void)q.pop();
  EXPECT_EQ(q.oldest_enqueue_ns(Priority::Batch), 2000u);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace ohd::service

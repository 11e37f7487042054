#include "service/request_queue.hpp"

#include <algorithm>

namespace ohd::service {

namespace {

/// Credits granted to each class per cycle. The starvation bound quoted in
/// the header follows directly: a cycle funds 4+2+1 = 7 pops, and a class
/// that stays non-empty spends its whole grant every cycle.
constexpr std::size_t kWeights[kPriorityClasses] = {4, 2, 1};

}  // namespace

void PriorityRequestQueue::push(QueuedRequest req) {
  lane(req.priority).push_back(std::move(req));
}

std::optional<QueuedRequest> PriorityRequestQueue::pop() {
  if (empty()) return std::nullopt;
  // A class can spend a credit only while it holds work; when no populated
  // class has credits left, refund the full grant. The refund considers
  // POPULATED classes only, so an empty Interactive lane cannot hoard the
  // cycle while Batch and Background wait.
  bool spendable = false;
  for (std::size_t p = 0; p < kPriorityClasses; ++p) {
    if (credits_[p] > 0 && !lanes_[p].empty()) spendable = true;
  }
  if (!spendable) {
    for (std::size_t p = 0; p < kPriorityClasses; ++p) {
      credits_[p] = kWeights[p];
    }
  }
  for (std::size_t p = 0; p < kPriorityClasses; ++p) {
    if (credits_[p] == 0 || lanes_[p].empty()) continue;
    --credits_[p];
    QueuedRequest req = std::move(lanes_[p].front());
    lanes_[p].pop_front();
    return req;
  }
  // Unreachable: the refund above funded every class and some lane is
  // non-empty, so the scan must have popped.
  return std::nullopt;
}

std::optional<QueuedRequest> PriorityRequestQueue::remove(RequestId id) {
  for (auto& q : lanes_) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->id == id) {
        QueuedRequest req = std::move(*it);
        q.erase(it);
        return req;
      }
    }
  }
  return std::nullopt;
}

std::optional<QueuedRequest> PriorityRequestQueue::shed_below(
    Priority incoming) {
  // Lowest populated class first (Background, then Batch), newest request
  // of that class: the work least likely to be waited on and the cheapest
  // loss of queue progress.
  const auto inc = static_cast<std::size_t>(incoming);
  for (std::size_t p = kPriorityClasses; p-- > 0;) {
    if (p <= inc) break;  // only classes STRICTLY below the incoming one
    if (lanes_[p].empty()) continue;
    QueuedRequest req = std::move(lanes_[p].back());
    lanes_[p].pop_back();
    return req;
  }
  return std::nullopt;
}

std::vector<QueuedRequest> PriorityRequestQueue::expire(std::uint64_t now_ns) {
  std::vector<QueuedRequest> expired;
  for (auto& q : lanes_) {
    for (auto it = q.begin(); it != q.end();) {
      if (it->deadline_ns != 0 && it->deadline_ns <= now_ns) {
        expired.push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
  return expired;
}

std::uint64_t PriorityRequestQueue::oldest_enqueue_ns(Priority priority) const {
  const auto& q = lane(priority);
  return q.empty() ? 0 : q.front().enqueue_ns;
}

std::size_t PriorityRequestQueue::size() const {
  std::size_t n = 0;
  for (const auto& q : lanes_) n += q.size();
  return n;
}

}  // namespace ohd::service

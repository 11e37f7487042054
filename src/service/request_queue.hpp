// PriorityRequestQueue: the three-class scheduling queue behind
// CompressionService's dispatchers. Replaces the PR 8 FIFO with one FIFO per
// Priority class and a credit-based weighted pop (Interactive 4 : Batch 2 :
// Background 1) — under saturation every class drains at its weight's share
// of pops, so the starvation bound is explicit: any non-empty class is
// popped at least `weight` times per 7 pops. When only some classes hold
// work, their relative weights still apply and no pop is ever wasted on an
// empty class.
//
// The queue is NOT internally synchronized: CompressionService guards every
// call with its own mutex (the queue is one piece of the service's larger
// admission/dispatch critical sections, and a second lock here would only
// add ordering hazards). Removal paths — cancel, shed, expire — hand the
// removed requests BACK to the caller instead of dropping them, because
// every admitted request must still settle: the service runs the removed
// request inline (outside its lock) so the request body can throw its
// verdict error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "service/service_types.hpp"

namespace ohd::service {

/// One queued (admitted, not yet executing) request.
struct QueuedRequest {
  RequestId id = 0;
  Priority priority = Priority::Batch;
  RequestClass cls = RequestClass::Compress;
  /// now_ns() at admission when telemetry was enabled, else 0 (feeds the
  /// queue-wait histogram; see CompressionService::Request in PR 8).
  std::uint64_t enqueue_ns = 0;
  /// Absolute deadline on the obs::now_ns() clock, 0 = none.
  std::uint64_t deadline_ns = 0;
  /// The request body; settles the request exactly once when run. The
  /// argument is true when a dispatcher executes the request and false when
  /// a removal path (cancel, shed, expiry) settles it with its verdict.
  std::function<void(bool dispatched)> run;
};

class PriorityRequestQueue {
 public:
  void push(QueuedRequest req);

  /// Weighted pop: chooses the class by the credit cycle described above,
  /// FIFO within the class. Empty queue returns nullopt.
  std::optional<QueuedRequest> pop();

  /// Removes a queued request by id (cancel path). Returns it so the caller
  /// can settle it; nullopt if the id is not queued (already dispatched or
  /// never existed).
  std::optional<QueuedRequest> remove(RequestId id);

  /// Overload shedding: removes the NEWEST queued request of the lowest
  /// populated class STRICTLY below `incoming` (Background before Batch;
  /// Interactive is never shed). Returns nullopt when nothing below the
  /// incoming priority is queued — the incoming request is the one that
  /// must be rejected then.
  std::optional<QueuedRequest> shed_below(Priority incoming);

  /// Deadline sweep: removes every queued request whose deadline passed at
  /// `now_ns`, in (priority, FIFO) order.
  std::vector<QueuedRequest> expire(std::uint64_t now_ns);

  /// Admission enqueue-time of the OLDEST queued request of a class, 0 when
  /// that class is empty (feeds the per-class queue-age gauges).
  std::uint64_t oldest_enqueue_ns(Priority priority) const;

  std::size_t size() const;
  bool empty() const { return size() == 0; }

 private:
  std::deque<QueuedRequest>& lane(Priority p) {
    return lanes_[static_cast<std::size_t>(p)];
  }
  const std::deque<QueuedRequest>& lane(Priority p) const {
    return lanes_[static_cast<std::size_t>(p)];
  }

  std::deque<QueuedRequest> lanes_[kPriorityClasses];
  /// Remaining pops each class may take in the current credit cycle; all
  /// zero (or only empty classes funded) starts the next cycle.
  std::size_t credits_[kPriorityClasses] = {0, 0, 0};
};

}  // namespace ohd::service

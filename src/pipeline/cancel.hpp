// Cooperative cancellation primitive shared by the batch pipeline and the
// service layer above it. A CancelToken is a cheap copyable handle to one
// shared flag; work that wants to be cancellable polls it at its natural
// task boundaries (chunk fan-out submission, task entry, streamed chunks)
// and aborts by throwing OperationCancelled. Cancellation is COOPERATIVE: a task
// that is already past its last check runs to completion, and results of an
// uncancelled run are bit-identical to a run without any token — the checks
// observe, never mutate.
//
// A default-constructed token is inert: it holds no flag, cancelled() is
// always false, and request_cancel() is a no-op. That keeps every existing
// call site zero-cost until a caller opts in with CancelToken::make().
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

namespace ohd::pipeline {

/// Thrown by cancellable pipeline work when its token was cancelled. Derives
/// std::runtime_error (not std::invalid_argument like the format errors):
/// cancellation describes the CALLER's intent, not malformed input.
class OperationCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CancelToken {
 public:
  /// Inert token: never cancelled, request_cancel() is a no-op.
  CancelToken() = default;

  /// A live token backed by one shared flag; copies share the flag.
  static CancelToken make() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Sets the shared flag (idempotent, thread-safe). Inert tokens ignore it.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// True for tokens created by make() (i.e. cancellable at all).
  bool valid() const { return flag_ != nullptr; }

  /// The boundary check cancellable work calls: throws OperationCancelled
  /// once the flag is set.
  void throw_if_cancelled() const {
    if (cancelled()) {
      throw OperationCancelled("operation cancelled by its CancelToken");
    }
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace ohd::pipeline

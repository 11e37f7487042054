// Shared vocabulary of the compression service front end (see
// docs/service_api.md for the full reference): client/archive identifiers,
// the per-client negotiated options, the service-wide limits, the typed
// request payloads/results, and the service error taxonomy.
//
// Errors derive std::runtime_error (not std::invalid_argument like the
// pipeline's format errors) because they describe SERVICE state — a full
// queue, a stopped service, a closed client — not malformed input. Pipeline
// errors (ContainerError, ArchiveError) still settle a request unchanged
// when the request itself touches bad data.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/huffman_codec.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/method_selector.hpp"
#include "sz/lorenzo.hpp"

namespace ohd::service {

/// Any failure raised by the service layer itself.
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Admission rejection: the request queue is at its high-water mark, the
/// client is at its in-flight cap, or the client is over its byte quota. The
/// request was NOT enqueued; retrying after a backoff is the expected client
/// response. The message always carries the observed queue depth and the
/// client's in-flight count at rejection time.
class ServiceBusy : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// Overload rejection/shed verdict: the queue was full of work the request's
/// priority could not displace (thrown at submit), or the request WAS queued
/// and later shed to make room for higher-priority work (the request settles
/// with it). Derives ServiceBusy — every retry loop written against
/// ServiceBusy keeps working — and adds a retry-after hint derived from the
/// observed queue drain rate (0 until the service has drained anything).
class ServiceOverloaded : public ServiceBusy {
 public:
  ServiceOverloaded(const std::string& what, std::uint64_t retry_after_ns)
      : ServiceBusy(what), retry_after_ns_(retry_after_ns) {}

  /// Suggested client backoff before resubmitting, in nanoseconds:
  /// queue_depth x EWMA inter-completion time at rejection/shed time.
  std::uint64_t retry_after_ns() const { return retry_after_ns_; }

 private:
  std::uint64_t retry_after_ns_ = 0;
};

/// The service has been shut down (or is draining); no new work is accepted.
class ServiceStopped : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// The request was cancelled — via CompressionService::cancel(RequestId) or
/// the caller's CancellationToken — before or during execution. The request
/// settles with it; its admitted slot and bytes are released first.
class RequestCancelled : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// The request's deadline passed before it finished: the sweeper expired it
/// in the queue, or the dispatcher refused to start it late. The request
/// settles with it.
class DeadlineExceeded : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// Client-lifecycle violation: unknown or already-closed client id, unknown
/// (or LRU-evicted) archive handle, double close.
class ClientError : public ServiceError {
 public:
  using ServiceError::ServiceError;
};

/// Stable client identity, assigned by open_client and valid until
/// close_client. Ids are never reused within a service's lifetime.
using ClientId = std::uint64_t;

/// Per-client handle to an open ArchiveReader, assigned by open_archive.
/// Handles are scoped to their client and never reused within its lifetime;
/// a handle evicted by the reader LRU behaves exactly like a closed one.
using ArchiveHandle = std::uint64_t;

/// Service-wide identity of one admitted request, assigned at submit and
/// never reused within a service's lifetime (0 is never assigned, so it can
/// serve as "no request" in caller bookkeeping). The target of cancel().
using RequestId = std::uint64_t;

/// Cooperative cancellation handle, shared with the batch pipeline: the
/// service polls it at its own verdict points (queue removal, dispatch,
/// between chunks via BatchScheduler) and callers may keep a copy to
/// request_cancel() without knowing the RequestId.
using CancellationToken = pipeline::CancelToken;

/// Scheduling priority of a request. The queue pops weighted round-robin
/// (Interactive 4 : Batch 2 : Background 1 credits per cycle), so every
/// class keeps draining under saturation — the starvation bound is at least
/// `weight` pops per 7 under continuous load — and overload sheds the
/// NEWEST queued request of the lowest populated class first.
enum class Priority : std::uint8_t {
  Interactive = 0,
  Batch = 1,
  Background = 2,
};
inline constexpr std::size_t kPriorityClasses = 3;

/// Metric/label segment of a priority: "interactive", "batch", "background".
const char* priority_name(Priority priority);

/// Absolute completion deadline carried by a request. Expressed on the
/// obs::now_ns() steady clock; Deadline{} (ns == 0) means "none".
struct Deadline {
  std::uint64_t ns = 0;

  /// A deadline `d` from now on the service's steady clock.
  static Deadline after(std::chrono::nanoseconds d);
  /// No deadline (the default).
  static Deadline none() { return {}; }

  bool valid() const { return ns != 0; }
};

/// Optional per-request scheduling envelope, accepted by every submit_*.
/// Default-constructed options reproduce the PR 8 behaviour exactly: Batch
/// priority, no deadline, no caller-held cancellation token.
struct RequestOptions {
  Priority priority = Priority::Batch;
  Deadline deadline;
  /// A caller-held token: pass CancellationToken::make() and keep a copy to
  /// cancel without the RequestId. Inert (default) tokens cost nothing.
  CancellationToken cancel;
};

/// How an admitted request settled: its value, or the exception it failed
/// with (its own error, or a lifecycle verdict such as RequestCancelled).
template <typename T>
using Settled = std::variant<T, std::exception_ptr>;

/// The settle callback of a callback-form submit_*. The service calls it
/// exactly once per admitted request, on the thread that settled it, never
/// under a service lock. It must neither throw nor block.
template <typename T>
using OnSettle = std::function<void(Settled<T>)>;

/// What a future-form submit returns: the future plus the RequestId that
/// cancel() takes. get()/wait() forward to the future so result-only call
/// sites read exactly as before (`submit_...(...).get()`).
template <typename T>
struct Submission {
  RequestId id = 0;
  std::future<T> future;

  T get() { return future.get(); }
  void wait() const { future.wait(); }
};

/// The future form of a submit: runs the callback form `submit` with a
/// callback that fulfils a std::promise, and returns its future. The
/// service's and the wire client's future forms both go through it.
template <typename T, typename SubmitFn>
Submission<T> with_future(SubmitFn submit) {
  auto promise = std::make_shared<std::promise<T>>();
  Submission<T> out;
  out.future = promise->get_future();
  out.id = submit([promise](Settled<T> outcome) {
    if (auto* value = std::get_if<T>(&outcome)) {
      promise->set_value(std::move(*value));
    } else {
      promise->set_exception(std::get<std::exception_ptr>(outcome));
    }
  });
  return out;
}

/// The four request classes the service multiplexes. Each class gets its own
/// queue-wait and service-latency histograms ("service.<name>.*", see
/// request_class_name).
enum class RequestClass : std::uint8_t {
  Compress = 0,          // whole-job compress -> archive bytes
  BatchDecompress = 1,   // all fields of an open archive
  RandomAccessChunk = 2, // one chunk of one field
  RangeDecode = 3,       // an element range of one field
};
inline constexpr std::size_t kRequestClasses = 4;

/// Metric/label segment of a request class: "compress", "decompress",
/// "chunk", "range".
const char* request_class_name(RequestClass cls);

/// Negotiated per-client compression parameters, fixed at open_client (the
/// ROHC-style context: one long-lived entry per client holding everything a
/// request needs beyond its payload). Every request of the client is
/// executed under these.
struct ClientOptions {
  /// Error bound of compress requests, relative to each field's value range.
  double rel_error_bound = 1e-3;
  std::uint32_t radius = 512;
  core::Method method = core::Method::GapArrayOptimized;
  std::size_t chunk_elems = std::size_t{1} << 16;
  /// Adaptive planning (per-chunk method selection / shared codebooks) for
  /// compress requests.
  pipeline::PlanOptions plan;
};

/// Service-wide sizing and admission limits, fixed at construction.
struct ServiceConfig {
  /// ThreadPool workers shared by every request (0 = hardware concurrency).
  std::size_t workers = 4;
  /// Dispatcher threads draining the request queue: the number of requests
  /// that EXECUTE concurrently (each one fans its chunk tasks onto the
  /// shared pool). At least 1.
  std::size_t dispatchers = 2;
  /// Admission high-water mark: a submit that would make the number of
  /// PENDING (queued, not yet executing) requests exceed this is rejected
  /// with ServiceBusy. At least 1.
  std::size_t max_queue_depth = 64;
  /// Per-client cap on in-flight requests (pending + executing); submits
  /// beyond it are rejected with ServiceBusy.
  std::size_t max_inflight_per_client = 8;
  /// Per-client cap on in-flight BYTES (payload floats of a compress, output
  /// floats of a decompress/chunk/range), admitted at submit and released
  /// when the request settles — completion, failure, cancel, shed, or
  /// expiry alike. Submits over the quota are rejected with ServiceBusy.
  std::size_t max_inflight_bytes_per_client = std::size_t{1} << 30;
  /// Per-client LRU cap on open ArchiveReader handles: opening one more
  /// evicts the least-recently-used handle (in-flight requests already
  /// holding the evicted reader finish unharmed — the entry is shared, not
  /// destroyed).
  std::size_t max_open_readers_per_client = 4;
  /// Retry policy applied to every reader the service opens.
  pipeline::ReaderOptions reader;
  /// Deadline-sweeper wakeup period: queued requests whose deadline passed
  /// are expired at most this long after the fact (dispatch re-checks the
  /// deadline too, so an expired request never starts even if the sweeper
  /// has not run yet).
  std::chrono::microseconds sweep_interval = std::chrono::microseconds(1000);
};

/// One field of a compress request. The service owns the floats for the
/// request's queued lifetime, so the submitting thread may release its copy
/// immediately.
struct CompressField {
  std::string name;
  std::vector<float> data;
  sz::Dims dims;
};

struct CompressJob {
  std::vector<CompressField> fields;
};

/// A finished compress request: a complete v3 archive image (byte-identical
/// for any worker count). Feed it back through open_archive via an
/// OwningMemorySource, or write it to storage as-is.
struct CompressResult {
  std::vector<std::uint8_t> archive;
};

/// Accounting snapshot, exact regardless of the telemetry flag. It reads
/// the service's own instruments, which the obs registry lists under
/// "service.*".
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;        // queue high-water rejections
  std::uint64_t rejected_client_cap = 0;  // per-client in-flight rejections
  std::uint64_t rejected_quota = 0;       // per-client byte-quota rejections
  std::uint64_t completed = 0;            // settled with a value
  std::uint64_t failed = 0;               // settled with the request's error
  std::uint64_t cancelled = 0;            // settled with RequestCancelled
  std::uint64_t expired = 0;              // settled with DeadlineExceeded
  std::uint64_t shed = 0;                 // queued, then shed under overload
  std::uint64_t readers_evicted = 0;      // LRU evictions across all clients
  std::int64_t queue_depth = 0;           // pending requests right now
  std::int64_t queue_depth_peak = 0;
  std::int64_t inflight = 0;              // pending + executing right now
  std::int64_t inflight_peak = 0;
  std::int64_t inflight_bytes = 0;        // admitted bytes not yet released
  std::int64_t inflight_bytes_peak = 0;
  std::size_t active_clients = 0;
  std::size_t open_readers = 0;

  std::uint64_t rejected() const {
    return rejected_busy + rejected_client_cap + rejected_quota;
  }
  /// Every admitted request settles in exactly one of these five buckets, so
  /// after a drain accepted == settled().
  std::uint64_t settled() const {
    return completed + failed + cancelled + expired + shed;
  }
};

}  // namespace ohd::service

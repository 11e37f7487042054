// CompressionService: the persistent front end of the archive stack. One
// service owns the ThreadPool and multiplexes any number of concurrent
// clients over it through a bounded, priority-classed request queue:
//
//   client threads ──submit_*()──▶ [priority queue: Interactive/Batch/
//   (RequestId back; settles by     Background, weighted pop] ──▶ dispatcher
//    callback or future)            admission control            threads ──▶
//                                   deadline sweeper             BatchScheduler
//                                                                on the shared
//                                                                ThreadPool
//
// Dispatcher threads are deliberately separate from pool workers: a request
// EXECUTES by fanning its chunk tasks onto the pool and blocking on their
// futures, so running requests on the pool itself would deadlock the moment
// every worker blocked waiting for chunk tasks that no worker is free to
// run. `dispatchers` is therefore the request-level concurrency and
// `workers` the chunk-level parallelism each request taps.
//
// Admission control (all enforced at submit, before anything is enqueued;
// checked in this order — client-local limits first, so the queue never
// sheds a victim for a request the client's own caps then reject):
//  * lifecycle         — shutdown ⇒ ServiceStopped; unknown client/handle ⇒
//                        ClientError;
//  * per-client cap    — client in-flight == max_inflight_per_client ⇒
//                        ServiceBusy;
//  * per-client quota  — admitted bytes + this request's payload would pass
//                        max_inflight_bytes_per_client ⇒ ServiceBusy;
//  * queue high-water  — pending == max_queue_depth ⇒ shed the newest queued
//                        request of a class BELOW the incoming priority
//                        (it settles with ServiceOverloaded) or, when
//                        nothing lower is queued, reject the submit with
//                        ServiceOverloaded carrying a retry-after hint.
// A rejected submit has NO effect: nothing enqueued, no slot or bytes held,
// the caller retries later (ServiceOverloaded says how long). shutdown()
// drains gracefully — everything admitted settles — then joins dispatchers
// and sweeper.
//
// Request lifecycle: every admitted request carries a RequestId, a Priority,
// an optional Deadline, and a live CancellationToken. cancel(id) settles a
// QUEUED request with RequestCancelled immediately and signals a RUNNING one
// cooperatively (the token is threaded into the BatchScheduler fan-out, so
// it stops between chunks). The sweeper expires queued requests whose
// deadline passed (DeadlineExceeded) even while paused; dispatch re-checks
// the deadline so a late request never starts. EVERY admitted request
// settles exactly once — completed, failed, cancelled, expired, or shed —
// and its slot and bytes are released before it settles.
//
// Settlement: a request settles through one callback (OnSettle; see the
// typed requests below), and the future-returning submit_* are built on it.
//
// Determinism: request RESULTS are bit-identical for any workers/dispatchers
// count (the scheduler merges in chunk-id order), and an uncancelled request
// is bit-identical to one submitted without a token. Request COMPLETION
// ORDER is not deterministic with >1 dispatcher — responses are matched to
// requests by id, never by order.
//
// Telemetry: the service owns its counters and gauges (accepted/rejected/
// completed/cancelled/expired/shed, queue depth, in flight, in-flight
// bytes; active clients and open readers live in its client registry,
// which keeps them as clients and readers come and go, so reading them
// walks no client). stats() reads them, and the process
// registry lists the same instruments under "service.*", so the two cannot
// disagree. The registry itself holds the per-class queue-age gauges
// "service.queue_age.<priority>_ns" and the per-request-class queue-wait +
// service-latency histograms, which record only while obs::enabled().
//
// Full reference: docs/service_api.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"
#include "service/client_registry.hpp"
#include "service/request_queue.hpp"
#include "service/service_types.hpp"

namespace ohd::service {

/// What cancel(RequestId) observed and did.
enum class CancelResult : std::uint8_t {
  /// The request was still queued: removed, its slot and bytes released, and
  /// settled with RequestCancelled before cancel() returned.
  Cancelled = 0,
  /// The request is executing: its token is signalled and the body stops at
  /// the next chunk boundary (it settles with RequestCancelled shortly).
  Signalled = 1,
  /// Unknown id, or the request already settled — a harmless no-op.
  NotFound = 2,
};

class CompressionService {
 public:
  /// Starts the pool, dispatcher threads, and the deadline sweeper
  /// immediately. The config is normalized (dispatchers/max_queue_depth/caps
  /// floored at 1) and fixed for the service's lifetime.
  explicit CompressionService(ServiceConfig config = {});
  /// shutdown(): drains admitted requests, then joins.
  ~CompressionService();

  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  // ---- client lifecycle ----------------------------------------------

  /// Registers a client with its negotiated options; returns its stable id.
  /// Throws ServiceStopped after shutdown.
  ClientId open_client(ClientOptions options = {});

  /// Unregisters a client. In-flight requests of the client finish normally
  /// (they share the context); subsequent submits throw ClientError. A
  /// second close of the same id throws ClientError.
  void close_client(ClientId id);

  /// Opens `source` as an ArchiveReader owned by client `id`, evicting the
  /// client's least-recently-used readers beyond max_open_readers_per_client.
  /// Runs synchronously on the calling thread (footer+index read); throws
  /// ContainerError/ArchiveError on malformed archives, ClientError on
  /// unknown clients.
  ArchiveHandle open_archive(ClientId id,
                             std::shared_ptr<const pipeline::ByteSource> source);

  /// Closes a reader handle explicitly. Throws ClientError if the handle is
  /// not open (never opened, closed, or LRU-evicted).
  void close_archive(ClientId id, ArchiveHandle handle);

  // ---- typed requests ----------------------------------------------------
  //
  // All submit_* methods: resolve the client (and handle) synchronously —
  // ClientError surfaces on the calling thread — then run admission and
  // enqueue. ServiceBusy/ServiceOverloaded/ServiceStopped also throw
  // synchronously, and a rejected submit never calls `on_settle`. Every
  // ADMITTED request settles exactly once: with its value, its own
  // exception, or a lifecycle verdict (RequestCancelled / DeadlineExceeded /
  // ServiceOverloaded when shed).
  //
  // The callback form returns the RequestId and calls `on_settle` once the
  // request's slot, bytes and id are released, its outcome is counted in
  // stats() and its latency sample is recorded. It runs on the settling
  // thread, never under a service lock: a dispatcher, or the caller of the
  // cancel(), shedding submit_* or sweep that settled it — so it can run
  // before submit_* returns, or inside another submit_*. `on_settle` must
  // neither throw nor block. The future form (Submission = RequestId +
  // future) is the callback form with a callback that fulfils the future.

  /// Compresses `job` under the client's negotiated options into a complete
  /// v3 archive image (byte-identical for any worker count).
  RequestId submit_compress(ClientId id, CompressJob job, RequestOptions opts,
                            OnSettle<CompressResult> on_settle);
  Submission<CompressResult> submit_compress(ClientId id, CompressJob job,
                                             RequestOptions opts = {});

  /// Decompresses every field of an open archive (streamed, chunk-parallel)
  /// on the simulated GPU: the result carries the model seconds.
  RequestId submit_decompress(
      ClientId id, ArchiveHandle archive, RequestOptions opts,
      OnSettle<pipeline::BatchDecompressResult> on_settle);
  Submission<pipeline::BatchDecompressResult> submit_decompress(
      ClientId id, ArchiveHandle archive, RequestOptions opts = {});

  /// Random access: decodes exactly one chunk of one field (only that
  /// chunk's frame is fetched, and it decodes on the dispatcher thread) and
  /// returns its floats. A value-only read: it decodes on the host and runs
  /// no GPU model.
  RequestId submit_chunk(ClientId id, ArchiveHandle archive,
                         std::size_t field, std::size_t chunk,
                         RequestOptions opts,
                         OnSettle<std::vector<float>> on_settle);
  Submission<std::vector<float>> submit_chunk(ClientId id,
                                              ArchiveHandle archive,
                                              std::size_t field,
                                              std::size_t chunk,
                                              RequestOptions opts = {});

  /// Decodes the element range [elem_begin, elem_end) of a field via
  /// BatchScheduler::decode_range — a value-only read, on the host.
  RequestId submit_range(ClientId id, ArchiveHandle archive,
                         std::size_t field, std::uint64_t elem_begin,
                         std::uint64_t elem_end, RequestOptions opts,
                         OnSettle<std::vector<float>> on_settle);
  Submission<std::vector<float>> submit_range(ClientId id,
                                              ArchiveHandle archive,
                                              std::size_t field,
                                              std::uint64_t elem_begin,
                                              std::uint64_t elem_end,
                                              RequestOptions opts = {});

  // ---- request lifecycle ----------------------------------------------

  /// Cancels one admitted request by id: a queued request settles with
  /// RequestCancelled on the calling thread; a running one is signalled
  /// cooperatively. Unknown/settled ids are a harmless no-op (NotFound).
  /// Safe to call from any thread, any number of times.
  CancelResult cancel(RequestId id);

  // ---- flow control ---------------------------------------------------

  /// Stops dispatchers from picking up NEW requests (running ones finish).
  /// Admission still runs, so the queue fills to its high-water mark — this
  /// is the deterministic-backpressure valve the queue-full tests and the
  /// soak harness use. The deadline sweeper keeps running while paused.
  /// shutdown() implicitly resumes.
  void pause();
  void resume();

  /// Graceful drain: no new admissions (submits throw ServiceStopped), every
  /// already-admitted request settles, dispatchers + sweeper join.
  /// Idempotent.
  void shutdown();
  bool stopped() const;

  // ---- introspection ---------------------------------------------------

  /// Exact accounting (independent of the telemetry flag).
  ServiceStats stats() const;
  std::size_t queue_depth() const;
  const ServiceConfig& config() const { return config_; }
  /// The shared pool, exposed for tests pinning residency ceilings.
  pipeline::ThreadPool& pool() { return pool_; }

 private:
  /// Service-side envelope of one admitted request, shared between the
  /// queued body, the live_ map, and cancel(). The shed verdict is
  /// written under mutex_ before its flag is released; the body reads the
  /// flag with acquire so message/hint are visible without the lock.
  struct RequestState {
    RequestId id = 0;
    RequestClass cls = RequestClass::Compress;  // set with id by admit()
    Priority priority = Priority::Batch;
    std::uint64_t deadline_ns = 0;  // 0 = none
    std::size_t bytes = 0;          // admitted against the client quota
    CancellationToken cancel;       // always live (make()d when caller's inert)
    std::shared_ptr<ClientContext> client;
    std::atomic<bool> shed{false};
    std::uint64_t shed_retry_after_ns = 0;
    std::string shed_message;
  };

  /// Builds the shared envelope of one submit: scheduling options resolved,
  /// the token made live when the caller's is inert, bytes priced.
  static std::shared_ptr<RequestState> make_state(
      std::shared_ptr<ClientContext> client, const RequestOptions& opts,
      std::size_t bytes);

  /// Admission control + enqueue (throws ServiceStopped/ServiceBusy/
  /// ServiceOverloaded; on throw nothing is enqueued and nothing is held).
  /// Assigns state->id, registers it in live_, and — when admission had to
  /// shed a lower-priority victim — settles the victim on this thread after
  /// dropping the lock. Returns the new request's id.
  RequestId admit(RequestClass cls, std::shared_ptr<RequestState> state,
                  std::function<void(bool)> run);
  void dispatcher_loop();
  /// Expires queued past-deadline requests every config_.sweep_interval and
  /// refreshes the per-class queue-age gauges; runs while paused.
  void sweeper_loop();

  /// The one settle path behind every submit_*: admits a request whose run
  /// passes the verdict gate, then runs `body(state)` (a pipeline
  /// OperationCancelled becomes RequestCancelled), and hands run_counted's
  /// outcome to `on_settle`.
  template <typename T, typename Body>
  RequestId submit(RequestClass cls, std::shared_ptr<RequestState> state,
                   Body body, OnSettle<T> on_settle);

  /// The verdict gate at the top of every request body: throws
  /// ServiceOverloaded (shed), RequestCancelled, or DeadlineExceeded.
  void throw_verdict(const RequestState& state) const;

  /// Runs a request body, classifying the outcome into exactly one of
  /// completed/failed/cancelled/expired/shed and releasing the client's
  /// slot + bytes and the live_ entry before returning it (so stats() read
  /// in the settle callback, or after a .get(), is exact). When
  /// `dispatched`, it also records the class's span and latency sample
  /// before returning.
  template <typename T, typename Fn>
  Settled<T> run_counted(RequestState& state, bool dispatched, Fn&& fn);

  CompressResult run_compress(const ClientContext& client,
                              const CompressJob& job,
                              const CancellationToken& cancel) const;

  /// queue depth x EWMA inter-pop time: the retry-after hint (0 until the
  /// dispatchers have popped at least twice). Requires mutex_.
  std::uint64_t retry_after_ns_locked() const;

  ServiceConfig config_;
  ClientRegistry clients_;
  pipeline::ThreadPool pool_;
  pipeline::BatchScheduler scheduler_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable sweep_wake_;
  PriorityRequestQueue queue_;
  std::unordered_map<RequestId, std::shared_ptr<RequestState>> live_;
  RequestId next_request_id_ = 1;
  bool stopping_ = false;
  bool paused_ = false;
  /// Observed queue drain rate: EWMA of dispatcher inter-pop times (ns).
  double drain_ewma_ns_ = 0.0;
  std::uint64_t last_pop_ns_ = 0;

  /// The service's own instruments: stats() reads them, and metrics_ lists
  /// them in the registry under "service.*".
  obs::Counter accepted_;
  obs::Counter rejected_busy_;
  obs::Counter rejected_client_cap_;
  obs::Counter rejected_quota_;
  obs::Counter completed_;
  obs::Counter failed_;
  obs::Counter cancelled_;
  obs::Counter cancel_queued_;
  obs::Counter cancel_running_;
  obs::Counter expired_;
  obs::Counter expired_queued_;
  obs::Counter shed_;
  obs::Counter shed_rejected_;
  obs::Counter readers_evicted_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge inflight_gauge_;
  obs::Gauge inflight_bytes_gauge_;
  obs::MetricsRegistry::Owner metrics_;

  /// Started last in the constructor; joined by shutdown().
  std::vector<std::thread> dispatchers_;
  std::thread sweeper_;
};

}  // namespace ohd::service

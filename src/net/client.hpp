// ServiceClient: the wire mirror of the CompressionService submit API. One
// client owns one connection to a ServiceServer endpoint, negotiates its
// session (OpenClient) at connect time, and multiplexes any number of
// in-flight requests over it: each submit_* assigns a wire request id,
// registers one settle callback, and sends one Request frame. The DEMUX
// READER thread runs the callback when the matching Response/Error frame
// arrives; the future forms are the callback forms with a callback that
// fulfils a promise (service::with_future). Responses stream back in
// completion order, so a fast chunk read overtakes a slow batch decompress
// exactly as it does in-process.
//
// Failure mapping: typed error frames are reconstructed into the local
// service:: exception types (ServiceOverloaded keeps its retry_after_ns
// hint); wire conditions with no local type surface as RemoteError with the
// pinned code. Losing the connection settles every in-flight request with
// ConnectionLost.
//
// Reconnect + retry: the compress_retrying blocking helper wraps submit+wait
// in the backoff loop — reconnect on ConnectionLost, resubmit on
// ServiceBusy, and for ServiceOverloaded wait at least the server's
// retry_after_ns hint (never less; the seeded-jitter RetryPolicy schedule is
// the floor). The sleep is injectable (ClientConfig::sleep_fn), which is how
// the retry-after test pins the waited interval deterministically. Archive
// handles are CONNECTION-SCOPED: a reconnect starts a fresh session and old
// handles are gone, so only handle-free compress work auto-reconnects;
// handle-holding callers observe ConnectionLost and re-open.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pipeline/byte_stream.hpp"
#include "service/service_types.hpp"

namespace ohd::net {

struct ClientConfig {
  Endpoint endpoint;
  /// Wire-negotiated session options (the OpenClient body); the server fills
  /// the rest of ClientOptions from its own defaults.
  double rel_error_bound = 1e-3;
  std::uint32_t radius = 512;
  std::uint64_t chunk_elems = std::uint64_t{1} << 16;
  /// Per-frame payload ceiling applied to INCOMING frames.
  std::uint64_t max_frame_payload = kDefaultMaxPayload;
  /// Reconnect/retry schedule of compress_retrying and connect():
  /// seeded-jitter exponential backoff, deterministic per (seed, attempt).
  pipeline::RetryPolicy retry{.max_attempts = 5,
                              .base_delay = std::chrono::microseconds(2000),
                              .backoff_multiplier = 2.0,
                              .jitter = 0.1};
  /// Injectable backoff sleep (tests record it instead of sleeping); null =
  /// std::this_thread::sleep_for.
  std::function<void(std::chrono::nanoseconds)> sleep_fn;
};

/// Accounting snapshot of one client.
struct ClientStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t errors_received = 0;   // typed error frames demuxed
  std::uint64_t reconnects = 0;        // successful connects after the first
  std::uint64_t retries = 0;           // compress_retrying re-attempts
  std::uint64_t retry_after_waits = 0; // backoffs that honored a server hint
};

class ServiceClient {
 public:
  /// Connects and negotiates the session immediately; throws NetError /
  /// ConnectionLost when the endpoint cannot be reached within the retry
  /// budget.
  explicit ServiceClient(ClientConfig config);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  bool connected() const;
  /// (Re)establishes the connection + session if currently disconnected,
  /// within the retry budget. In-flight futures of the old connection have
  /// already settled with ConnectionLost. Counts a reconnect.
  void reconnect();
  /// Closes the connection (in-flight futures settle with ConnectionLost).
  void disconnect();

  // ---- session-scoped sync calls ---------------------------------------

  /// Uploads an archive image; returns the connection-scoped handle.
  service::ArchiveHandle open_archive(std::span<const std::uint8_t> image);
  void close_archive(service::ArchiveHandle handle);
  /// Liveness round trip.
  void ping();

  // ---- submit mirror (Submission.id is the WIRE id; cancel() takes it) --
  //
  // Each op comes in two forms. The callback form returns the wire id, and
  // its `on_settle` runs exactly once, on the demux reader or on the thread
  // that tears the connection down; it must neither throw nor block. A
  // submit whose send fails throws and never calls it. The future form is
  // the callback form behind service::with_future.

  std::uint64_t submit_compress(
      service::CompressJob job, service::RequestOptions opts,
      service::OnSettle<service::CompressResult> on_settle);
  service::Submission<service::CompressResult> submit_compress(
      service::CompressJob job, service::RequestOptions opts = {});
  std::uint64_t submit_decompress(service::ArchiveHandle archive,
                                  service::RequestOptions opts,
                                  service::OnSettle<DecompressBody> on_settle);
  service::Submission<DecompressBody> submit_decompress(
      service::ArchiveHandle archive, service::RequestOptions opts = {});
  std::uint64_t submit_chunk(service::ArchiveHandle archive, std::size_t field,
                             std::size_t chunk, service::RequestOptions opts,
                             service::OnSettle<std::vector<float>> on_settle);
  service::Submission<std::vector<float>> submit_chunk(
      service::ArchiveHandle archive, std::size_t field, std::size_t chunk,
      service::RequestOptions opts = {});
  std::uint64_t submit_range(service::ArchiveHandle archive, std::size_t field,
                             std::uint64_t elem_begin, std::uint64_t elem_end,
                             service::RequestOptions opts,
                             service::OnSettle<std::vector<float>> on_settle);
  service::Submission<std::vector<float>> submit_range(
      service::ArchiveHandle archive, std::size_t field,
      std::uint64_t elem_begin, std::uint64_t elem_end,
      service::RequestOptions opts = {});

  /// Sends a Cancel frame for an in-flight wire id (best effort, fire and
  /// forget — the request's future settles with whatever the server decides:
  /// RequestCancelled when the cancel won, the result when it lost the race).
  void cancel(std::uint64_t wire_id);

  // ---- blocking helper with the reconnect/backoff loop -----------------

  /// submit_compress + get, retrying on ServiceBusy/ServiceOverloaded (the
  /// latter waits >= the server's retry_after_ns hint) and reconnecting on
  /// ConnectionLost, within config.retry.max_attempts.
  service::CompressResult compress_retrying(const service::CompressJob& job,
                                            service::RequestOptions opts = {});

  ClientStats stats() const;

 private:
  /// Settles one request with its response payload, or with the error the
  /// server or the connection reported. Runs exactly once, on the demux
  /// reader or on the thread that tears the connection down.
  using PendingRequest = service::OnSettle<std::span<const std::uint8_t>>;

  void connect_locked(std::unique_lock<std::mutex>& lock);
  void teardown_locked(std::unique_lock<std::mutex>& lock,
                       const std::string& reason);
  void reader_loop(std::uint64_t generation, int fd);

  /// Sends one frame of `type` (Request or Ping) under a fresh wire id and
  /// returns that id. `on_settle` gets `parse` applied to the response
  /// payload (which must be consumed exactly), or the error the server or
  /// the connection reported.
  template <typename T, typename Parse>
  std::uint64_t submit(FrameType type, RequestOp op,
                       const service::RequestOptions& opts,
                       std::span<const std::uint8_t> payload, Parse parse,
                       service::OnSettle<T> on_settle);
  std::uint64_t send_request(FrameType type, RequestOp op,
                             const service::RequestOptions& opts,
                             std::span<const std::uint8_t> payload,
                             PendingRequest pending);
  void sleep_backoff(std::chrono::nanoseconds d);

  ClientConfig config_;

  /// Serializes whole connect attempts (connect_locked drops mutex_ to join
  /// the previous reader; racing reconnects must not both proceed). Always
  /// acquired BEFORE mutex_, never the other way.
  std::mutex connect_mutex_;
  mutable std::mutex mutex_;  // connection state + pending map + counters
  std::unique_ptr<Socket> sock_;
  std::mutex write_mutex_;
  int write_fd_ = -1;  // sock_'s descriptor; under write_mutex_
  std::thread reader_;
  bool connected_ = false;
  bool ever_connected_ = false;
  bool closing_ = false;
  std::uint64_t generation_ = 0;  // bumps every (dis)connect; stale readers exit
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;

  std::uint64_t requests_sent_ = 0;
  std::uint64_t responses_received_ = 0;
  std::uint64_t errors_received_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retry_after_waits_ = 0;
  /// Listed in the registry as "net.reconnects".
  obs::Counter reconnects_;
  obs::MetricsRegistry::Owner metrics_{
      obs::registry(), {{"net.reconnects", &reconnects_}}};
};

}  // namespace ohd::net

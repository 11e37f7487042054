// ServiceServer: the network edge of the CompressionService. Owns one or
// more listening sockets (TCP loopback and/or Unix domain), accepts
// connections on an acceptor thread per listener, and runs two threads per
// connection:
//
//   acceptor ──▶ Connection
//                 reader thread:   recv frame ─▶ parse/validate ─▶
//                                  sync ops (open/close client/archive)
//                                  answered inline; submit_* mapped onto
//                                  CompressionService with the frame
//                                  header's priority/deadline; cancel
//                                  frames routed to service.cancel()
//                 writer thread:   sleeps until a request settles (its
//                                  settle callback queues the response on
//                                  the thread that settled it), then
//                                  serializes and sends it — COMPLETION
//                                  order, tagged by the request id the
//                                  client chose, never submission order
//
// Every failure a request can produce maps onto a typed error frame with a
// pinned wire code (net/frame.hpp WireErrorCode; docs/wire_protocol.md owns
// the table), including ServiceOverloaded's retry_after_ns hint. A
// malformed frame HEADER desynchronizes the byte stream, so the connection
// sends one id-0 BadRequest error frame and closes; a malformed request
// BODY inside a sound frame is answered with a typed error on that id and
// the connection lives on.
//
// Sessions: each connection owns at most one service client (negotiated by
// the OpenClient op) plus that client's archive handles — all
// connection-scoped. When a connection dies with requests in flight, the
// server cancels them (nobody can read the responses); graceful shutdown()
// instead drains every in-flight request, flushes its response, then closes.
//
// Telemetry: the server owns the counters behind stats(), and the process
// registry lists the wire-level ones under "net.*" (frames/bytes in+out,
// decode rejects, error frames, the open-connection gauge) — the same
// instruments, so stats() and a snapshot cannot disagree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/compression_service.hpp"

namespace ohd::net {

struct ServerConfig {
  /// Endpoints to listen on; empty defaults to one ephemeral TCP loopback
  /// listener (endpoints() names the bound port).
  std::vector<Endpoint> listen;
  /// Per-frame payload ceiling; frames declaring more are rejected before
  /// the payload is read or allocated.
  std::uint64_t max_frame_payload = kDefaultMaxPayload;
};

/// Accounting snapshot of one server.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::int64_t open_connections = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests_submitted = 0;  // submit_* calls that were admitted
  std::uint64_t decode_rejects = 0;      // malformed frames/bodies rejected
  std::uint64_t error_frames = 0;        // typed error frames sent (lifetime)
  std::uint64_t cancels_relayed = 0;     // cancel frames routed to cancel()
};

class ServiceServer {
 public:
  /// Binds every configured endpoint (by default one ephemeral TCP loopback
  /// listener) and starts accepting immediately. Throws NetError when a
  /// bind/listen fails (nothing half-started: all listeners succeed or the
  /// constructor throws).
  explicit ServiceServer(service::CompressionService& service,
                         ServerConfig config = {});

  /// shutdown().
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// The bound endpoints, with ephemeral TCP ports resolved.
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  /// Graceful drain: stops accepting, half-closes every connection for
  /// reading (no new frames), waits for every in-flight request to settle
  /// and its response to flush, then closes the connections and joins all
  /// threads. Idempotent. The owning CompressionService keeps running.
  void shutdown();
  bool stopped() const;

  ServerStats stats() const;

 private:
  struct Connection;

  void acceptor_loop(Listener& listener);
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);

  /// Handles one well-framed request frame on the reader thread; any
  /// invalid_argument from body parsing becomes a BadRequest error frame on
  /// the request's id (connection survives).
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header,
                      std::span<const std::uint8_t> payload);

  /// Submits one request through `submit(on_settle)` (a callback-form
  /// service submit_*) under the header's wire id. The settle callback
  /// queues the outcome for the connection's writer, which turns a value
  /// into the response payload with `serialize`; failures become typed
  /// error frames on the wire id.
  template <typename T, typename SubmitFn, typename SerializeFn>
  void track(const std::shared_ptr<Connection>& conn, const FrameHeader& header,
             SubmitFn submit, SerializeFn serialize);

  void send_frame(Connection& conn, const FrameHeader& header,
                  std::span<const std::uint8_t> payload);
  void send_response(Connection& conn, RequestOp op, std::uint64_t request_id,
                     std::span<const std::uint8_t> payload);
  void send_error(Connection& conn, std::uint64_t request_id,
                  const ErrorBody& body);

  /// Joins and forgets connections whose threads have finished; called from
  /// accept iterations and shutdown.
  void reap_connections(bool join_all);

  service::CompressionService& service_;
  ServerConfig config_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::thread> acceptors_;

  mutable std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  bool stopping_ = false;

  // The instruments behind stats(); metrics_ lists the wire-level ones in
  // the registry under "net.*".
  obs::Counter connections_accepted_;
  obs::Gauge open_connections_;
  obs::Counter frames_in_;
  obs::Counter frames_out_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;
  obs::Counter requests_submitted_;
  obs::Counter decode_rejects_;
  obs::Counter error_frames_;
  obs::Counter cancels_relayed_;
  obs::MetricsRegistry::Owner metrics_{
      obs::registry(),
      {{"net.frames_in", &frames_in_},
       {"net.frames_out", &frames_out_},
       {"net.bytes_in", &bytes_in_},
       {"net.bytes_out", &bytes_out_},
       {"net.decode_rejects", &decode_rejects_},
       {"net.error_frames", &error_frames_}},
      {{"net.connections", &open_connections_}}};
};

}  // namespace ohd::net

#include "net/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>

#include "pipeline/byte_stream.hpp"

namespace ohd::net {

namespace {

/// Rethrows body-parse failures as FrameError so the single catch-all in
/// handle_request maps them onto BadRequest (wire_error_from_exception puts
/// FrameError before the generic invalid_argument -> Archive bucket, which
/// would otherwise swallow them: ContainerError from a malformed uploaded
/// archive is ALSO an invalid_argument, and that one must stay Archive).
template <typename Fn>
auto parse_body(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const FrameError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw FrameError(std::string("frame: bad request body: ") + e.what());
  }
}

service::RequestOptions options_from_header(const FrameHeader& header) {
  service::RequestOptions opts;
  opts.priority = header.priority;
  if (header.deadline_ns != 0) {
    // The wire carries a RELATIVE budget; anchor it on this process's steady
    // clock the moment the frame is decoded.
    opts.deadline = service::Deadline::after(
        std::chrono::nanoseconds(header.deadline_ns));
  }
  return opts;
}

}  // namespace

/// One accepted connection: the socket, its reader and writer threads, and
/// the request ledger they share. The reader submits requests; each one's
/// settle callback moves it from `live_wire` to `settled`, on whichever
/// thread settled it, and the writer sends what settled in that order.
/// `mutex`/`cv` guard the ledger; `write_mutex` serializes frames onto the
/// socket (reader error frames interleave with the writer's responses).
struct ServiceServer::Connection {
  explicit Connection(Socket s) : sock(std::move(s)) {}

  Socket sock;
  std::mutex write_mutex;

  /// One settled request awaiting its frame: a response whose payload
  /// `serialize` builds from the value it owns, or (when `serialize` is
  /// empty) the error the request settled with.
  struct Response {
    std::uint64_t wire_id = 0;
    RequestOp op = RequestOp::OpenClient;
    std::function<std::vector<std::uint8_t>()> serialize;
    ErrorBody error;
  };

  std::mutex mutex;
  std::condition_variable cv;
  /// wire id -> service id for every request submitted and not yet settled
  /// (0 while its submit_* runs): cancel-frame routing and disconnect
  /// cleanup.
  std::unordered_map<std::uint64_t, service::RequestId> live_wire;
  std::deque<Response> settled;  // in settle order
  service::ClientId client = 0;
  bool client_open = false;
  /// The reader is done; the writer exits once nothing is live or settled.
  bool reader_done = false;

  std::atomic<bool> done{false};  // writer finished (threads joinable)
  bool claimed = false;           // under conn_mutex_: a reaper owns the join

  std::thread reader;
  std::thread writer;
};

ServiceServer::ServiceServer(service::CompressionService& service,
                             ServerConfig config)
    : service_(service), config_(std::move(config)) {
  if (config_.listen.empty()) {
    config_.listen.push_back(Endpoint::tcp(0));
  }
  // All-or-throw: Listener's constructor throws NetError on any bind/listen
  // failure, and the vector of already-bound listeners unwinds cleanly.
  for (const Endpoint& ep : config_.listen) {
    listeners_.push_back(std::make_unique<Listener>(ep));
    endpoints_.push_back(listeners_.back()->endpoint());
  }
  for (auto& listener : listeners_) {
    acceptors_.emplace_back([this, l = listener.get()] { acceptor_loop(*l); });
  }
}

ServiceServer::~ServiceServer() { shutdown(); }

void ServiceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    stopping_ = true;
  }
  // Wake every acceptor, join it, and only then release the listening fds:
  // closing while an acceptor still reads the descriptor would race it (and
  // free the fd number for reuse under its next accept()).
  for (auto& listener : listeners_) listener->shutdown();
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  for (auto& listener : listeners_) listener->close();
  // Half-close every connection for reading: the reader sees EOF and stops
  // taking frames, the writer flushes the responses of what is in flight as
  // it settles, and only then does the connection close.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns = connections_;
  }
  for (auto& c : conns) c->sock.shutdown_read();
  reap_connections(/*join_all=*/true);
}

bool ServiceServer::stopped() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return stopping_;
}

ServerStats ServiceServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.value();
  s.open_connections = open_connections_.value();
  s.frames_in = frames_in_.value();
  s.frames_out = frames_out_.value();
  s.bytes_in = bytes_in_.value();
  s.bytes_out = bytes_out_.value();
  s.requests_submitted = requests_submitted_.value();
  s.decode_rejects = decode_rejects_.value();
  s.error_frames = error_frames_.value();
  s.cancels_relayed = cancels_relayed_.value();
  return s;
}

void ServiceServer::acceptor_loop(Listener& listener) {
  for (;;) {
    Socket sock = listener.accept();
    if (!sock.valid()) break;  // listener closed: shutdown
    auto conn = std::make_shared<Connection>(std::move(sock));
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (stopping_) break;  // late race: drop the connection (RAII closes it)
      connections_.push_back(conn);
    }
    connections_accepted_.add(1);
    open_connections_.add(1);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    reap_connections(/*join_all=*/false);
  }
}

void ServiceServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  const auto reject = [this, &c](std::uint64_t request_id, const char* what) {
    decode_rejects_.add(1);
    send_error(c, request_id, {WireErrorCode::BadRequest, 0, what});
  };
  const auto count_in = [this](const FrameHeader& header) {
    frames_in_.add(1);
    bytes_in_.add(kFrameHeaderBytes + header.payload_len);
  };
  // A reject whose send fails ends the loop through the ConnectionLost catch
  // below, which is where an id-0 reject ends it anyway.
  try {
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = recv_frame(c.sock.fd(), config_.max_frame_payload);
      } catch (const PayloadError& e) {
        // The header (and so the frame boundary) was sound — the stream is
        // still synchronized. Reject just this request.
        count_in(e.header());
        reject(e.header().request_id, e.what());
        continue;
      } catch (const FrameError& e) {
        // A bad HEADER desynchronizes the stream: one id-0 reject, then close.
        reject(0, e.what());
        break;
      }
      if (!frame) break;  // clean frame-boundary EOF
      const FrameHeader& header = frame->header;
      count_in(header);
      switch (header.type) {
        case FrameType::Ping: {
          FrameHeader pong;
          pong.type = FrameType::Pong;
          pong.request_id = header.request_id;
          send_frame(c, pong, {});
          break;
        }
        case FrameType::Cancel: {
          service::RequestId target = 0;
          {
            std::lock_guard<std::mutex> lock(c.mutex);
            auto it = c.live_wire.find(header.request_id);
            if (it != c.live_wire.end()) target = it->second;
          }
          // Unknown / already-settled ids are a harmless no-op, exactly like
          // CompressionService::cancel itself.
          if (target != 0) {
            service_.cancel(target);
            cancels_relayed_.add(1);
          }
          break;
        }
        case FrameType::Request:
          handle_request(conn, header, frame->payload);
          break;
        default:
          // Response/Error/Pong arriving AT the server is a protocol
          // violation; treat it like a desync.
          reject(0, "frame: unexpected frame type from client");
      }
      if (header.type != FrameType::Request &&
          header.type != FrameType::Cancel && header.type != FrameType::Ping) {
        break;
      }
    }
  } catch (const ConnectionLost&) {
    // Peer went away mid-frame or stopped taking bytes; fall through to
    // teardown.
  } catch (const NetError&) {
  }
  // Teardown: when the CLIENT went away, nobody can read the pending
  // responses — cancel them. Under graceful server shutdown the reader exits
  // via the half-close EOF instead, and in-flight requests must drain.
  bool graceful = false;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    graceful = stopping_;
  }
  std::vector<service::RequestId> to_cancel;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.reader_done = true;
    if (!graceful) {
      for (const auto& [wire_id, service_id] : c.live_wire) {
        to_cancel.push_back(service_id);
      }
    }
  }
  for (service::RequestId id : to_cancel) service_.cancel(id);
  c.cv.notify_all();
}

void ServiceServer::handle_request(const std::shared_ptr<Connection>& conn,
                                   const FrameHeader& header,
                                   std::span<const std::uint8_t> payload) {
  Connection& c = *conn;
  util::ByteReader r(payload);
  try {
    // Every op below OpenClient requires a negotiated session.
    const auto session_client = [&]() -> service::ClientId {
      std::lock_guard<std::mutex> lock(c.mutex);
      if (!c.client_open) {
        throw service::ClientError(
            "connection has no client session (send OpenClient first)");
      }
      return c.client;
    };

    switch (header.op) {
      case RequestOp::OpenClient: {
        const OpenClientBody body = parse_body([&] {
          auto b = read_open_client(r);
          expect_exhausted(r);
          return b;
        });
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          if (c.client_open) {
            throw service::ClientError(
                "connection already negotiated a client session");
          }
        }
        service::ClientOptions opts;
        opts.rel_error_bound = body.rel_error_bound;
        opts.radius = body.radius;
        opts.chunk_elems = static_cast<std::size_t>(body.chunk_elems);
        const service::ClientId id = service_.open_client(opts);
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          c.client = id;
          c.client_open = true;
        }
        util::ByteWriter w;
        w.u64(id);
        send_response(c, header.op, header.request_id, w.bytes());
        return;
      }
      case RequestOp::CloseClient: {
        parse_body([&] { expect_exhausted(r); return 0; });
        service::ClientId id = 0;
        {
          std::lock_guard<std::mutex> lock(c.mutex);
          if (!c.client_open) {
            throw service::ClientError("connection has no client session");
          }
          id = c.client;
          c.client_open = false;
        }
        service_.close_client(id);
        send_response(c, header.op, header.request_id, {});
        return;
      }
      case RequestOp::OpenArchive: {
        auto image = parse_body([&] {
          auto bytes = r.array<std::uint8_t>();
          expect_exhausted(r);
          return bytes;
        });
        const service::ClientId id = session_client();
        auto source = std::make_shared<pipeline::OwningMemorySource>(
            std::move(image));
        const service::ArchiveHandle handle = service_.open_archive(id, source);
        util::ByteWriter w;
        w.u64(handle);
        send_response(c, header.op, header.request_id, w.bytes());
        return;
      }
      case RequestOp::CloseArchive: {
        const std::uint64_t handle = parse_body([&] {
          auto h = r.u64();
          expect_exhausted(r);
          return h;
        });
        service_.close_archive(session_client(),
                               static_cast<service::ArchiveHandle>(handle));
        send_response(c, header.op, header.request_id, {});
        return;
      }
      case RequestOp::Compress: {
        service::CompressJob job = parse_body([&] {
          auto j = read_compress_job(r);
          expect_exhausted(r);
          return j;
        });
        const service::ClientId id = session_client();
        track<service::CompressResult>(
            conn, header,
            [&](auto settle) {
              return service_.submit_compress(id, std::move(job),
                                              options_from_header(header),
                                              std::move(settle));
            },
            [](service::CompressResult& v) {
              util::ByteWriter w;
              w.bytes(v.archive);
              return w.take();
            });
        return;
      }
      case RequestOp::Decompress: {
        const std::uint64_t handle = parse_body([&] {
          auto h = r.u64();
          expect_exhausted(r);
          return h;
        });
        const service::ClientId id = session_client();
        track<pipeline::BatchDecompressResult>(
            conn, header,
            [&](auto settle) {
              return service_.submit_decompress(
                  id, static_cast<service::ArchiveHandle>(handle),
                  options_from_header(header), std::move(settle));
            },
            [](pipeline::BatchDecompressResult& v) {
              DecompressBody body;
              body.fields.reserve(v.fields.size());
              for (auto& f : v.fields) {
                body.fields.push_back({std::move(f.name),
                                       std::move(f.decode.data)});
              }
              util::ByteWriter w;
              write_decompress_result(w, body);
              return w.take();
            });
        return;
      }
      case RequestOp::Chunk: {
        const auto [handle, field, chunk] = parse_body([&] {
          auto h = r.u64();
          auto f = r.u64();
          auto k = r.u64();
          expect_exhausted(r);
          return std::tuple(h, f, k);
        });
        const service::ClientId id = session_client();
        track<std::vector<float>>(
            conn, header,
            [&](auto settle) {
              return service_.submit_chunk(
                  id, static_cast<service::ArchiveHandle>(handle),
                  static_cast<std::size_t>(field),
                  static_cast<std::size_t>(chunk),
                  options_from_header(header), std::move(settle));
            },
            [](std::vector<float>& v) {
              util::ByteWriter w;
              write_floats(w, v);
              return w.take();
            });
        return;
      }
      case RequestOp::Range: {
        const auto [handle, field, begin, end] = parse_body([&] {
          auto h = r.u64();
          auto f = r.u64();
          auto b = r.u64();
          auto e = r.u64();
          expect_exhausted(r);
          return std::tuple(h, f, b, e);
        });
        const service::ClientId id = session_client();
        track<std::vector<float>>(
            conn, header,
            [&](auto settle) {
              return service_.submit_range(
                  id, static_cast<service::ArchiveHandle>(handle),
                  static_cast<std::size_t>(field), begin, end,
                  options_from_header(header), std::move(settle));
            },
            [](std::vector<float>& v) {
              util::ByteWriter w;
              write_floats(w, v);
              return w.take();
            });
        return;
      }
    }
    throw FrameError("frame: unhandled request op");
  } catch (const ConnectionLost&) {
    throw;  // the send path failed, not the request: let the reader close
  } catch (...) {
    const ErrorBody body = wire_error_from_exception(std::current_exception());
    if (body.code == WireErrorCode::BadRequest) {
      decode_rejects_.add(1);
    }
    send_error(c, header.request_id, body);
  }
}

template <typename T, typename SubmitFn, typename SerializeFn>
void ServiceServer::track(const std::shared_ptr<Connection>& conn,
                          const FrameHeader& header, SubmitFn submit,
                          SerializeFn serialize) {
  Connection& c = *conn;
  const std::uint64_t wire_id = header.request_id;
  {
    // The wire id must be fresh while its predecessor is in flight (the
    // demux key would be ambiguous otherwise). It is registered before the
    // submit, because the request can settle before submit_* returns.
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.live_wire.emplace(wire_id, 0).second) {
      throw FrameError("frame: request id already in flight");
    }
  }
  // Runs on the settling thread: a dispatcher, or whichever thread
  // cancelled, shed or expired the request — possibly this reader, inside a
  // submit_* or cancel(), so the reader never holds c.mutex across those.
  // It holds the connection, never the server, which may be gone once the
  // writer exits; the error becomes an ErrorBody here, so no exception
  // leaves the thread that settled it.
  auto on_settle = [conn, wire_id, op = header.op,
                    serialize](service::Settled<T> outcome) {
    Connection::Response response{wire_id, op, {}, {}};
    if (T* value = std::get_if<T>(&outcome)) {
      response.serialize = [serialize, v = std::move(*value)]() mutable {
        return serialize(v);
      };
    } else {
      response.error =
          wire_error_from_exception(std::get<std::exception_ptr>(outcome));
    }
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->live_wire.erase(wire_id);
      conn->settled.push_back(std::move(response));
    }
    conn->cv.notify_all();
  };
  service::RequestId id = 0;
  try {
    id = submit(std::move(on_settle));
  } catch (...) {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.live_wire.erase(wire_id);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.live_wire.find(wire_id);
    if (it != c.live_wire.end()) it->second = id;  // else already settled
  }
  requests_submitted_.add(1);
}

void ServiceServer::writer_loop(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  for (;;) {
    Connection::Response response;
    {
      std::unique_lock<std::mutex> lock(c.mutex);
      c.cv.wait(lock, [&c] {
        return !c.settled.empty() || (c.reader_done && c.live_wire.empty());
      });
      if (c.settled.empty()) break;  // reader done, nothing left in flight
      response = std::move(c.settled.front());
      c.settled.pop_front();
    }
    // Serialization and the socket write stay on this thread, so a slow
    // peer never holds up the thread that settled the request.
    try {
      if (response.serialize) {
        send_response(c, response.op, response.wire_id, response.serialize());
        continue;
      }
    } catch (const ConnectionLost&) {
      continue;  // peer already gone; the reader teardown owns cleanup
    } catch (...) {
      response.error = wire_error_from_exception(std::current_exception());
    }
    try {
      send_error(c, response.wire_id, response.error);
    } catch (const ConnectionLost&) {
    }
  }
  // Session teardown, exactly once, after the last response flushed: close
  // the connection's service client (releases its archive handles).
  service::ClientId client = 0;
  bool open = false;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    open = c.client_open;
    client = c.client;
    c.client_open = false;
  }
  if (open) {
    try {
      service_.close_client(client);
    } catch (const std::exception&) {
      // The service may already be stopping; the session is gone either way.
    }
  }
  open_connections_.sub(1);
  c.sock.shutdown_both();  // wake a reader still blocked in recv, if any
  c.done.store(true);
}

void ServiceServer::send_frame(Connection& c, const FrameHeader& header,
                               std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = encode_frame(header, payload);
  {
    std::lock_guard<std::mutex> lock(c.write_mutex);
    send_all(c.sock.fd(), frame);
  }
  frames_out_.add(1);
  bytes_out_.add(frame.size());
}

void ServiceServer::send_response(Connection& c, RequestOp op,
                                  std::uint64_t request_id,
                                  std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.type = FrameType::Response;
  h.op = op;
  h.request_id = request_id;
  send_frame(c, h, payload);
}

void ServiceServer::send_error(Connection& c, std::uint64_t request_id,
                               const ErrorBody& body) {
  util::ByteWriter w;
  write_error(w, body);
  FrameHeader h;
  h.type = FrameType::Error;
  h.request_id = request_id;
  error_frames_.add(1);
  send_frame(c, h, w.bytes());
}

void ServiceServer::reap_connections(bool join_all) {
  std::vector<std::shared_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& c : connections_) {
      if (c->claimed) continue;
      if (join_all || c->done.load()) {
        c->claimed = true;
        doomed.push_back(c);
      }
    }
  }
  for (auto& c : doomed) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
  }
  if (!doomed.empty()) {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    std::erase_if(connections_, [&](const std::shared_ptr<Connection>& c) {
      for (const auto& d : doomed) {
        if (d == c) return true;
      }
      return false;
    });
  }
}

}  // namespace ohd::net

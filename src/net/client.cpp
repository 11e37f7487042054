#include "net/client.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>

#include "obs/metrics.hpp"

namespace ohd::net {

namespace {

/// Wire budget of a request: the RequestOptions deadline is an ABSOLUTE
/// steady-clock instant, the frame carries the REMAINING budget (an already
/// expired deadline ships as 1ns, so the server still produces the
/// DeadlineExceeded verdict the caller would have seen in-process).
std::uint64_t relative_deadline_ns(const service::RequestOptions& opts) {
  if (!opts.deadline.valid()) return 0;
  const std::uint64_t now = obs::now_ns();
  return opts.deadline.ns > now ? opts.deadline.ns - now : 1;
}

}  // namespace

ServiceClient::ServiceClient(ClientConfig config) : config_(std::move(config)) {
  std::lock_guard<std::mutex> serial(connect_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  connect_locked(lock);
}

ServiceClient::~ServiceClient() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    closing_ = true;
    teardown_locked(lock, "client destroyed");
  }
  if (reader_.joinable()) reader_.join();
}

bool ServiceClient::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connected_;
}

void ServiceClient::reconnect() {
  // connect_mutex_ serializes whole connect attempts: connect_locked drops
  // mutex_ to join the previous reader, and two racing reconnects must not
  // both slip past the connected_ check in that window.
  std::lock_guard<std::mutex> serial(connect_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (connected_) return;
  connect_locked(lock);
}

void ServiceClient::disconnect() {
  std::unique_lock<std::mutex> lock(mutex_);
  teardown_locked(lock, "client disconnected");
  lock.unlock();
  if (reader_.joinable()) reader_.join();
}

void ServiceClient::sleep_backoff(std::chrono::nanoseconds d) {
  if (d.count() <= 0) return;
  if (config_.sleep_fn) {
    config_.sleep_fn(d);
  } else {
    std::this_thread::sleep_for(d);
  }
}

void ServiceClient::connect_locked(std::unique_lock<std::mutex>& lock) {
  if (closing_) throw ConnectionLost("client is closing");
  // Join the previous generation's reader before reusing its slot (it has
  // already observed the teardown and exited, or is about to).
  if (reader_.joinable()) {
    lock.unlock();
    reader_.join();
    lock.lock();
  }

  const std::size_t attempts = std::max<std::size_t>(1, config_.retry.max_attempts);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      Socket sock = connect_to(config_.endpoint);
      const int fd = sock.fd();
      // Handshake runs synchronously on this thread — the demux reader only
      // starts once the session exists, so its state machine never sees a
      // handshake frame.
      OpenClientBody body;
      body.rel_error_bound = config_.rel_error_bound;
      body.radius = config_.radius;
      body.chunk_elems = config_.chunk_elems;
      util::ByteWriter w;
      write_open_client(w, body);
      FrameHeader h;
      h.type = FrameType::Request;
      h.op = RequestOp::OpenClient;
      h.priority = service::Priority::Interactive;
      h.request_id = next_id_++;
      send_all(fd, encode_frame(h, w.bytes()));
      const std::optional<Frame> reply =
          recv_frame(fd, config_.max_frame_payload);
      if (!reply) {
        throw ConnectionLost("server closed during session handshake");
      }
      const FrameHeader& rh = reply->header;
      if (rh.type == FrameType::Error) {
        util::ByteReader r(reply->payload);
        const ErrorBody err = read_error(r);
        expect_exhausted(r);
        throw_wire_error(err);
      }
      if (rh.type != FrameType::Response || rh.request_id != h.request_id ||
          rh.op != RequestOp::OpenClient) {
        throw FrameError("frame: unexpected frame during session handshake");
      }
      // Session established: install the connection and start the demux
      // reader for this generation. Writers move to the new descriptor
      // before the old Socket closes, so no write reaches a closed or
      // reused fd.
      {
        std::lock_guard<std::mutex> wlock(write_mutex_);
        write_fd_ = fd;
      }
      sock_ = std::make_unique<Socket>(std::move(sock));
      connected_ = true;
      if (ever_connected_) {
        reconnects_.add(1);
      }
      ever_connected_ = true;
      const std::uint64_t generation = ++generation_;
      reader_ = std::thread([this, generation, fd] {
        reader_loop(generation, fd);
      });
      return;
    } catch (const FrameError&) {
      throw;  // a malformed handshake will not improve with retries
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
      sleep_backoff(config_.retry.delay_before(attempt));
    }
  }
}

void ServiceClient::teardown_locked(std::unique_lock<std::mutex>& lock,
                                    const std::string& reason) {
  if (!connected_) return;
  connected_ = false;
  ++generation_;  // stale readers recognize themselves and exit quietly
  if (sock_) sock_->shutdown_both();
  std::unordered_map<std::uint64_t, PendingRequest> orphans;
  orphans.swap(pending_);
  lock.unlock();
  const auto error =
      std::make_exception_ptr(ConnectionLost("connection lost: " + reason));
  for (auto& [id, settle] : orphans) {
    settle(error);
  }
  lock.lock();
}

void ServiceClient::reader_loop(std::uint64_t generation, int fd) {
  std::string reason = "server closed the connection";
  try {
    for (;;) {
      const std::optional<Frame> frame =
          recv_frame(fd, config_.max_frame_payload);
      if (!frame) break;
      const FrameHeader& h = frame->header;
      const std::vector<std::uint8_t>& payload = frame->payload;
      switch (h.type) {
        case FrameType::Response:
        case FrameType::Pong: {
          PendingRequest settle;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (generation_ != generation) return;
            auto it = pending_.find(h.request_id);
            if (it != pending_.end()) {
              settle = std::move(it->second);
              pending_.erase(it);
              ++responses_received_;
            }
          }
          // An id we no longer track is a response that raced a teardown or
          // a duplicate — drop it; the frame boundary was sound.
          if (settle) settle(std::span<const std::uint8_t>(payload));
          break;
        }
        case FrameType::Error: {
          util::ByteReader r(payload);
          const ErrorBody body = read_error(r);
          expect_exhausted(r);
          std::exception_ptr error;
          try {
            throw_wire_error(body);
          } catch (...) {
            error = std::current_exception();
          }
          if (h.request_id == 0) {
            // Connection-level reject: the server is about to close on us.
            std::unique_lock<std::mutex> lock(mutex_);
            if (generation_ != generation) return;
            ++errors_received_;
            teardown_locked(lock, body.message);
            return;
          }
          PendingRequest settle;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (generation_ != generation) return;
            auto it = pending_.find(h.request_id);
            if (it != pending_.end()) {
              settle = std::move(it->second);
              pending_.erase(it);
              ++errors_received_;
            }
          }
          if (settle) settle(error);
          break;
        }
        default:
          // Request/Cancel/Ping arriving at a client: protocol violation.
          reason = "unexpected frame type from server";
          throw FrameError("frame: unexpected frame type from server");
      }
    }
  } catch (const std::exception& e) {
    reason = e.what();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (generation_ != generation) return;  // a newer connection took over
  teardown_locked(lock, reason);
}

template <typename T, typename Parse>
std::uint64_t ServiceClient::submit(FrameType type, RequestOp op,
                                    const service::RequestOptions& opts,
                                    std::span<const std::uint8_t> payload,
                                    Parse parse,
                                    service::OnSettle<T> on_settle) {
  auto settle = [parse, on_settle = std::move(on_settle)](
                    service::Settled<std::span<const std::uint8_t>> outcome) {
    const auto parsed = [&]() -> service::Settled<T> {
      if (auto* error = std::get_if<std::exception_ptr>(&outcome)) {
        return *error;
      }
      try {
        util::ByteReader r(std::get<std::span<const std::uint8_t>>(outcome));
        T value = parse(r);
        expect_exhausted(r);
        return value;
      } catch (...) {
        return std::current_exception();
      }
    };
    on_settle(parsed());
  };
  return send_request(type, op, opts, payload, std::move(settle));
}

std::uint64_t ServiceClient::send_request(FrameType type, RequestOp op,
                                          const service::RequestOptions& opts,
                                          std::span<const std::uint8_t> payload,
                                          PendingRequest pending) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!connected_) throw ConnectionLost("not connected");
    id = next_id_++;
    pending_.emplace(id, std::move(pending));
    ++requests_sent_;
  }
  FrameHeader h;
  h.type = type;
  h.op = op;
  h.priority = opts.priority;
  h.request_id = id;
  h.deadline_ns = relative_deadline_ns(opts);
  const std::vector<std::uint8_t> frame = encode_frame(h, payload);
  try {
    std::lock_guard<std::mutex> wlock(write_mutex_);
    send_all(write_fd_, frame);
  } catch (const ConnectionLost& e) {
    std::unique_lock<std::mutex> lock(mutex_);
    // A teardown on another thread that already took the entry settles it
    // with ConnectionLost, so the caller must not also see a throw.
    if (pending_.erase(id) == 0) return id;
    teardown_locked(lock, e.what());
    throw ConnectionLost(std::string("send failed: ") + e.what());
  }
  return id;
}

service::ArchiveHandle ServiceClient::open_archive(
    std::span<const std::uint8_t> image) {
  util::ByteWriter w;
  w.bytes(image);
  return service::with_future<service::ArchiveHandle>([&](auto settle) {
           return submit<service::ArchiveHandle>(
               FrameType::Request, RequestOp::OpenArchive, {}, w.bytes(),
               [](util::ByteReader& r) { return r.u64(); }, std::move(settle));
         })
      .get();
}

void ServiceClient::close_archive(service::ArchiveHandle handle) {
  util::ByteWriter w;
  w.u64(handle);
  service::with_future<std::monostate>([&](auto settle) {
    return submit<std::monostate>(
        FrameType::Request, RequestOp::CloseArchive, {}, w.bytes(),
        [](util::ByteReader&) { return std::monostate{}; }, std::move(settle));
  }).get();
}

void ServiceClient::ping() {
  // A Ping frame carries no op; encode_frame zeroes it.
  service::with_future<std::monostate>([&](auto settle) {
    return submit<std::monostate>(
        FrameType::Ping, RequestOp::OpenClient, {}, {},
        [](util::ByteReader&) { return std::monostate{}; }, std::move(settle));
  }).get();
}

std::uint64_t ServiceClient::submit_compress(
    service::CompressJob job, service::RequestOptions opts,
    service::OnSettle<service::CompressResult> on_settle) {
  util::ByteWriter w;
  write_compress_job(w, job);
  return submit<service::CompressResult>(
      FrameType::Request, RequestOp::Compress, opts, w.bytes(),
      [](util::ByteReader& r) {
        return service::CompressResult{r.array<std::uint8_t>()};
      },
      std::move(on_settle));
}

service::Submission<service::CompressResult> ServiceClient::submit_compress(
    service::CompressJob job, service::RequestOptions opts) {
  return service::with_future<service::CompressResult>([&](auto settle) {
    return submit_compress(std::move(job), opts, std::move(settle));
  });
}

std::uint64_t ServiceClient::submit_decompress(
    service::ArchiveHandle archive, service::RequestOptions opts,
    service::OnSettle<DecompressBody> on_settle) {
  util::ByteWriter w;
  w.u64(archive);
  return submit<DecompressBody>(FrameType::Request, RequestOp::Decompress,
                                opts, w.bytes(), read_decompress_result,
                                std::move(on_settle));
}

service::Submission<DecompressBody> ServiceClient::submit_decompress(
    service::ArchiveHandle archive, service::RequestOptions opts) {
  return service::with_future<DecompressBody>([&](auto settle) {
    return submit_decompress(archive, opts, std::move(settle));
  });
}

std::uint64_t ServiceClient::submit_chunk(
    service::ArchiveHandle archive, std::size_t field, std::size_t chunk,
    service::RequestOptions opts,
    service::OnSettle<std::vector<float>> on_settle) {
  util::ByteWriter w;
  w.u64(archive);
  w.u64(field);
  w.u64(chunk);
  return submit<std::vector<float>>(FrameType::Request, RequestOp::Chunk, opts,
                                    w.bytes(), read_floats,
                                    std::move(on_settle));
}

service::Submission<std::vector<float>> ServiceClient::submit_chunk(
    service::ArchiveHandle archive, std::size_t field, std::size_t chunk,
    service::RequestOptions opts) {
  return service::with_future<std::vector<float>>([&](auto settle) {
    return submit_chunk(archive, field, chunk, opts, std::move(settle));
  });
}

std::uint64_t ServiceClient::submit_range(
    service::ArchiveHandle archive, std::size_t field,
    std::uint64_t elem_begin, std::uint64_t elem_end,
    service::RequestOptions opts,
    service::OnSettle<std::vector<float>> on_settle) {
  util::ByteWriter w;
  w.u64(archive);
  w.u64(field);
  w.u64(elem_begin);
  w.u64(elem_end);
  return submit<std::vector<float>>(FrameType::Request, RequestOp::Range, opts,
                                    w.bytes(), read_floats,
                                    std::move(on_settle));
}

service::Submission<std::vector<float>> ServiceClient::submit_range(
    service::ArchiveHandle archive, std::size_t field,
    std::uint64_t elem_begin, std::uint64_t elem_end,
    service::RequestOptions opts) {
  return service::with_future<std::vector<float>>([&](auto settle) {
    return submit_range(archive, field, elem_begin, elem_end, opts,
                        std::move(settle));
  });
}

void ServiceClient::cancel(std::uint64_t wire_id) {
  FrameHeader h;
  h.type = FrameType::Cancel;
  h.request_id = wire_id;
  const std::vector<std::uint8_t> frame = encode_frame(h, {});
  try {
    std::lock_guard<std::mutex> wlock(write_mutex_);
    send_all(write_fd_, frame);
  } catch (const ConnectionLost&) {
    // Best effort: a dead connection settles the request with
    // ConnectionLost anyway.
  }
}

service::CompressResult ServiceClient::compress_retrying(
    const service::CompressJob& job, service::RequestOptions opts) {
  const std::size_t attempts = std::max<std::size_t>(1, config_.retry.max_attempts);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      reconnect();
      return submit_compress(job, opts).get();
    } catch (const service::ServiceOverloaded& e) {
      if (attempt >= attempts) throw;
      // Honor the server's hint: never wait LESS than retry_after_ns; the
      // policy's jittered schedule only ever lengthens the pause.
      const auto floor_delay = std::chrono::nanoseconds(
          config_.retry.delay_before(attempt));
      const auto hint = std::chrono::nanoseconds(e.retry_after_ns());
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++retries_;
        if (hint.count() > 0) ++retry_after_waits_;
      }
      sleep_backoff(std::max(hint, floor_delay));
    } catch (const service::ServiceBusy&) {
      if (attempt >= attempts) throw;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++retries_;
      }
      sleep_backoff(config_.retry.delay_before(attempt));
    } catch (const ConnectionLost&) {
      if (attempt >= attempts) throw;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++retries_;
      }
      sleep_backoff(config_.retry.delay_before(attempt));
    }
  }
}

ClientStats ServiceClient::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ClientStats s;
  s.requests_sent = requests_sent_;
  s.responses_received = responses_received_;
  s.errors_received = errors_received_;
  s.reconnects = reconnects_.value();
  s.retries = retries_;
  s.retry_after_waits = retry_after_waits_;
  return s;
}

}  // namespace ohd::net

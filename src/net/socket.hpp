// POSIX socket primitives of the network subsystem: RAII descriptors, the
// two listener shapes the server binds (TCP loopback and Unix domain), the
// matching client connector, the one frame reader both ends of the wire use
// (recv_frame), and the one socket writer (send_all).
//
// Failure vocabulary: NetError for setup failures (bind/listen/connect, with
// errno detail), ConnectionLost (net/frame.hpp) for an established peer
// going away mid-stream. recv_exact and recv_frame distinguish a CLEAN close
// (EOF on a frame boundary, returned as false / no frame) from a torn one
// (EOF mid-read, thrown) because only the former is a graceful shutdown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "net/frame.hpp"

namespace ohd::net {

/// Socket-layer setup failure (bind, listen, connect, option); the message
/// carries the errno text.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where a server listens / a client connects. TCP is pinned to loopback by
/// design — this is a trusted-edge protocol with no authentication layer yet
/// (docs/wire_protocol.md, "Scope").
struct Endpoint {
  enum class Kind : std::uint8_t { Tcp = 0, Unix = 1 };

  Kind kind = Kind::Tcp;
  std::uint16_t tcp_port = 0;  // 0 = ephemeral (resolved after bind)
  std::string unix_path;

  static Endpoint tcp(std::uint16_t port) {
    Endpoint e;
    e.kind = Kind::Tcp;
    e.tcp_port = port;
    return e;
  }
  static Endpoint unix_socket(std::string path) {
    Endpoint e;
    e.kind = Kind::Unix;
    e.unix_path = std::move(path);
    return e;
  }

  /// "tcp:127.0.0.1:<port>" / "unix:<path>" — log/exception labels.
  std::string describe() const;
};

/// Move-only RAII descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Half-close for reading: wakes a blocked recv with EOF (the graceful
  /// server-shutdown signal — in-flight responses still flush).
  void shutdown_read();
  void shutdown_both();
  void close();

 private:
  int fd_ = -1;
};

/// Bound + listening socket. For Endpoint::tcp(0) the ephemeral port is
/// resolved at construction — endpoint() names the real one. A Unix listener
/// unlinks a stale socket file before binding and removes its own at close.
///
/// Stopping is two steps so no thread ever writes the descriptor another
/// thread is blocked on: shutdown() (safe from any thread) wakes accept(),
/// and close() — only once no thread can still be in accept() — releases
/// the fd. The fd number therefore cannot be reused by a new socket before
/// the last accept() on it has returned.
class Listener {
 public:
  explicit Listener(const Endpoint& endpoint);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  const Endpoint& endpoint() const { return endpoint_; }

  /// Blocks for the next connection. Returns an invalid Socket once
  /// shutdown() has been called (from any thread) — the acceptor loop's exit
  /// signal.
  Socket accept();

  /// Wakes any blocked accept() without touching the descriptor. Idempotent.
  void shutdown();

  /// Closes the listening socket and removes a Unix socket path. Call it
  /// only after every thread blocked in accept() has returned (shutdown(),
  /// then join). Idempotent.
  void close();

 private:
  Endpoint endpoint_;
  Socket sock_;
  bool unlink_on_close_ = false;
};

/// Connects to a listening endpoint; throws NetError on failure. TCP sockets
/// get TCP_NODELAY (frames are small and latency-bound).
Socket connect_to(const Endpoint& endpoint);

/// Sends all of `bytes` (MSG_NOSIGNAL, EINTR retried). Every failure throws
/// ConnectionLost: on an established connection a send that cannot complete
/// leaves nothing more to say to the peer.
void send_all(int fd, std::span<const std::uint8_t> bytes);

/// Fills `out` completely. Returns false on a clean EOF before the FIRST
/// byte (a frame-boundary close); throws ConnectionLost on EOF mid-buffer or
/// a connection reset, NetError on any other read error. EINTR is retried.
bool recv_exact(int fd, std::span<std::uint8_t> out);

/// Reads one frame: the 40-byte header, then the payload, then both CRC
/// checks. Returns no frame on a clean EOF before the first header byte.
/// Throws FrameError when the header fails parse_frame_header (before any
/// payload byte is read), ConnectionLost on EOF mid-frame, and PayloadError
/// when the payload fails its CRC. The payload buffer starts at
/// min(payload_len, 1 MiB) and at most doubles as bytes arrive, so a peer
/// that declares a large payload and stalls pins one step, not payload_len.
std::optional<Frame> recv_frame(int fd,
                                std::uint64_t max_payload = kDefaultMaxPayload);

}  // namespace ohd::net

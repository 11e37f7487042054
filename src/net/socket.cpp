#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ohd::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw NetError("unix socket path '" + path + "' empty or longer than " +
                   std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// First payload buffer of recv_frame. A chunk or range response (64 Ki
/// floats at the default chunk size) fits in it, so only archive uploads and
/// large decompress bodies grow.
constexpr std::uint64_t kFirstPayloadStep = std::uint64_t{1} << 20;

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: a socket that ignores TCP_NODELAY (unix domain) is fine.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + unix_path;
  return "tcp:127.0.0.1:" + std::to_string(tcp_port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::shutdown_read() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(const Endpoint& endpoint) : endpoint_(endpoint) {
  if (endpoint_.kind == Endpoint::Kind::Unix) {
    const sockaddr_un addr = unix_addr(endpoint_.unix_path);
    // A stale socket file from a dead server would fail the bind; the
    // listener owns the path, so replacing it is the right call.
    (void)::unlink(endpoint_.unix_path.c_str());
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) fail_errno("socket(" + endpoint_.describe() + ")");
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail_errno("bind(" + endpoint_.describe() + ")");
    }
    unlink_on_close_ = true;
    if (::listen(s.fd(), 64) != 0) {
      fail_errno("listen(" + endpoint_.describe() + ")");
    }
    sock_ = std::move(s);
    return;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) fail_errno("socket(" + endpoint_.describe() + ")");
  const int one = 1;
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(endpoint_.tcp_port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind(" + endpoint_.describe() + ")");
  }
  if (endpoint_.tcp_port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      fail_errno("getsockname(" + endpoint_.describe() + ")");
    }
    endpoint_.tcp_port = ntohs(bound.sin_port);
  }
  if (::listen(s.fd(), 64) != 0) {
    fail_errno("listen(" + endpoint_.describe() + ")");
  }
  sock_ = std::move(s);
}

Listener::~Listener() { close(); }

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // EINVAL once shutdown() stopped the listener — the clean exit path.
    return Socket();
  }
}

void Listener::shutdown() {
  // Closing an fd another thread is blocked in accept() on does not reliably
  // wake it; shutdown does (accept fails with EINVAL).
  sock_.shutdown_both();
}

void Listener::close() {
  sock_.close();
  if (unlink_on_close_) {
    (void)::unlink(endpoint_.unix_path.c_str());
    unlink_on_close_ = false;
  }
}

Socket connect_to(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::Unix) {
    const sockaddr_un addr = unix_addr(endpoint.unix_path);
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) fail_errno("socket(" + endpoint.describe() + ")");
    if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail_errno("connect(" + endpoint.describe() + ")");
    }
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) fail_errno("socket(" + endpoint.describe() + ")");
  const sockaddr_in addr = loopback_addr(endpoint.tcp_port);
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail_errno("connect(" + endpoint.describe() + ")");
  }
  set_nodelay(s.fd());
  return s;
}

void send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw ConnectionLost(std::string("send: ") + std::strerror(errno));
  }
}

bool recv_exact(int fd, std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(fd, out.data() + got, out.size() - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;  // clean close on a frame boundary
      throw ConnectionLost("recv: connection closed mid-frame (" +
                           std::to_string(got) + " of " +
                           std::to_string(out.size()) + " bytes)");
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      throw ConnectionLost("recv: connection reset");
    }
    throw NetError(std::string("recv: ") + std::strerror(errno));
  }
  return true;
}

std::optional<Frame> recv_frame(int fd, std::uint64_t max_payload) {
  std::uint8_t head[kFrameHeaderBytes];
  if (!recv_exact(fd, head)) return std::nullopt;
  Frame frame{parse_frame_header(head, max_payload), {}};
  const std::uint64_t len = frame.header.payload_len;
  for (std::size_t got = 0; got < len; got = frame.payload.size()) {
    const std::size_t step =
        std::min(len, got == 0 ? kFirstPayloadStep : 2 * got);
    frame.payload.reserve(step);  // exactly: resize alone may round up
    frame.payload.resize(step);
    if (!recv_exact(fd, std::span(frame.payload).subspan(got))) {
      throw ConnectionLost("recv: connection closed mid-frame (" +
                           std::to_string(got) + " of " + std::to_string(len) +
                           " payload bytes)");
    }
  }
  verify_payload(frame.header, frame.payload);
  return frame;
}

}  // namespace ohd::net

// The socket layer's frame reader and writer over a socketpair: frames round
// trip through send_all and recv_frame, a clean close on a frame boundary is
// "no frame", a bad header is rejected before any payload byte is read, a
// payload that fails its CRC reports the header it arrived under, EOF inside
// a frame is ConnectionLost, and so is a send to a closed peer.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ohd::net {
namespace {

struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
  Socket a;
  Socket b;
};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13);
  return v;
}

FrameHeader response(std::uint64_t id) {
  FrameHeader h;
  h.type = FrameType::Response;
  h.op = RequestOp::Chunk;
  h.request_id = id;
  return h;
}

TEST(RecvFrame, FramesRoundTripThenCleanCloseIsNoFrame) {
  SocketPair pair;
  const auto body = pattern(2000);
  send_all(pair.a.fd(), encode_frame(response(7), body));
  FrameHeader ping;
  ping.type = FrameType::Ping;
  ping.request_id = 8;
  send_all(pair.a.fd(), encode_frame(ping, {}));
  pair.a.shutdown_both();

  const std::optional<Frame> first = recv_frame(pair.b.fd());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.type, FrameType::Response);
  EXPECT_EQ(first->header.request_id, 7u);
  EXPECT_EQ(first->payload, body);
  const std::optional<Frame> second = recv_frame(pair.b.fd());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.type, FrameType::Ping);
  EXPECT_TRUE(second->payload.empty());
  EXPECT_FALSE(recv_frame(pair.b.fd()).has_value());
}

TEST(RecvFrame, BadHeaderIsRejectedBeforeAnyPayloadByte) {
  SocketPair pair;
  std::vector<std::uint8_t> frame = encode_frame(response(3), pattern(64));
  frame[0] ^= 0xFF;  // bad magic
  send_all(pair.a.fd(), frame);
  try {
    (void)recv_frame(pair.b.fd());
    FAIL() << "a bad header was accepted";
  } catch (const PayloadError&) {
    FAIL() << "a header failure was reported as a payload failure";
  } catch (const FrameError&) {
  }
  // The reader stopped at the header: all 64 payload bytes are still queued.
  std::vector<std::uint8_t> rest(64);
  ASSERT_TRUE(recv_exact(pair.b.fd(), rest));
  EXPECT_EQ(rest, pattern(64));
}

TEST(RecvFrame, PayloadCrcFailureCarriesItsHeader) {
  SocketPair pair;
  std::vector<std::uint8_t> frame = encode_frame(response(9), pattern(100));
  frame.back() ^= 0x01;
  send_all(pair.a.fd(), frame);
  try {
    (void)recv_frame(pair.b.fd());
    FAIL() << "a corrupt payload was accepted";
  } catch (const PayloadError& e) {
    EXPECT_EQ(e.header().request_id, 9u);
    EXPECT_EQ(e.header().payload_len, 100u);
  }
}

TEST(RecvFrame, EofInsideAFrameIsConnectionLost) {
  const std::vector<std::uint8_t> frame = encode_frame(response(5), pattern(100));
  // Cut inside the header, at its end, and inside the payload.
  for (const std::size_t cut : {std::size_t{10}, kFrameHeaderBytes,
                                kFrameHeaderBytes + 50}) {
    SocketPair pair;
    send_all(pair.a.fd(), std::span(frame).first(cut));
    pair.a.shutdown_both();
    EXPECT_THROW((void)recv_frame(pair.b.fd()), ConnectionLost) << cut;
  }
}

TEST(SendAll, ClosedPeerThrowsConnectionLost) {
  SocketPair pair;
  pair.b.close();  // peer gone: EPIPE, not SIGPIPE
  const auto bytes = pattern(1 << 20);  // larger than any socket buffer
  EXPECT_THROW(send_all(pair.a.fd(), bytes), ConnectionLost);
}

}  // namespace
}  // namespace ohd::net

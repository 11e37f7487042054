// Allocation budgets of the wire's frame reader (net::recv_frame): a header
// that declares a large payload commits memory only as payload bytes
// arrive, so a peer that declares 512 MiB and then stops sending costs the
// reader one 1 MiB step, and a payload past the first step arrives intact
// through buffers that never outgrow the declared length.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "heap_meter.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/checksum.hpp"

namespace ohd::budgets {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kSlack = 64 * 1024;

struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = net::Socket(fds[0]);
    reader = net::Socket(fds[1]);
  }
  net::Socket writer;
  net::Socket reader;
};

net::FrameHeader upload_header() {
  net::FrameHeader h;
  h.type = net::FrameType::Request;
  h.op = net::RequestOp::OpenArchive;
  h.request_id = 1;
  return h;
}

TEST(HeapMeter, CountsWhatIsLiveAndKeepsThePeak) {
  const HeapMeter meter;
  {
    std::vector<std::uint8_t> block(4 * kMiB);
    EXPECT_GE(live_heap_bytes(), block.size());
  }
  EXPECT_GE(meter.peak_bytes(), 4 * kMiB);
  EXPECT_LE(meter.peak_bytes(), 4 * kMiB + kSlack);
}

TEST(WireBudget, StalledDeclaredPayloadPinsOneStep) {
  // A sound header declaring 512 MiB, then the peer shuts its side down. A
  // header that failed its checks would throw FrameError, not
  // ConnectionLost.
  std::vector<std::uint8_t> head = net::encode_frame(upload_header(), {});
  ASSERT_EQ(head.size(), net::kFrameHeaderBytes);
  constexpr std::uint64_t kDeclared = std::uint64_t{512} << 20;
  for (int i = 0; i < 8; ++i) {  // payload_len: the u64 at header byte 24
    head[24 + i] = static_cast<std::uint8_t>(kDeclared >> (8 * i));
  }
  const std::uint32_t crc = util::crc32(std::span(head).first(36));
  for (int i = 0; i < 4; ++i) {  // the header CRC over bytes [0, 36)
    head[36 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }

  SocketPair pair;
  net::send_all(pair.writer.fd(), head);
  pair.writer.shutdown_both();
  const HeapMeter meter;
  EXPECT_THROW((void)net::recv_frame(pair.reader.fd()), net::ConnectionLost);
  EXPECT_LE(meter.peak_bytes(), kMiB + kSlack);
}

TEST(WireBudget, PayloadPastTheFirstStepArrivesIntact) {
  std::vector<std::uint8_t> payload(3 * kMiB);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + i / 4096);
  }
  const std::vector<std::uint8_t> frame =
      net::encode_frame(upload_header(), payload);
  SocketPair pair;
  std::thread sender([&] { net::send_all(pair.writer.fd(), frame); });
  const HeapMeter meter;
  const std::optional<net::Frame> got = net::recv_frame(pair.reader.fd());
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  // Steps of 1, 2 and 3 MiB: the last one holds the 2 and 3 MiB buffers at
  // once. A step that overshot the declared length would exceed this.
  EXPECT_LE(meter.peak_bytes(), 5 * kMiB + kSlack);
}

}  // namespace
}  // namespace ohd::budgets

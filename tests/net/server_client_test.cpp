// Loopback wire-protocol coverage: ServiceServer + ServiceClient against a
// real CompressionService over TCP loopback and Unix domain sockets —
// bit-identity of every submit_* entry point against the in-process path,
// the full error-taxonomy round trip (Busy, Overloaded, DeadlineExceeded,
// Cancelled, ClientError, Stopped), connection-survives-malformed-body vs
// closes-on-malformed-header, the deterministic retry-after loop against a
// scripted server, reconnect after a server restart, and the server's
// error-frame count across a closed connection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "service/compression_service.hpp"
#include "sz/serialize.hpp"
#include "util/rng.hpp"

namespace ohd::net {
namespace {

using namespace std::chrono_literals;

std::vector<float> wavy_field(std::size_t n, std::uint64_t seed,
                              double noise = 0.02) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                              noise * rng.normal());
  }
  return v;
}

service::CompressJob two_field_job(std::uint64_t seed) {
  service::CompressJob job;
  job.fields.push_back({"alpha", wavy_field(6000, seed), sz::Dims::d1(6000)});
  job.fields.push_back(
      {"beta", wavy_field(40 * 50, seed + 1, 0.005), sz::Dims::d2(40, 50)});
  return job;
}

bool identical_floats(const std::vector<float>& a,
                      const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

constexpr std::size_t kChunkElems = 2048;

service::ServiceConfig small_service_config() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.dispatchers = 2;
  return cfg;
}

/// ClientOptions matching what the wire session negotiates, for the
/// in-process halves of the bit-identity checks.
service::ClientOptions session_options() {
  service::ClientOptions opts;
  opts.chunk_elems = kChunkElems;
  return opts;
}

ClientConfig client_config(const Endpoint& ep) {
  ClientConfig cfg;
  cfg.endpoint = ep;
  cfg.chunk_elems = kChunkElems;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_delay = std::chrono::microseconds(100);
  return cfg;
}

// ---- bit identity ---------------------------------------------------------

TEST(ServiceWire, CompressRoundTripBitIdenticalToInProcess) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ASSERT_EQ(server.endpoints().size(), 1u);
  ASSERT_NE(server.endpoints()[0].tcp_port, 0);  // ephemeral port resolved

  ServiceClient client(client_config(server.endpoints()[0]));
  const auto wire = client.submit_compress(two_field_job(7)).get().archive;

  const service::ClientId local = svc.open_client(session_options());
  const auto direct =
      svc.submit_compress(local, two_field_job(7)).get().archive;
  EXPECT_EQ(wire, direct);  // byte-identical archive image
}

TEST(ServiceWire, DecompressChunkRangeBitIdenticalToInProcess) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));

  const service::ClientId local = svc.open_client(session_options());
  const auto archive =
      svc.submit_compress(local, two_field_job(21)).get().archive;
  const auto local_handle = svc.open_archive(
      local, std::make_shared<pipeline::OwningMemorySource>(archive));

  const auto wire_handle = client.open_archive(archive);

  const auto direct = svc.submit_decompress(local, local_handle).get();
  const DecompressBody wire = client.submit_decompress(wire_handle).get();
  ASSERT_EQ(wire.fields.size(), direct.fields.size());
  for (std::size_t i = 0; i < wire.fields.size(); ++i) {
    EXPECT_EQ(wire.fields[i].name, direct.fields[i].name);
    EXPECT_TRUE(identical_floats(wire.fields[i].data,
                                 direct.fields[i].decode.data));
  }

  EXPECT_TRUE(identical_floats(
      client.submit_chunk(wire_handle, 0, 1).get(),
      svc.submit_chunk(local, local_handle, 0, 1).get()));
  EXPECT_TRUE(identical_floats(
      client.submit_range(wire_handle, 0, 1000, 3000).get(),
      svc.submit_range(local, local_handle, 0, 1000, 3000).get()));

  client.close_archive(wire_handle);
  // A second close round-trips the ClientError the in-process path throws.
  EXPECT_THROW(client.close_archive(wire_handle), service::ClientError);
}

TEST(ServiceWire, UnixSocketRoundTrip) {
  const std::string path =
      "/tmp/ohd_net_ux_" + std::to_string(::getpid()) + ".sock";
  service::CompressionService svc(small_service_config());
  ServerConfig cfg;
  cfg.listen.push_back(Endpoint::unix_socket(path));
  ServiceServer server(svc, cfg);
  ServiceClient client(client_config(Endpoint::unix_socket(path)));
  client.ping();
  const auto wire = client.submit_compress(two_field_job(3)).get().archive;
  const service::ClientId local = svc.open_client(session_options());
  EXPECT_EQ(wire, svc.submit_compress(local, two_field_job(3)).get().archive);
}

// ---- error taxonomy over the wire -----------------------------------------

TEST(ServiceWire, DeadlineCancelBusyAndStoppedRoundTrip) {
  service::ServiceConfig cfg = small_service_config();
  cfg.max_queue_depth = 1;
  service::CompressionService svc(cfg);
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));

  // DeadlineExceeded: paused service, 5ms budget — the sweeper (which keeps
  // running while paused) expires it on the server and the verdict crosses
  // back typed.
  svc.pause();
  {
    service::RequestOptions opts;
    opts.deadline = service::Deadline::after(5ms);
    auto sub = client.submit_compress(two_field_job(1), opts);
    EXPECT_THROW(sub.future.get(), service::DeadlineExceeded);
  }

  // RequestCancelled: still paused, so the request is deterministically
  // queued when the cancel frame arrives.
  {
    auto sub = client.submit_compress(two_field_job(2));
    client.cancel(sub.id);
    EXPECT_THROW(sub.future.get(), service::RequestCancelled);
  }

  // ServiceOverloaded from a shed: an Interactive submit displaces the
  // queued Background request of its own connection. The victim settles on
  // this connection's reader thread, inside that submit — a reader holding
  // the connection's lock across the submit would hang here.
  {
    service::RequestOptions background;
    background.priority = service::Priority::Background;
    auto victim = client.submit_compress(two_field_job(3), background);
    service::RequestOptions interactive;
    interactive.priority = service::Priority::Interactive;
    auto urgent = client.submit_compress(two_field_job(3), interactive);
    try {
      victim.future.get();
      ADD_FAILURE() << "expected ServiceOverloaded";
    } catch (const service::ServiceOverloaded& e) {
      // Nothing has been dispatched yet, so the drain-rate hint is zero.
      EXPECT_EQ(e.retry_after_ns(), 0u);
      EXPECT_NE(std::string(e.what()).find(
                    " shed under overload by interactive-priority submit "
                    "(queue depth 1/1; retry-after ~0.0 ms)"),
                std::string::npos)
          << e.what();
    }
    svc.resume();  // the busy block below needs an empty, paused queue
    EXPECT_FALSE(urgent.get().archive.empty());
    svc.pause();
  }

  // ServiceBusy: depth-1 queue, one occupant — the second submit's
  // admission reject crosses back through the submission's future.
  {
    auto occupant = client.submit_compress(two_field_job(4));
    auto rejected = client.submit_compress(two_field_job(5));
    EXPECT_THROW(rejected.future.get(), service::ServiceBusy);
    svc.resume();
    EXPECT_FALSE(occupant.get().archive.empty());
  }

  // ServiceStopped: service drained underneath a live server.
  svc.shutdown();
  auto sub = client.submit_compress(two_field_job(6));
  EXPECT_THROW(sub.future.get(), service::ServiceStopped);
}

TEST(ServiceWire, OpsBeforeOpenArchiveAndUnknownHandleAreClientErrors) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));
  EXPECT_THROW(client.close_archive(999), service::ClientError);
  auto sub = client.submit_decompress(999);
  EXPECT_THROW(sub.future.get(), service::ClientError);
}

TEST(ServiceWire, CorruptArchiveUploadMapsToArchiveCode) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));
  const std::vector<std::uint8_t> junk(64, 0xAB);
  try {
    client.open_archive(junk);
    FAIL() << "opened a junk archive";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), static_cast<std::uint16_t>(WireErrorCode::Archive));
  }
  // The connection survives an Archive-level reject.
  client.ping();
}

/// Three 4096-element chunks, the middle one constant: the encoder gives its
/// lone symbol a 1-bit code and leaves the other 1-bit prefix unassigned.
/// Its payload is complemented into that prefix before ArchiveWriter seals
/// the frame and index CRCs, so only the decode can tell the data is bad.
std::vector<std::uint8_t> unassigned_prefix_archive() {
  std::vector<float> data = wavy_field(3 * 4096, 5);
  std::fill(data.begin() + 4096, data.begin() + 8192, 0.0f);
  const sz::CompressorConfig cfg;  // gap-array optimized
  pipeline::ArchiveFieldSpec spec;
  spec.name = "f";
  spec.dims = sz::Dims::d1(data.size());
  spec.abs_error_bound = sz::resolve_error_bound(data, cfg.rel_error_bound);
  pipeline::MemorySink sink;
  pipeline::ArchiveWriter writer(sink);
  writer.begin_field(spec);
  for (const pipeline::ChunkExtent& e : pipeline::chunk_layout(spec.dims, 4096)) {
    sz::CompressedBlob blob = sz::compress_with_abs_bound(
        std::span<const float>(data).subspan(e.elem_offset, 4096), e.dims,
        spec.abs_error_bound, cfg);
    if (e.elem_offset == 4096) {
      for (std::uint32_t& unit :
           std::get<huffman::GapEncoding>(blob.encoded.payload).stream.units) {
        unit = ~unit;
      }
    }
    writer.write_chunk(e, sz::serialize_blob(blob));
  }
  writer.end_field();
  writer.finish();
  return sink.take();
}

TEST(ServiceWire, UnassignedPrefixFrameIsAnArchiveError) {
  const std::vector<std::uint8_t> archive = unassigned_prefix_archive();
  const pipeline::MemorySource source(archive);
  const pipeline::ArchiveReader reader(source);
  pipeline::ThreadPool pool(2);
  const pipeline::BatchScheduler sched(pool);
  // Bad data on both decode paths, not a library fault.
  cudasim::SimContext ctx;
  EXPECT_THROW(reader.decode_chunk(ctx, 0, 1), std::invalid_argument);
  EXPECT_THROW(sched.decode_range(reader, 0, 4096, 8192),
               std::invalid_argument);

  // Salvage quarantines exactly that chunk and decodes the rest.
  const pipeline::PartialBatchDecompress partial =
      sched.decompress_partial(reader);
  std::vector<float> expect = sched.decode_range(reader, 0, 0, 4096);
  expect.resize(8192, 0.0f);
  const std::vector<float> tail = sched.decode_range(reader, 0, 8192, 3 * 4096);
  expect.insert(expect.end(), tail.begin(), tail.end());
  EXPECT_EQ(partial.values.at(0), expect);
  const auto& chunks = partial.report.fields.at(0).chunks;
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].status, pipeline::ChunkStatus::Ok);
  EXPECT_EQ(chunks[1].status, pipeline::ChunkStatus::Corrupt);
  EXPECT_EQ(chunks[2].status, pipeline::ChunkStatus::Ok);

  // Over the wire: a chunk read and a whole decompress fail with the
  // Archive code, and the connection lives on.
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc);
  ServiceClient client(client_config(server.endpoints()[0]));
  const service::ArchiveHandle handle = client.open_archive(archive);
  const auto expect_archive_error = [](auto&& future) {
    try {
      future.get();
      ADD_FAILURE() << "the hostile chunk decoded";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), static_cast<std::uint16_t>(WireErrorCode::Archive))
          << e.what();
    }
  };
  expect_archive_error(client.submit_chunk(handle, 0, 1).future);
  expect_archive_error(client.submit_decompress(handle).future);
  EXPECT_EQ(client.submit_chunk(handle, 0, 2).future.get(), tail);
}

// ---- raw-socket protocol behaviour ----------------------------------------

void send_open_client(int fd, std::uint64_t id) {
  util::ByteWriter w;
  write_open_client(w, OpenClientBody{});
  FrameHeader h;
  h.type = FrameType::Request;
  h.op = RequestOp::OpenClient;
  h.priority = service::Priority::Interactive;
  h.request_id = id;
  send_all(fd, encode_frame(h, w.bytes()));
}

TEST(ServiceWire, MalformedBodyKeepsConnectionMalformedHeaderCloses) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  Socket sock = connect_to(server.endpoints()[0]);

  send_open_client(sock.fd(), 1);
  EXPECT_EQ(recv_frame(sock.fd()).value().header.type, FrameType::Response);

  // Well-framed garbage BODY: typed BadRequest error on that id, and the
  // connection must survive.
  {
    FrameHeader h;
    h.type = FrameType::Request;
    h.op = RequestOp::Compress;
    h.priority = service::Priority::Batch;
    h.request_id = 2;
    const std::vector<std::uint8_t> garbage(16, 0xEE);
    send_all(sock.fd(), encode_frame(h, garbage));
    const Frame err = recv_frame(sock.fd()).value();
    EXPECT_EQ(err.header.type, FrameType::Error);
    EXPECT_EQ(err.header.request_id, 2u);
    util::ByteReader r(err.payload);
    EXPECT_EQ(read_error(r).code, WireErrorCode::BadRequest);
  }
  // A payload that fails its CRC behind a sound header: the frame boundary
  // held, so the reject lands on that id and the connection survives too.
  {
    FrameHeader h;
    h.type = FrameType::Request;
    h.op = RequestOp::CloseArchive;
    h.request_id = 4;
    util::ByteWriter w;
    w.u64(1);
    std::vector<std::uint8_t> frame = encode_frame(h, w.bytes());
    frame.back() ^= 0x01;
    send_all(sock.fd(), frame);
    const Frame err = recv_frame(sock.fd()).value();
    EXPECT_EQ(err.header.type, FrameType::Error);
    EXPECT_EQ(err.header.request_id, 4u);
    util::ByteReader r(err.payload);
    EXPECT_EQ(read_error(r).code, WireErrorCode::BadRequest);
  }
  {
    FrameHeader ping;
    ping.type = FrameType::Ping;
    ping.request_id = 3;
    send_all(sock.fd(), encode_frame(ping, {}));
    const Frame pong = recv_frame(sock.fd()).value();
    EXPECT_EQ(pong.header.type, FrameType::Pong);
    EXPECT_EQ(pong.header.request_id, 3u);  // the id echoes
  }

  // Malformed HEADER: one id-0 BadRequest error frame, then the server
  // closes (the stream is desynchronized).
  std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0x5A);
  send_all(sock.fd(), junk);
  const Frame reject = recv_frame(sock.fd()).value();
  EXPECT_EQ(reject.header.type, FrameType::Error);
  EXPECT_EQ(reject.header.request_id, 0u);
  std::uint8_t byte = 0;
  EXPECT_FALSE(recv_exact(sock.fd(), std::span(&byte, 1)));  // clean EOF

  // The server counts all three error frames exactly once, whether the
  // connection is live or already closed.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stats().error_frames != 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().error_frames, 3u);
  EXPECT_GE(server.stats().decode_rejects, 3u);
}

TEST(ServiceWire, ResponsesStreamInCompletionOrder) {
  // Two dispatchers: the big compress (submitted FIRST) and a tiny chunk
  // read (submitted second) execute concurrently; the chunk finishes orders
  // of magnitude earlier and its response must come back while the compress
  // is still running. Completion order, not submission order.
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));

  const auto archive = client.submit_compress(two_field_job(9)).get().archive;
  const auto handle = client.open_archive(archive);

  svc.pause();
  service::CompressJob big;
  big.fields.push_back({"big", wavy_field(500000, 5), sz::Dims::d1(500000)});
  auto slow = client.submit_compress(std::move(big));
  auto fast = client.submit_chunk(handle, 0, 0);
  svc.resume();

  // Wait on the FAST one first; if responses were forced into submission
  // order it could not land before the big compress's.
  ASSERT_EQ(fast.future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(slow.future.wait_for(0s), std::future_status::timeout)
      << "the big compress finished before the chunk read — the ordering "
         "premise did not hold on this machine";
  EXPECT_FALSE(fast.get().empty());
  EXPECT_FALSE(slow.get().archive.empty());
}

// ---- retry-after, reconnect ----------------------------------------------

TEST(ServiceWire, RetryLoopHonorsServerRetryAfterHint) {
  // A scripted server, not a real one: reply Overloaded with a 7ms hint to
  // the first compress, succeed the second — the waited interval is then a
  // deterministic assertion, not a timing accident.
  Listener listener(Endpoint::tcp(0));
  constexpr std::uint64_t kHintNs = 7'000'000;
  const std::vector<std::uint8_t> canned_archive{1, 2, 3};

  std::thread script([&] {
    Socket peer = listener.accept();
    ASSERT_TRUE(peer.valid());
    const Frame open = recv_frame(peer.fd()).value();
    ASSERT_EQ(open.header.op, RequestOp::OpenClient);
    util::ByteWriter ack;
    ack.u64(1);
    FrameHeader rh;
    rh.type = FrameType::Response;
    rh.op = RequestOp::OpenClient;
    rh.request_id = open.header.request_id;
    send_all(peer.fd(), encode_frame(rh, ack.bytes()));

    const Frame first = recv_frame(peer.fd()).value();
    ASSERT_EQ(first.header.op, RequestOp::Compress);
    util::ByteWriter err;
    write_error(err, {WireErrorCode::Overloaded, kHintNs, "shed"});
    FrameHeader eh;
    eh.type = FrameType::Error;
    eh.request_id = first.header.request_id;
    send_all(peer.fd(), encode_frame(eh, err.bytes()));

    const Frame second = recv_frame(peer.fd()).value();
    ASSERT_EQ(second.header.op, RequestOp::Compress);
    util::ByteWriter ok;
    ok.bytes(canned_archive);
    FrameHeader sh;
    sh.type = FrameType::Response;
    sh.op = RequestOp::Compress;
    sh.request_id = second.header.request_id;
    send_all(peer.fd(), encode_frame(sh, ok.bytes()));
  });

  std::vector<std::chrono::nanoseconds> sleeps;
  ClientConfig cfg = client_config(listener.endpoint());
  cfg.retry.base_delay = std::chrono::microseconds(1);  // hint must dominate
  cfg.sleep_fn = [&sleeps](std::chrono::nanoseconds d) {
    sleeps.push_back(d);  // record instead of sleeping: deterministic
  };
  ServiceClient client(cfg);

  service::CompressJob job;
  job.fields.push_back({"f", {1.f, 2.f, 3.f, 4.f}, sz::Dims::d1(4)});
  const auto result = client.compress_retrying(job);
  EXPECT_EQ(result.archive, canned_archive);

  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_GE(sleeps[0].count(), static_cast<std::int64_t>(kHintNs));
  EXPECT_EQ(client.stats().retry_after_waits, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  script.join();
}

TEST(ServiceWire, ReconnectAfterServerRestartConverges) {
  const std::string path =
      "/tmp/ohd_net_rc_" + std::to_string(::getpid()) + ".sock";
  ServerConfig scfg;
  scfg.listen.push_back(Endpoint::unix_socket(path));

  service::CompressionService svc(small_service_config());
  auto server = std::make_unique<ServiceServer>(svc, scfg);
  ServiceClient client(client_config(Endpoint::unix_socket(path)));
  EXPECT_FALSE(client.submit_compress(two_field_job(8)).get().archive.empty());

  server->shutdown();
  server.reset();
  // The demux reader observes the close and fails fast from then on.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (client.connected() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_FALSE(client.connected());
  EXPECT_THROW(client.submit_compress(two_field_job(8)), ConnectionLost);

  server = std::make_unique<ServiceServer>(svc, scfg);
  // compress_retrying reconnects on its own; no manual reconnect() needed.
  EXPECT_FALSE(client.compress_retrying(two_field_job(8)).archive.empty());
  EXPECT_EQ(client.stats().reconnects, 1u);
}

TEST(ServiceWire, ServerShutdownDrainsInFlightResponses) {
  service::CompressionService svc(small_service_config());
  auto server = std::make_unique<ServiceServer>(svc, ServerConfig{});
  ServiceClient client(client_config(server->endpoints()[0]));

  auto sub = client.submit_compress(two_field_job(11));
  // Wait until the request is admitted server-side, then drain: the future
  // must settle with the RESULT (drained, not cancelled) — shutdown flushes
  // in-flight responses before closing.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (svc.stats().accepted < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(svc.stats().accepted, 1u);
  server->shutdown();
  EXPECT_FALSE(sub.get().archive.empty());
  server.reset();
}

// ---- callback-form submits -------------------------------------------------

/// Records a client settle callback: how often it ran, on which thread, and
/// how the request settled. The outcome is named on the settling thread, so
/// no exception object crosses to the test thread.
template <typename T>
class SettleRecorder {
 public:
  service::OnSettle<T> callback() {
    return [this](service::Settled<T> outcome) {
      std::string kind = "value";
      T value{};
      if (T* v = std::get_if<T>(&outcome)) {
        value = std::move(*v);
      } else {
        try {
          std::rethrow_exception(std::get<std::exception_ptr>(outcome));
        } catch (const ConnectionLost&) {
          kind = "ConnectionLost";
        } catch (const std::exception& e) {
          kind = e.what();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++calls_;
        thread_ = std::this_thread::get_id();
        kind_ = std::move(kind);
        value_ = std::move(value);
      }
      cv_.notify_all();
    };
  }

  /// Waits for the first settle; false after 30 s without one.
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 30s, [this] { return calls_ > 0; });
  }
  int calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }
  std::thread::id thread() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return thread_;
  }
  std::string kind() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return kind_;
  }
  T value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int calls_ = 0;
  std::thread::id thread_;
  std::string kind_;
  T value_{};
};

TEST(ServiceWire, CallbackChunkReadSettlesOnceOnTheDemuxReader) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));
  const auto handle = client.open_archive(
      client.submit_compress(two_field_job(5)).get().archive);

  SettleRecorder<std::vector<float>> probe;
  EXPECT_NE(client.submit_chunk(handle, 0, 1, {}, probe.callback()), 0u);
  ASSERT_TRUE(probe.wait());
  client.ping();  // a later round trip through the same demux reader
  EXPECT_EQ(probe.kind(), "value");
  EXPECT_NE(probe.thread(), std::this_thread::get_id());
  EXPECT_TRUE(identical_floats(probe.value(),
                               client.submit_chunk(handle, 0, 1).get()));
  client.disconnect();
  EXPECT_EQ(probe.calls(), 1);
}

TEST(ServiceWire, CallbackInFlightAtDisconnectSettlesOnceWithConnectionLost) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  ServiceClient client(client_config(server.endpoints()[0]));
  svc.pause();  // keep the request deterministically in flight
  SettleRecorder<service::CompressResult> probe;
  client.submit_compress(two_field_job(13), {}, probe.callback());
  client.disconnect();
  ASSERT_TRUE(probe.wait());
  EXPECT_EQ(probe.kind(), "ConnectionLost");
  EXPECT_EQ(probe.calls(), 1);
  svc.resume();
}

TEST(ServiceWire, ClientDisconnectCancelsItsInFlightRequests) {
  service::CompressionService svc(small_service_config());
  ServiceServer server(svc, {});
  svc.pause();  // keep the request deterministically queued
  {
    ServiceClient client(client_config(server.endpoints()[0]));
    auto sub = client.submit_compress(two_field_job(12));
    client.disconnect();  // the future settles with ConnectionLost
    EXPECT_THROW(sub.future.get(), ConnectionLost);
  }
  // Server side: the orphaned request was cancelled, releasing its slot.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (svc.stats().cancelled != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(svc.stats().cancelled, 1u);
  svc.resume();
}

}  // namespace
}  // namespace ohd::net

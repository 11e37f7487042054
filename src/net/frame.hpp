// Wire frame codec of the network service protocol (docs/wire_protocol.md is
// the byte-level reference). Every message on a connection is one FRAME: a
// fixed 40-byte header — magic, version, frame type, request op, priority,
// request id, relative deadline, payload length, payload CRC-32, header
// CRC-32 — followed by `payload_len` opaque payload bytes. Frames are
// length-prefixed so a reader can consume the header and validate it before
// it reads any payload byte: a malformed, truncated, or oversized frame is
// rejected from the 40 header bytes alone. A header that passes does not
// commit memory for the length it declares: net::recv_frame grows the
// payload buffer with the bytes received, so a peer that declares a large
// payload and stalls pins at most the first 1 MiB step.
//
// Corruption posture: the header CRC covers bytes [0, 36) (everything before
// itself), the payload CRC covers the payload bytes, and CRC-32 detects all
// single-bit errors — so any single-bit flip anywhere in a captured frame is
// rejected, which the frame fuzz suite pins. A header that fails validation
// desynchronizes the byte stream (the reader no longer knows where the next
// frame starts) and MUST close the connection; a payload that fails its CRC
// (PayloadError) or its body-level parse does not (the frame boundary was
// sound), so the peer gets a typed error frame and the connection lives on.
//
// Serialization rides the existing util::ByteWriter/ByteReader contracts:
// body readers are bounds-checked and throw std::invalid_argument on any
// truncation or length overrun, FrameError derives std::invalid_argument, so
// "reject" is one catchable type at every call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/service_types.hpp"
#include "sz/lorenzo.hpp"
#include "util/bytes.hpp"

namespace ohd::net {

/// Malformed wire data: bad magic/version/type, field constraint violations,
/// CRC mismatches, truncated or oversized frames, trailing payload garbage.
class FrameError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A remote failure with no local exception type: the server hit an archive/
/// format error, rejected a malformed body, or failed internally. Carries the
/// pinned wire code so callers can still dispatch on it.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(std::uint16_t code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  std::uint16_t code() const { return code_; }

 private:
  std::uint16_t code_ = 0;
};

/// The client lost (or could not establish) its connection; pending futures
/// settle with this, and the reconnect/retry loop treats it as retryable.
class ConnectionLost : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kFrameMagic[4] = {'O', 'H', 'D', 'N'};
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 40;
/// Default per-frame payload ceiling (1 GiB); both ends reject frames whose
/// header declares more before reading any payload byte.
inline constexpr std::uint64_t kDefaultMaxPayload = std::uint64_t{1} << 30;

/// What a frame is. Request carries an op + body, Response echoes the
/// request's id and op, Error settles a request (or id 0: a connection-level
/// reject), Cancel names an in-flight request id, Ping/Pong are liveness.
enum class FrameType : std::uint8_t {
  Request = 0,
  Response = 1,
  Error = 2,
  Cancel = 3,
  Ping = 4,
  Pong = 5,
};
inline constexpr std::uint8_t kMaxFrameType = 5;

/// The request verbs, one service front-end entry point each.
enum class RequestOp : std::uint8_t {
  OpenClient = 0,    // negotiate per-session ClientOptions -> server client
  CloseClient = 1,
  OpenArchive = 2,   // upload an archive image -> handle
  CloseArchive = 3,
  Compress = 4,
  Decompress = 5,
  Chunk = 6,
  Range = 7,
};
inline constexpr std::uint8_t kMaxRequestOp = 7;

/// Pinned wire error codes (docs/wire_protocol.md owns the table; renumbering
/// is a protocol version bump). 1-6 map 1:1 onto the service error taxonomy;
/// 7-9 are wire/server-side conditions with no dedicated local type.
enum class WireErrorCode : std::uint16_t {
  Busy = 1,              // service::ServiceBusy (incl. quota rejections)
  Overloaded = 2,        // service::ServiceOverloaded (+ retry_after_ns)
  Stopped = 3,           // service::ServiceStopped
  Cancelled = 4,         // service::RequestCancelled
  DeadlineExceeded = 5,  // service::DeadlineExceeded
  Client = 6,            // service::ClientError
  BadRequest = 7,        // well-framed but malformed request body
  Archive = 8,           // archive/format error while executing (ArchiveError,
                         // ContainerError, and kin)
  Internal = 9,          // anything else the server caught
};

/// The decoded fixed header. `op`/`priority`/`deadline_ns` are meaningful on
/// Request frames (Response echoes `op`; everything else pins them to 0) —
/// the parser enforces exactly that, so a decoded header is always
/// internally consistent.
struct FrameHeader {
  FrameType type = FrameType::Ping;
  RequestOp op = RequestOp::OpenClient;
  service::Priority priority = service::Priority::Batch;
  std::uint64_t request_id = 0;
  /// RELATIVE completion budget in ns (0 = none): absolute steady-clock
  /// deadlines do not transfer between processes, so the wire carries the
  /// budget and the server anchors it when it decodes the frame.
  std::uint64_t deadline_ns = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// A payload that fails its length or CRC check behind a sound header. The
/// frame boundary held, so the stream is still in sync: a server answers on
/// the header's request id and keeps the connection.
class PayloadError : public FrameError {
 public:
  PayloadError(const FrameHeader& header, const std::string& what)
      : FrameError(what), header_(header) {}
  const FrameHeader& header() const { return header_; }

 private:
  FrameHeader header_;
};

/// Serializes header + payload into one contiguous frame image. Computes
/// both CRCs; `header.payload_len`/`payload_crc` inputs are ignored.
std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       std::span<const std::uint8_t> payload);

/// Strict header parse over exactly the first kFrameHeaderBytes of `bytes`.
/// Validation order (each failure a distinct FrameError): size, magic,
/// header CRC, version, frame type, op/priority/deadline/request-id
/// constraints per type, payload_len <= max_payload. Never allocates.
FrameHeader parse_frame_header(std::span<const std::uint8_t> bytes,
                               std::uint64_t max_payload = kDefaultMaxPayload);

/// Payload gate: length must equal the header's payload_len and the CRC must
/// match. Throws PayloadError.
void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload);

/// Whole-buffer convenience (tests, fuzzing): parses one complete frame and
/// rejects trailing bytes.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};
Frame parse_frame(std::span<const std::uint8_t> bytes,
                  std::uint64_t max_payload = kDefaultMaxPayload);

// ---- request/response payload bodies ---------------------------------
//
// Each body has a writer (into a util::ByteWriter) and a strict reader (from
// a util::ByteReader) that throws FrameError/std::invalid_argument on any
// malformed content. Frame-level readers call the body reader and then
// require the payload to be EXHAUSTED — trailing garbage is a reject.

/// OpenClient: the wire-negotiable subset of service::ClientOptions. The
/// server fills the rest (method, planning) from its defaults, so both ends
/// of a bit-identity check must agree on those defaults.
struct OpenClientBody {
  double rel_error_bound = 1e-3;
  std::uint32_t radius = 512;
  std::uint64_t chunk_elems = std::uint64_t{1} << 16;
};

struct ErrorBody {
  WireErrorCode code = WireErrorCode::Internal;
  std::uint64_t retry_after_ns = 0;  // meaningful for Overloaded
  std::string message;
};

void write_open_client(util::ByteWriter& w, const OpenClientBody& body);
OpenClientBody read_open_client(util::ByteReader& r);

void write_error(util::ByteWriter& w, const ErrorBody& body);
ErrorBody read_error(util::ByteReader& r);

void write_compress_job(util::ByteWriter& w, const service::CompressJob& job);
service::CompressJob read_compress_job(util::ByteReader& r);

/// Decompress response: per-field name + floats (timings stay server-side).
struct DecompressedField {
  std::string name;
  std::vector<float> data;
};
struct DecompressBody {
  std::vector<DecompressedField> fields;
};
void write_decompress_result(util::ByteWriter& w, const DecompressBody& body);
DecompressBody read_decompress_result(util::ByteReader& r);

void write_floats(util::ByteWriter& w, std::span<const float> values);
std::vector<float> read_floats(util::ByteReader& r);

void write_string(util::ByteWriter& w, const std::string& s);
std::string read_string(util::ByteReader& r);

void write_dims(util::ByteWriter& w, const sz::Dims& dims);
sz::Dims read_dims(util::ByteReader& r);

/// Requires `r` fully consumed; throws FrameError on trailing bytes. Every
/// body reader's caller ends with this.
void expect_exhausted(util::ByteReader& r);

// ---- error taxonomy <-> wire codes ------------------------------------

/// Maps a caught exception onto its pinned wire code (server side). Order
/// matters and is pinned by tests: ServiceOverloaded before ServiceBusy
/// (subclass first), the service taxonomy before the generic buckets.
ErrorBody wire_error_from_exception(std::exception_ptr error);

/// Reconstructs the local exception of an error frame (client side): codes
/// 1-6 throw the matching service:: type (Overloaded re-carries
/// retry_after_ns), everything else throws RemoteError with the code.
[[noreturn]] void throw_wire_error(const ErrorBody& body);

}  // namespace ohd::net

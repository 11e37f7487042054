#include "net/frame.hpp"

#include <cstring>
#include <limits>

#include "util/checksum.hpp"

namespace ohd::net {

namespace {

/// Caps on body-level variable-length fields. Bodies are already bounded by
/// the frame payload ceiling; these keep absurd counts from round-tripping
/// through size arithmetic before the ByteReader's remaining() check fires.
constexpr std::uint64_t kMaxStringBytes = std::uint64_t{1} << 20;
constexpr std::uint32_t kMaxFields = 1u << 16;

[[noreturn]] void reject(const std::string& what) {
  throw FrameError("frame: " + what);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       std::span<const std::uint8_t> payload) {
  // Pin the fields the parser requires to be 0 outside their frame type, so
  // encode_frame(h, p) with any default-constructed leftovers always yields
  // a frame the strict parser accepts.
  const bool is_request = header.type == FrameType::Request;
  const bool has_op = is_request || header.type == FrameType::Response;
  util::ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.magic(kFrameMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(header.type));
  w.u8(has_op ? static_cast<std::uint8_t>(header.op) : 0);
  w.u8(is_request ? static_cast<std::uint8_t>(header.priority) : 0);
  w.u64(header.request_id);
  w.u64(is_request ? header.deadline_ns : 0);
  w.u64(payload.size());
  w.u32(util::crc32(payload));
  w.u32(util::crc32(w.bytes()));  // header CRC over bytes [0, 36)
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader parse_frame_header(std::span<const std::uint8_t> bytes,
                               std::uint64_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    reject("truncated header (" + std::to_string(bytes.size()) + " of " +
           std::to_string(kFrameHeaderBytes) + " bytes)");
  }
  const std::span<const std::uint8_t> head = bytes.first(kFrameHeaderBytes);
  if (std::memcmp(head.data(), kFrameMagic, 4) != 0) {
    reject("bad magic");
  }
  util::ByteReader r(head.subspan(4));
  const std::uint8_t version = r.u8();
  const std::uint8_t type_raw = r.u8();
  const std::uint8_t op_raw = r.u8();
  const std::uint8_t priority_raw = r.u8();
  FrameHeader h;
  h.request_id = r.u64();
  h.deadline_ns = r.u64();
  h.payload_len = r.u64();
  h.payload_crc = r.u32();
  const std::uint32_t header_crc = r.u32();
  // CRC before interpreting the fields: a flipped bit anywhere in [0, 36)
  // must be "corrupt header", not a misleading semantic error.
  if (header_crc != util::crc32(head.first(kFrameHeaderBytes - 4))) {
    reject("header CRC mismatch");
  }
  if (version != kWireVersion) {
    reject("unsupported version " + std::to_string(version));
  }
  if (type_raw > kMaxFrameType) {
    reject("unknown frame type " + std::to_string(type_raw));
  }
  h.type = static_cast<FrameType>(type_raw);
  const bool is_request = h.type == FrameType::Request;
  const bool has_op = is_request || h.type == FrameType::Response;
  if (has_op) {
    if (op_raw > kMaxRequestOp) {
      reject("unknown request op " + std::to_string(op_raw));
    }
  } else if (op_raw != 0) {
    reject("nonzero op on a non-request frame");
  }
  h.op = static_cast<RequestOp>(op_raw);
  if (is_request) {
    if (priority_raw >= service::kPriorityClasses) {
      reject("unknown priority " + std::to_string(priority_raw));
    }
  } else if (priority_raw != 0) {
    reject("nonzero priority on a non-request frame");
  }
  h.priority = static_cast<service::Priority>(priority_raw);
  if (!is_request && h.deadline_ns != 0) {
    reject("nonzero deadline on a non-request frame");
  }
  const bool needs_id = is_request || h.type == FrameType::Response ||
                        h.type == FrameType::Cancel;
  if (needs_id && h.request_id == 0) {
    reject("request id 0 on a " +
           std::to_string(static_cast<unsigned>(type_raw)) + " frame");
  }
  const bool bodyless = h.type == FrameType::Cancel ||
                        h.type == FrameType::Ping ||
                        h.type == FrameType::Pong;
  if (bodyless && h.payload_len != 0) {
    reject("payload on a bodyless frame type");
  }
  if (h.payload_len > max_payload) {
    reject("payload length " + std::to_string(h.payload_len) +
           " exceeds the " + std::to_string(max_payload) + "-byte ceiling");
  }
  return h;
}

void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    throw PayloadError(header, "frame: payload size " +
                                   std::to_string(payload.size()) +
                                   " does not match header length " +
                                   std::to_string(header.payload_len));
  }
  if (util::crc32(payload) != header.payload_crc) {
    throw PayloadError(header, "frame: payload CRC mismatch");
  }
}

Frame parse_frame(std::span<const std::uint8_t> bytes,
                  std::uint64_t max_payload) {
  Frame f;
  f.header = parse_frame_header(bytes, max_payload);
  const std::span<const std::uint8_t> rest = bytes.subspan(kFrameHeaderBytes);
  if (rest.size() != f.header.payload_len) {
    reject("frame is " + std::to_string(rest.size()) +
           " payload bytes, header declares " +
           std::to_string(f.header.payload_len));
  }
  verify_payload(f.header, rest);
  f.payload.assign(rest.begin(), rest.end());
  return f;
}

// ---- body helpers ------------------------------------------------------

void write_string(util::ByteWriter& w, const std::string& s) {
  w.u64(s.size());
  for (const char c : s) w.u8(static_cast<std::uint8_t>(c));
}

std::string read_string(util::ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n > kMaxStringBytes || n > r.remaining()) {
    reject("string length " + std::to_string(n) + " out of bounds");
  }
  std::string s(n, '\0');
  for (std::uint64_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(r.u8());
  }
  return s;
}

void write_dims(util::ByteWriter& w, const sz::Dims& dims) {
  w.u8(static_cast<std::uint8_t>(dims.rank));
  for (const std::size_t e : dims.extent) w.u64(e);
}

sz::Dims read_dims(util::ByteReader& r) {
  sz::Dims dims;
  dims.rank = r.u8();
  if (dims.rank < 1 || dims.rank > 3) {
    reject("dims rank " + std::to_string(dims.rank) + " out of range");
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint64_t e = r.u64();
    if (e == 0 ||
        e > static_cast<std::uint64_t>(std::numeric_limits<std::size_t>::max())) {
      reject("dims extent out of range");
    }
    dims.extent[i] = static_cast<std::size_t>(e);
  }
  if (dims.count_overflows()) {
    reject("dims extent product overflows");
  }
  return dims;
}

void write_floats(util::ByteWriter& w, std::span<const float> values) {
  w.array<float>(values);
}

std::vector<float> read_floats(util::ByteReader& r) {
  return r.array<float>();
}

void write_open_client(util::ByteWriter& w, const OpenClientBody& body) {
  w.f64(body.rel_error_bound);
  w.u32(body.radius);
  w.u64(body.chunk_elems);
}

OpenClientBody read_open_client(util::ByteReader& r) {
  OpenClientBody body;
  body.rel_error_bound = r.f64();
  body.radius = r.u32();
  body.chunk_elems = r.u64();
  if (!(body.rel_error_bound > 0.0) || body.rel_error_bound > 1.0) {
    reject("open_client rel_error_bound out of (0, 1]");
  }
  if (body.radius == 0) reject("open_client radius 0");
  if (body.chunk_elems == 0) reject("open_client chunk_elems 0");
  return body;
}

void write_error(util::ByteWriter& w, const ErrorBody& body) {
  w.u16(static_cast<std::uint16_t>(body.code));
  w.u64(body.retry_after_ns);
  write_string(w, body.message);
}

ErrorBody read_error(util::ByteReader& r) {
  ErrorBody body;
  const std::uint16_t code = r.u16();
  if (code < static_cast<std::uint16_t>(WireErrorCode::Busy) ||
      code > static_cast<std::uint16_t>(WireErrorCode::Internal)) {
    reject("unknown wire error code " + std::to_string(code));
  }
  body.code = static_cast<WireErrorCode>(code);
  body.retry_after_ns = r.u64();
  body.message = read_string(r);
  return body;
}

void write_compress_job(util::ByteWriter& w, const service::CompressJob& job) {
  w.u32(static_cast<std::uint32_t>(job.fields.size()));
  for (const service::CompressField& f : job.fields) {
    write_string(w, f.name);
    write_dims(w, f.dims);
    write_floats(w, f.data);
  }
}

service::CompressJob read_compress_job(util::ByteReader& r) {
  const std::uint32_t count = r.u32();
  if (count == 0 || count > kMaxFields) {
    reject("compress field count " + std::to_string(count) + " out of range");
  }
  service::CompressJob job;
  job.fields.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    service::CompressField f;
    f.name = read_string(r);
    f.dims = read_dims(r);
    f.data = read_floats(r);
    if (f.data.size() != f.dims.count()) {
      reject("compress field '" + f.name + "' carries " +
             std::to_string(f.data.size()) + " floats for dims count " +
             std::to_string(f.dims.count()));
    }
    job.fields.push_back(std::move(f));
  }
  return job;
}

void write_decompress_result(util::ByteWriter& w, const DecompressBody& body) {
  w.u32(static_cast<std::uint32_t>(body.fields.size()));
  for (const DecompressedField& f : body.fields) {
    write_string(w, f.name);
    write_floats(w, f.data);
  }
}

DecompressBody read_decompress_result(util::ByteReader& r) {
  const std::uint32_t count = r.u32();
  if (count > kMaxFields) {
    reject("decompress field count " + std::to_string(count) +
           " out of range");
  }
  DecompressBody body;
  body.fields.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DecompressedField f;
    f.name = read_string(r);
    f.data = read_floats(r);
    body.fields.push_back(std::move(f));
  }
  return body;
}

void expect_exhausted(util::ByteReader& r) {
  if (!r.exhausted()) {
    reject(std::to_string(r.remaining()) + " trailing payload bytes");
  }
}

// ---- error taxonomy <-> wire codes ------------------------------------

ErrorBody wire_error_from_exception(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const service::ServiceOverloaded& e) {  // before ServiceBusy
    return {WireErrorCode::Overloaded, e.retry_after_ns(), e.what()};
  } catch (const service::ServiceBusy& e) {
    return {WireErrorCode::Busy, 0, e.what()};
  } catch (const service::ServiceStopped& e) {
    return {WireErrorCode::Stopped, 0, e.what()};
  } catch (const service::RequestCancelled& e) {
    return {WireErrorCode::Cancelled, 0, e.what()};
  } catch (const service::DeadlineExceeded& e) {
    return {WireErrorCode::DeadlineExceeded, 0, e.what()};
  } catch (const service::ClientError& e) {
    return {WireErrorCode::Client, 0, e.what()};
  } catch (const FrameError& e) {
    return {WireErrorCode::BadRequest, 0, e.what()};
  } catch (const std::invalid_argument& e) {
    // ArchiveError, ContainerError, and every format/bounds reject in the
    // pipeline derive std::invalid_argument: bad DATA, not a bad service.
    return {WireErrorCode::Archive, 0, e.what()};
  } catch (const std::exception& e) {
    return {WireErrorCode::Internal, 0, e.what()};
  } catch (...) {
    return {WireErrorCode::Internal, 0, "unknown server-side failure"};
  }
}

void throw_wire_error(const ErrorBody& body) {
  switch (body.code) {
    case WireErrorCode::Busy:
      throw service::ServiceBusy(body.message);
    case WireErrorCode::Overloaded:
      throw service::ServiceOverloaded(body.message, body.retry_after_ns);
    case WireErrorCode::Stopped:
      throw service::ServiceStopped(body.message);
    case WireErrorCode::Cancelled:
      throw service::RequestCancelled(body.message);
    case WireErrorCode::DeadlineExceeded:
      throw service::DeadlineExceeded(body.message);
    case WireErrorCode::Client:
      throw service::ClientError(body.message);
    case WireErrorCode::BadRequest:
    case WireErrorCode::Archive:
    case WireErrorCode::Internal:
      break;
  }
  throw RemoteError(static_cast<std::uint16_t>(body.code), body.message);
}

}  // namespace ohd::net

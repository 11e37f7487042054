#include "pipeline/wire_format.hpp"

#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "sz/serialize.hpp"
#include "util/checksum.hpp"

namespace ohd::pipeline::wire {

namespace {

core::Method parse_method_tag(std::uint8_t tag) {
  const auto method = static_cast<core::Method>(tag);
  switch (method) {
    case core::Method::CuszNaive:
    case core::Method::SelfSyncOriginal:
    case core::Method::SelfSyncOptimized:
    case core::Method::GapArrayOriginal8Bit:
    case core::Method::GapArrayOptimized:
      return method;
  }
  throw ContainerError("unknown method tag in container");
}

CodebookRef parse_codebook_ref(std::uint8_t tag) {
  switch (static_cast<CodebookRef>(tag)) {
    case CodebookRef::Private:
    case CodebookRef::SharedField:
      return static_cast<CodebookRef>(tag);
  }
  throw ContainerError("unknown codebook-ref tag in container");
}

void write_dims(util::ByteWriter& w, const sz::Dims& dims) {
  w.u32(dims.rank);
  for (std::size_t e : dims.extent) w.u64(e);
}

sz::Dims read_dims(util::ByteReader& r) {
  sz::Dims dims;
  dims.rank = r.u32();
  if (dims.rank < 1 || dims.rank > 3) {
    throw ContainerError("implausible rank in container");
  }
  for (std::size_t i = 0; i < dims.extent.size(); ++i) {
    dims.extent[i] = r.u64();
    if (dims.extent[i] == 0 || (i >= dims.rank && dims.extent[i] != 1)) {
      throw ContainerError("implausible extent in container");
    }
  }
  if (dims.count_overflows()) {
    throw ContainerError("extent product overflows in container");
  }
  return dims;
}

/// Serialized size of the field-header record (the write_field_header
/// bytes). The arithmetic (instead of serializing just to measure) keeps
/// ArchiveWriter::finish() allocation-free; drift against the real encoder is
/// pinned by ArchiveIO.SerializedSizeIsExact.
std::uint64_t field_header_record_bytes(const FieldEntry& f) {
  std::uint64_t n = 8 + f.name.size();  // name record
  n += 4 + 24;                          // rank + extent[3]
  n += 8 + 4 + 1;                       // error bound, radius, method tag
  n += 8;                               // shared-codebook length prefix
  if (f.shared_codebook != nullptr) {
    // Codebook::serialize() is a u32 alphabet count plus one length byte
    // per symbol.
    n += 4 + f.shared_codebook->alphabet_size() + 4;  // bytes + CRC
  }
  return n;
}

}  // namespace

void write_archive_header(util::ByteWriter& w, std::uint8_t flags) {
  w.magic(kMagic);
  w.u8(kContainerVersion);
  w.u8(flags);
  w.u16(0);  // reserved
}

std::uint8_t read_archive_header(std::span<const std::uint8_t> head) {
  if (head.size() < kHeaderBytes || std::memcmp(head.data(), kMagic, 4) != 0) {
    throw ContainerError("bad magic, expected OHDC");
  }
  if (head[4] != kContainerVersion) {
    throw ContainerError("unsupported container version");
  }
  if (head[6] != 0 || head[7] != 0) {
    throw ContainerError("nonzero reserved container bytes");
  }
  if ((head[5] & ~kKnownFlags) != 0) {
    throw ContainerError("unknown archive header flags");
  }
  return head[5];
}

std::uint64_t field_entry_bytes(const FieldEntry& f) {
  return field_header_record_bytes(f) + 8 /*chunk count*/ +
         f.chunks.size() * kChunkRecordBytes;
}

void write_field_header(util::ByteWriter& w, const FieldEntry& f) {
  w.u64(f.name.size());
  for (char ch : f.name) w.u8(static_cast<std::uint8_t>(ch));
  write_dims(w, f.dims);
  w.f64(f.abs_error_bound);
  w.u32(f.radius);
  w.u8(static_cast<std::uint8_t>(f.method));
  if (f.shared_codebook != nullptr) {
    const auto cb_bytes = f.shared_codebook->serialize();
    w.bytes(cb_bytes);
    w.u32(util::crc32(cb_bytes));
  } else {
    w.u64(0);  // no shared codebook
  }
}

void write_field_entry(util::ByteWriter& w, const FieldEntry& f) {
  write_field_header(w, f);
  w.u64(f.chunks.size());
  for (const ChunkRecord& rec : f.chunks) {
    w.u64(rec.payload_offset);
    w.u64(rec.payload_bytes);
    w.u64(rec.elem_offset);
    write_dims(w, rec.dims);
    w.u8(static_cast<std::uint8_t>(rec.method));
    w.u8(static_cast<std::uint8_t>(rec.codebook_ref));
    w.u32(rec.crc32);
  }
}

FieldEntry read_field_header(util::ByteReader& r) {
  FieldEntry f;
  const std::uint64_t name_len = r.u64();
  if (name_len > r.remaining()) {
    throw ContainerError("field name exceeds blob size");
  }
  f.name.reserve(name_len);
  for (std::uint64_t i = 0; i < name_len; ++i) {
    f.name.push_back(static_cast<char>(r.u8()));
  }
  f.dims = read_dims(r);
  f.abs_error_bound = r.f64();
  if (!(f.abs_error_bound > 0.0)) {
    throw ContainerError("non-positive error bound in container");
  }
  f.radius = r.u32();
  if (f.radius == 0) {
    throw ContainerError("zero quantizer radius in container");
  }
  f.method = parse_method_tag(r.u8());
  std::vector<std::uint8_t> cb_bytes;
  try {
    cb_bytes = r.array<std::uint8_t>();
  } catch (const std::invalid_argument& e) {
    throw ContainerError(e.what());
  }
  if (!cb_bytes.empty()) {
    if (util::crc32(cb_bytes) != r.u32()) {
      throw ContainerError("field '" + f.name +
                           "': shared codebook CRC-32 mismatch");
    }
    try {
      f.shared_codebook = std::make_shared<const huffman::Codebook>(
          huffman::Codebook::deserialize(cb_bytes));
    } catch (const std::invalid_argument& e) {
      throw ContainerError("field '" + f.name +
                           "': invalid shared codebook: " + e.what());
    }
  }
  return f;
}

FieldEntry read_field_entry(util::ByteReader& r) {
  FieldEntry f = read_field_header(r);
  const std::uint64_t chunk_count = r.u64();
  if (chunk_count == 0) {
    throw ContainerError("field has no chunks");
  }
  if (chunk_count > r.remaining() / kChunkRecordBytes) {
    throw ContainerError("chunk count exceeds blob size");
  }
  f.chunks.reserve(chunk_count);
  std::uint64_t next_elem = 0;
  for (std::uint64_t ci = 0; ci < chunk_count; ++ci) {
    ChunkRecord rec;
    rec.payload_offset = r.u64();
    rec.payload_bytes = r.u64();
    rec.elem_offset = r.u64();
    rec.dims = read_dims(r);
    rec.method = parse_method_tag(r.u8());
    rec.codebook_ref = parse_codebook_ref(r.u8());
    if (rec.codebook_ref == CodebookRef::SharedField &&
        f.shared_codebook == nullptr) {
      throw ContainerError(
          "field '" + f.name +
          "': chunk references a shared codebook the field does not carry");
    }
    rec.crc32 = r.u32();
    if (rec.payload_bytes == 0) {
      throw ContainerError("empty chunk frame in container index");
    }
    // Every element carries a Huffman code of at least one bit, so no frame
    // the writer produces holds more than 8 elements per byte. Readers size
    // output buffers from the count, so a resealed index must not inflate it
    // past what the frame's bytes can back.
    if (rec.payload_bytes <= std::numeric_limits<std::uint64_t>::max() / 8 &&
        rec.dims.count() > 8 * rec.payload_bytes) {
      throw ContainerError("field '" + f.name + "' chunk " +
                           std::to_string(ci) + " declares " +
                           std::to_string(rec.dims.count()) +
                           " elements, more than its " +
                           std::to_string(rec.payload_bytes) +
                           "-byte frame can hold");
    }
    if (rec.elem_offset != next_elem) {
      throw ContainerError("chunk element offsets are not contiguous");
    }
    // Guard the accumulation itself: per-chunk products are overflow-
    // checked, but their SUM could still wrap back onto the field count.
    if (rec.dims.count() > f.dims.count() - next_elem) {
      throw ContainerError("chunks do not cover the field");
    }
    next_elem += rec.dims.count();
    f.chunks.push_back(rec);
  }
  if (next_elem != f.dims.count()) {
    throw ContainerError("chunks do not cover the field");
  }
  return f;
}

sz::CompressedBlob parse_chunk_frame(const FieldEntry& field, std::size_t chunk,
                                     std::span<const std::uint8_t> frame) {
  static obs::Counter& crc_checks = obs::registry().counter("reader.crc_checks");
  crc_checks.add(1);
  const ChunkRecord& rec = field.chunks[chunk];
  if (util::crc32(frame) != rec.crc32) {
    throw ContainerError("field '" + field.name + "' chunk " +
                         std::to_string(chunk) +
                         ": CRC-32 mismatch (corrupted frame)");
  }
  const huffman::Codebook* shared =
      rec.codebook_ref == CodebookRef::SharedField ? field.shared_codebook.get()
                                                   : nullptr;
  sz::CompressedBlob blob = sz::deserialize_blob(frame, shared);
  if (blob.dims.count() != rec.dims.count()) {
    throw ContainerError("field '" + field.name + "' chunk " +
                         std::to_string(chunk) +
                         ": frame geometry disagrees with the index");
  }
  return blob;
}

void write_chunk_preamble(util::ByteWriter& w, const ChunkPreamble& p) {
  const std::size_t start = w.size();
  w.magic(kChunkPreambleMagic);
  w.u32(p.field_ordinal);
  w.u32(p.chunk_ordinal);
  w.u64(p.elem_offset);
  write_dims(w, p.dims);
  w.u8(static_cast<std::uint8_t>(p.method));
  w.u8(static_cast<std::uint8_t>(p.codebook_ref));
  w.u64(p.frame_bytes);
  w.u32(p.frame_crc32);
  // Self-checksum over everything after the magic, so a scan never trusts a
  // record that is itself damaged.
  w.u32(util::crc32(w.bytes().subspan(start + 4)));
}

bool try_parse_chunk_preamble(std::span<const std::uint8_t> bytes,
                              ChunkPreamble& out) {
  if (bytes.size() < kChunkPreambleBytes) return false;
  if (std::memcmp(bytes.data(), kChunkPreambleMagic, 4) != 0) return false;
  const std::size_t body = kChunkPreambleBytes - 4 - 4;  // sans magic, CRC
  util::ByteReader crc_r(bytes.subspan(4 + body, 4));
  if (util::crc32(bytes.subspan(4, body)) != crc_r.u32()) return false;
  try {
    util::ByteReader r(bytes.subspan(4, body));
    ChunkPreamble p;
    p.field_ordinal = r.u32();
    p.chunk_ordinal = r.u32();
    p.elem_offset = r.u64();
    p.dims = read_dims(r);
    p.method = parse_method_tag(r.u8());
    p.codebook_ref = parse_codebook_ref(r.u8());
    p.frame_bytes = r.u64();
    p.frame_crc32 = r.u32();
    if (p.frame_bytes == 0) return false;
    out = p;
    return true;
  } catch (const std::invalid_argument&) {
    // A CRC-valid record with implausible contents is not a preamble we can
    // use; the scan resumes after it.
    return false;
  }
}

void write_field_preamble(util::ByteWriter& w, const FieldPreamble& p) {
  util::ByteWriter record;
  write_field_header(record, p.header);
  const std::size_t start = w.size();
  w.magic(kFieldPreambleMagic);
  w.u32(p.field_ordinal);
  w.u32(static_cast<std::uint32_t>(record.size()));
  for (std::uint8_t b : record.bytes()) w.u8(b);
  w.u32(util::crc32(w.bytes().subspan(start + 4)));
}

std::uint64_t field_preamble_bytes(const FieldEntry& f) {
  return 4 + 4 + 4 + field_header_record_bytes(f) + 4;
}

bool try_parse_field_preamble(std::span<const std::uint8_t> bytes,
                              FieldPreamble& out, std::uint64_t& consumed) {
  if (bytes.size() < 16) return false;
  if (std::memcmp(bytes.data(), kFieldPreambleMagic, 4) != 0) return false;
  util::ByteReader head(bytes.subspan(4, 8));
  const std::uint32_t ordinal = head.u32();
  const std::uint32_t record_len = head.u32();
  if (record_len > kMaxFieldPreambleRecordBytes) return false;
  const std::uint64_t total = 4ull + 4 + 4 + record_len + 4;
  if (total > bytes.size()) return false;
  util::ByteReader crc_r(bytes.subspan(total - 4, 4));
  if (util::crc32(bytes.subspan(4, 8 + record_len)) != crc_r.u32()) {
    return false;
  }
  try {
    util::ByteReader r(bytes.subspan(12, record_len));
    FieldPreamble p;
    p.field_ordinal = ordinal;
    p.header = read_field_header(r);
    if (!r.exhausted()) return false;
    out = std::move(p);
    consumed = total;
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

void write_footer(util::ByteWriter& w, const Footer& footer) {
  w.u64(footer.index_offset);
  w.u64(footer.index_bytes);
  w.u32(footer.index_crc32);
  w.u32(footer.field_count);
  w.u64(footer.payload_bytes);
  w.u8(kContainerVersion);
  w.u8(0);   // reserved
  w.u8(0);
  w.u8(0);
  w.magic(kFooterMagic);
}

Footer read_footer(std::span<const std::uint8_t> tail,
                   std::uint64_t archive_bytes) {
  if (tail.size() != kFooterBytes) {
    throw ContainerError("truncated archive footer");
  }
  util::ByteReader r(tail);
  Footer footer;
  footer.index_offset = r.u64();
  footer.index_bytes = r.u64();
  footer.index_crc32 = r.u32();
  footer.field_count = r.u32();
  footer.payload_bytes = r.u64();
  if (r.u8() != kContainerVersion) {
    throw ContainerError("archive footer version mismatch");
  }
  if (r.u8() != 0 || r.u8() != 0 || r.u8() != 0) {
    throw ContainerError("nonzero reserved bytes in archive footer");
  }
  try {
    r.expect_magic(kFooterMagic);
  } catch (const std::invalid_argument& e) {
    throw ContainerError(e.what());
  }
  if (footer.field_count > kMaxFieldCount) {
    throw ContainerError("implausible field count");
  }
  // Overflow-safe consistency: payload, index, and footer must tile the
  // archive exactly. Each field is bounded BEFORE entering a sum, so a
  // crafted footer cannot wrap u64 arithmetic into fake consistency (and
  // then drive out-of-bounds subspans in the in-memory parse path).
  const std::uint64_t non_payload = kHeaderBytes + kFooterBytes;
  if (archive_bytes < non_payload ||
      footer.payload_bytes > archive_bytes - non_payload ||
      footer.index_offset != kHeaderBytes + footer.payload_bytes ||
      footer.index_bytes !=
          archive_bytes - kFooterBytes - footer.index_offset) {
    throw ContainerError("archive footer disagrees with the archive size");
  }
  return footer;
}

std::vector<FieldEntry> read_index(std::span<const std::uint8_t> index,
                                   std::uint32_t field_count,
                                   std::uint32_t crc32,
                                   std::uint64_t payload_bytes) {
  if (util::crc32(index) != crc32) {
    throw ContainerError("archive index CRC-32 mismatch (corrupted index)");
  }
  util::ByteReader r(index);
  if (r.u32() != field_count) {
    throw ContainerError("archive index disagrees with the footer");
  }
  std::vector<FieldEntry> fields;
  fields.reserve(field_count);
  std::unordered_set<std::string> seen_names;
  for (std::uint32_t fi = 0; fi < field_count; ++fi) {
    FieldEntry f = read_field_entry(r);
    if (!seen_names.insert(f.name).second) {
      throw ContainerError("duplicate field name '" + f.name +
                           "' in container");
    }
    for (const ChunkRecord& rec : f.chunks) {
      if (rec.payload_bytes > payload_bytes ||
          rec.payload_offset > payload_bytes - rec.payload_bytes) {
        throw ContainerError("chunk frame extends past the payload section");
      }
    }
    fields.push_back(std::move(f));
  }
  if (!r.exhausted()) {
    throw ContainerError("trailing bytes after the archive index");
  }
  return fields;
}

}  // namespace ohd::pipeline::wire

// Wire code of the "OHDC" v3 archive: one writer/parser for the per-field
// index sections, the footer, and the recovery preambles. Keeping this in
// one place is what stops the streaming ArchiveWriter/ArchiveReader sessions
// (pipeline/archive_io.hpp) and the salvage scanner (pipeline/recovery.hpp)
// from drifting apart — they serialize and validate the exact same
// field/chunk records.
//
// Byte layout (all integers little-endian):
//
//   offset        size  field
//   0             4     magic "OHDC"
//   4             1     version (= 3)
//   5             1     flags (= 0, reserved)
//   6             2     reserved (= 0)
//   8             n     payload: concatenated chunk frames, appended in
//                       (field, chunk) order as they are produced; chunk
//                       records address it with offsets relative to byte 8
//   8+n           i     index: u32 field count, then one field section per
//                       field (see write_field_entry):
//                         8+n  name (u64 length + bytes)
//                         28   dims (u32 rank + 3 x u64 extent; unused
//                              extents = 1)
//                         8    absolute error bound (f64, > 0)
//                         4    quantizer radius (u32)
//                         1    method tag (u8, core::Method; field default)
//                         8+n  shared codebook (u64 byte length +
//                              Codebook::serialize bytes; length 0 = none)
//                         [4]  CRC-32 of the shared-codebook bytes (present
//                              iff length > 0)
//                         8    chunk count (u64, >= 1)
//                         then kChunkRecordBytes per chunk:
//                           8   payload offset (u64, into the payload)
//                           8   payload length (u64, > 0)
//                           8   element offset (u64, field flat order)
//                           28  dims
//                           1   method tag (u8)
//                           1   codebook ref (u8: 0 = private book in the
//                               frame, 1 = the field's shared codebook; the
//                               frame then omits its codebook bytes)
//                           4   CRC-32 of the frame bytes (u32)
//   8+n+i         40    footer:
//                         u64 index offset (= 8 + n)
//                         u64 index bytes  (= i)
//                         u32 CRC-32 of the index bytes
//                         u32 field count  (= the index's count)
//                         u64 payload bytes (= n)
//                         u8  version (= 3), u8[3] reserved (= 0)
//                         4   magic "OHDF"
//
// The index and footer come LAST so a writer can emit chunk frames the
// moment they exist — nothing before the finish() call depends on knowing
// the archive's eventual shape — while a reader opens footer-first: read the
// trailing 40 bytes, then exactly the index, then individual frames on
// demand. tests/pipeline/archive_io_test.cpp fuzzes this layout.
//
// Recovery preambles (flags bit 0, opt-in via WriterOptions): the deferred
// index is a single point of failure — if the tail of the archive is lost,
// every frame CRC and every byte offset is lost with it, and the payload's
// chunk frames (sz blobs) carry no checksum of their own. With the flag set
// the writer interleaves small self-delimiting records into the payload:
//
//   field preamble (before a field's first frame):
//     4   magic "OHFP"
//     4   u32 field ordinal
//     4   u32 record length L
//     L   field header record: the field-entry bytes up to but excluding the
//         chunk records (name, dims, error bound, radius, method, shared
//         codebook + CRC)
//     4   CRC-32 of the 8 + L bytes after the magic
//
//   chunk preamble (before every frame), fixed kChunkPreambleBytes:
//     4   magic "OHCP"
//     4   u32 field ordinal          4   u32 chunk ordinal
//     8   u64 element offset        28   dims (u32 rank + 3 x u64 extent)
//     1   u8 method tag              1   u8 codebook-ref tag
//     8   u64 frame bytes            4   u32 frame CRC-32
//     4   CRC-32 of the 58 bytes after the magic
//
// Chunk records keep addressing the FRAME (the preamble precedes it), so the
// strict read path never touches preambles — zero happy-path read overhead.
// A salvage scan (pipeline/recovery.hpp) re-synchronizes on the magics, the
// same self-sync idea the paper's decoder uses inside a bitstream, and
// trusts a preamble only after its own CRC passes, then a frame only after
// the frame CRC recorded in that preamble passes.
#pragma once

#include <cstdint>
#include <span>

#include "pipeline/container.hpp"
#include "util/bytes.hpp"

namespace ohd::pipeline::wire {

inline constexpr char kMagic[4] = {'O', 'H', 'D', 'C'};
inline constexpr char kFooterMagic[4] = {'O', 'H', 'D', 'F'};
inline constexpr std::uint64_t kHeaderBytes = 8;
inline constexpr std::uint64_t kFooterBytes = 40;
inline constexpr std::uint32_t kMaxFieldCount = 1u << 20;

/// Header flags bit 0: the payload carries recovery preambles.
inline constexpr std::uint8_t kFlagRecoveryPreambles = 0x01;
inline constexpr std::uint8_t kKnownFlags = kFlagRecoveryPreambles;

inline constexpr char kFieldPreambleMagic[4] = {'O', 'H', 'F', 'P'};
inline constexpr char kChunkPreambleMagic[4] = {'O', 'H', 'C', 'P'};
inline constexpr std::uint64_t kChunkPreambleBytes = 66;
/// Upper bound on a field preamble's header record, so a garbage length
/// field in a damaged archive cannot drive a huge read during salvage.
inline constexpr std::uint32_t kMaxFieldPreambleRecordBytes = 1u << 20;

/// Fixed wire size of one chunk record, used to bound untrusted chunk counts
/// before looping.
inline constexpr std::uint64_t kChunkRecordBytes = 8 + 8 + 8 + 4 + 24 + 1 + 1 + 4;

/// The 8-byte archive head: magic, version, flags, reserved.
void write_archive_header(util::ByteWriter& w, std::uint8_t flags = 0);

/// Validates the kHeaderBytes at the front of `head` (magic, version,
/// reserved bytes, known flag bits) and returns the flags; throws
/// ContainerError naming the first violation.
std::uint8_t read_archive_header(std::span<const std::uint8_t> head);

/// Exact serialized size of one field's index section.
std::uint64_t field_entry_bytes(const FieldEntry& f);

/// One field's index section: name, geometry, error bound, radius, default
/// method, the shared-codebook record (+CRC), chunk count, chunk records.
void write_field_entry(util::ByteWriter& w, const FieldEntry& f);

/// Parses and validates one field's index section: plausible geometry,
/// positive error bound and radius, known method/codebook-ref tags, shared
/// codebook CRC + parse, contiguous chunk coverage. Frame byte ranges are
/// validated by the caller, who knows the payload extent.
FieldEntry read_field_entry(util::ByteReader& r);

/// The field-header prefix of a field entry (everything before the chunk
/// records): name, geometry, error bound, radius, default method, shared
/// codebook. Shared verbatim by the index sections and the field preambles,
/// so a salvaged field parses with the exact same validation as an indexed
/// one.
void write_field_header(util::ByteWriter& w, const FieldEntry& f);

/// Parses a field header; the returned entry has an empty chunk list.
FieldEntry read_field_header(util::ByteReader& r);

/// One chunk's recovery preamble: enough to re-derive its index record (bar
/// the payload offset, which the scanner knows from where it found it).
struct ChunkPreamble {
  std::uint32_t field_ordinal = 0;
  std::uint32_t chunk_ordinal = 0;
  std::uint64_t elem_offset = 0;
  sz::Dims dims;
  core::Method method = core::Method::CuszNaive;
  CodebookRef codebook_ref = CodebookRef::Private;
  std::uint64_t frame_bytes = 0;
  std::uint32_t frame_crc32 = 0;
};

void write_chunk_preamble(util::ByteWriter& w, const ChunkPreamble& p);

/// Validates magic + CRC + record plausibility of the kChunkPreambleBytes at
/// the head of `bytes`; returns false (never throws) on any mismatch so a
/// salvage scan can probe arbitrary offsets.
bool try_parse_chunk_preamble(std::span<const std::uint8_t> bytes,
                              ChunkPreamble& out);

/// A field's recovery preamble: its ordinal plus the full field header.
struct FieldPreamble {
  std::uint32_t field_ordinal = 0;
  FieldEntry header;  // chunk list empty
};

void write_field_preamble(util::ByteWriter& w, const FieldPreamble& p);

/// Exact serialized size of a field preamble (for payload accounting).
std::uint64_t field_preamble_bytes(const FieldEntry& f);

/// Validates the field preamble at the head of `bytes`; on success sets
/// `consumed` to its total serialized size. Returns false (never throws) on
/// any mismatch.
bool try_parse_field_preamble(std::span<const std::uint8_t> bytes,
                              FieldPreamble& out, std::uint64_t& consumed);

/// Checksum + parse + geometry validation of one chunk's frame bytes — the
/// single decode gate of ArchiveReader and the batch scheduler's host chunk
/// reads, so it is where "reader.crc_checks" counts their CRC checks.
sz::CompressedBlob parse_chunk_frame(const FieldEntry& field, std::size_t chunk,
                                     std::span<const std::uint8_t> frame);

struct Footer {
  std::uint64_t index_offset = 0;
  std::uint64_t index_bytes = 0;
  std::uint32_t index_crc32 = 0;
  std::uint32_t field_count = 0;
  std::uint64_t payload_bytes = 0;
};

void write_footer(util::ByteWriter& w, const Footer& footer);

/// Parses the trailing kFooterBytes of a v3 archive and validates its
/// internal consistency against `archive_bytes` (the total archive size).
Footer read_footer(std::span<const std::uint8_t> tail,
                   std::uint64_t archive_bytes);

/// Parses and validates a v3 index section (field count + field entries +
/// per-chunk payload bounds against `payload_bytes`). `crc32` is the
/// footer's index checksum, verified first.
std::vector<FieldEntry> read_index(std::span<const std::uint8_t> index,
                                   std::uint32_t field_count,
                                   std::uint32_t crc32,
                                   std::uint64_t payload_bytes);

}  // namespace ohd::pipeline::wire

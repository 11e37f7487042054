// Streaming archive IO sessions — the public API of the pipeline layer.
//
// ArchiveWriter appends a version-3 "OHDC" archive to any ByteSink as an
// incremental session: open → begin_field(spec) → write_chunk(frame)... →
// end_field() → finish(). Chunk frames hit the sink the moment they exist —
// compression can emit frames as worker futures complete — and only the
// per-chunk index records (a few dozen bytes each) stay resident until
// finish() writes the deferred index and footer. Peak writer memory is
// therefore O(index), never O(archive).
//
// ArchiveReader opens a v3 archive from any ByteSource footer-first: the
// trailing 40-byte footer locates the index, the index is read and validated
// once, and every chunk frame is fetched lazily (one read_at + CRC check per
// access) — decoding never materializes the archive. Reads are thread-safe,
// so the batch scheduler overlaps frame IO with ThreadPool decode.
//
// These two sessions are the only write and read paths of the format: an
// in-memory archive is an ArchiveWriter over a MemorySink, read back through
// an ArchiveReader over a MemorySource (or an OwningMemorySource). Both work
// one chunk at a time; the BatchScheduler fan-outs (batch.hpp) are the only
// code that walks a field's chunks. See
// wire_format.hpp for the byte layout and tests/pipeline/archive_io_test.cpp
// for the round-trip and robustness properties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/container.hpp"
#include "pipeline/recovery.hpp"

namespace ohd::pipeline {

/// Declares one field of a streaming write session before its chunk frames
/// arrive (the session-API analogue of batch.hpp's FieldSpec, which carries
/// the uncompressed floats as well).
struct ArchiveFieldSpec {
  std::string name;
  sz::Dims dims;
  double abs_error_bound = 0.0;
  std::uint32_t radius = 512;
  core::Method method = core::Method::GapArrayOptimized;  // field default
  /// Field-level shared codebook; frames whose ChunkMeta says SharedField
  /// must have been encoded against it and serialized without their book.
  std::shared_ptr<const huffman::Codebook> shared_codebook;
};

struct WriterOptions {
  /// Interleave CRC-guarded recovery preambles into the payload (header
  /// flags bit 0), so a truncated or torn archive can be salvaged without
  /// its deferred index (see pipeline/recovery.hpp). Off by default: the
  /// default output carries no preambles at all, and the strict
  /// read path never touches preambles either way.
  bool recovery_preambles = false;
};

/// Incremental archive write session over a ByteSink. Not thread-safe: one
/// session, one producer (the batch scheduler serializes its deterministic
/// (field, chunk) collect order through it). Abandoning a session without
/// finish() leaves the sink holding a torso no strict reader accepts —
/// pipeline/recovery.hpp's repair_truncated() re-finalizes such torsos when
/// the session wrote recovery preambles.
class ArchiveWriter {
 public:
  /// Writes the 8-byte archive head immediately.
  explicit ArchiveWriter(ByteSink& sink, WriterOptions options = {});

  /// Opens a field. Validates the spec (positive error bound and radius,
  /// unique name) and throws ContainerError on violations.
  void begin_field(const ArchiveFieldSpec& spec);

  /// Appends one chunk frame (sz::serialize_blob bytes for `extent`) to the
  /// open field. Extents must arrive contiguously in flat element order.
  /// The two-argument form records the field's default method with a
  /// private codebook.
  void write_chunk(const ChunkExtent& extent,
                   std::span<const std::uint8_t> frame);
  void write_chunk(const ChunkExtent& extent,
                   std::span<const std::uint8_t> frame, const ChunkMeta& meta);

  /// Replay variant: records `crc32` instead of hashing `frame` — for
  /// producers replaying frames whose checksum is already on record
  /// (repair_truncated). Besides skipping a payload-sized CRC pass, this
  /// keeps in-memory corruption of the replayed bytes detectable downstream
  /// instead of re-stamping a fresh checksum over it.
  void write_chunk(const ChunkExtent& extent,
                   std::span<const std::uint8_t> frame, const ChunkMeta& meta,
                   std::uint32_t crc32);

  /// Closes the open field; throws ContainerError unless its chunks tile the
  /// declared dims exactly.
  void end_field();

  /// Writes the deferred index and footer and COMMITS the sink (fsync for
  /// FileSink, atomic temp-file publish for AtomicFileSink); the session is
  /// complete and unusable afterwards. Returns the total archive bytes.
  std::uint64_t finish();

  bool finished() const { return finished_; }
  /// True between begin_field and end_field.
  bool field_open() const { return in_field_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// Index records accumulated so far (the writer's only per-chunk state).
  const std::vector<FieldEntry>& fields() const { return fields_; }

 private:
  ByteSink& sink_;
  WriterOptions options_;
  std::vector<FieldEntry> fields_;
  FieldEntry current_;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t next_elem_ = 0;
  bool in_field_ = false;
  bool finished_ = false;
};

struct ReaderOptions {
  /// Retry budget applied to every source read the reader issues (frame
  /// fetches, open-time footer/index reads). Default: one attempt,
  /// fail-fast — exactly the pre-retry behaviour.
  RetryPolicy retry;
};

/// Random-access read session over a version-3 archive. Construction reads
/// ONLY the footer and index; every frame access is a lazy, CRC-checked
/// fetch. All decode entry points are const and thread-safe (the source
/// contract requires concurrent read_at), so chunks of one reader can be
/// decoded from many threads at once.
class ArchiveReader {
 public:
  /// Footer-first open: validates the head, footer, and index (structure,
  /// CRC, chunk coverage, frame bounds). Throws ContainerError on format
  /// violations — any version but kContainerVersion is unsupported — and
  /// ArchiveError on IO failures. STRICT mode: any damage anywhere in the
  /// metadata is fatal.
  explicit ArchiveReader(const ByteSource& source, ReaderOptions options = {});

  /// Salvage open: never rejects a damaged archive. Uses the strict
  /// footer/index when intact, otherwise rebuilds a partial index from the
  /// payload's recovery preambles (pipeline/recovery.hpp). Fields may come
  /// back incomplete: verify and BatchScheduler's strict reads throw on
  /// those (use BatchScheduler::decompress_partial), and chunk indices are
  /// DENSE over the recovered chunks — chunk_ordinal() maps back to
  /// as-written ordinals. `report`, when non-null, receives the scan
  /// statistics.
  static ArchiveReader open_salvage(const ByteSource& source,
                                    SalvageReport* report = nullptr,
                                    ReaderOptions options = {});

  const std::vector<FieldEntry>& fields() const { return fields_; }

  /// True for readers produced by open_salvage.
  bool salvaged() const { return salvaged_; }

  /// False only for a salvaged field whose recovered chunks do not tile its
  /// declared dims.
  bool field_complete(std::size_t field) const;

  /// Throws ContainerError unless field_complete(field). Strict reads call
  /// it before any chunk task runs: a fan-out would otherwise decode the
  /// recovered chunks and silently leave the holes zero-filled.
  void require_complete(std::size_t field) const;

  /// The as-written ordinal of a (possibly dense salvage) chunk index.
  std::size_t chunk_ordinal(std::size_t field, std::size_t chunk) const;

  /// Transient-read retries spent so far under ReaderOptions::retry.
  std::uint64_t io_retries() const { return io_retries_.value(); }

  /// Field index by name; throws ContainerError on unknown names.
  std::size_t field_index(const std::string& name) const;

  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// Bytes this reader keeps resident after open: head + index + footer.
  std::uint64_t resident_bytes() const { return resident_bytes_; }
  /// The largest frame in the index — with resident_bytes() and the worker
  /// count, the exact peak-memory budget of a streaming decompress.
  std::uint64_t max_frame_bytes() const { return max_frame_bytes_; }

  /// High-water mark of concurrently fetched frame bytes across all decode
  /// calls so far (the streaming-decompress residency tests pin this to
  /// workers * max_frame_bytes()).
  std::uint64_t peak_frame_bytes() const {
    return static_cast<std::uint64_t>(frame_bytes_.peak());
  }

  /// Fetches one chunk's frame bytes (one source read + CRC check).
  std::vector<std::uint8_t> read_frame(std::size_t field,
                                       std::size_t chunk) const;

  /// Fetches one chunk's frame WITHOUT the CRC check — for consumers whose
  /// decode path runs the frame through wire::parse_chunk_frame (which
  /// verifies the CRC) anyway, so the bytes are hashed once. Once returned
  /// the bytes are caller-owned; wrap them in a FrameResidency to keep
  /// peak_frame_bytes() honest while they stay resident.
  std::vector<std::uint8_t> read_frame_unverified(std::size_t field,
                                                  std::size_t chunk) const;

  /// Decodes ONE chunk — fetch, checksum, frame parse, decompression —
  /// without reading any other frame's bytes.
  sz::DecompressionResult decode_chunk(
      cudasim::SimContext& ctx, std::size_t field, std::size_t chunk,
      const core::DecoderConfig& decoder = {}) const;

  /// Fused variant: reconstructs the chunk's floats straight into `out`
  /// (sized to the CHUNK's element count — typically a subspan of the field
  /// buffer at the chunk's elem_offset) via sz::decompress_into; the
  /// returned result carries timings only. BatchScheduler::decompress
  /// decodes through it, so a chunk's floats are written once, in place,
  /// with no per-chunk vector or merge copy.
  sz::DecompressionResult decode_chunk_into(
      cudasim::SimContext& ctx, std::size_t field, std::size_t chunk,
      std::span<float> out, const core::DecoderConfig& decoder = {}) const;

  /// Streams every frame once and verifies its CRC-32 without decoding;
  /// throws ContainerError naming the first corrupted field/chunk (or the
  /// first salvaged-incomplete field).
  void verify() const;

 private:
  friend class FrameResidency;
  struct SalvageTag {};
  /// Adopts a salvage scan's rebuilt partial index. Private: reached via
  /// open_salvage, which runs the scan first. (A constructor so the factory
  /// can return a prvalue — the residency atomics make the reader
  /// non-movable.)
  ArchiveReader(SalvageTag, const ByteSource& source, SalvageResult salvage,
                ReaderOptions options);

  const ChunkRecord& record(std::size_t field, std::size_t chunk) const;
  std::vector<std::uint8_t> fetch_frame(const ChunkRecord& rec) const;
  /// Fetch + CRC check + frame parse of one chunk, then `decode(blob)`,
  /// holding a residency lease throughout: the one read step of every
  /// decode entry point.
  template <typename Decode>
  auto with_chunk_blob(std::size_t field, std::size_t chunk,
                       Decode&& decode) const;
  /// All source traffic funnels through here: retries TransientIoError
  /// within options_.retry, counting attempts into io_retries_.
  void read_at_retried(std::uint64_t offset, std::span<std::uint8_t> out) const;

  const ByteSource& source_;
  ReaderOptions options_;
  std::vector<FieldEntry> fields_;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t max_frame_bytes_ = 0;
  bool salvaged_ = false;
  /// Salvage only: per field, the as-written ordinal of each dense chunk
  /// index, and whether the recovered chunks tile the field.
  std::vector<std::vector<std::uint32_t>> salvage_ordinals_;
  std::vector<bool> salvage_complete_;
  /// Per-reader instruments behind io_retries()/peak_frame_bytes().
  /// io_retries_ is also the registry's "reader.io_retries" (listed by
  /// metrics_, and retired into the process total when the reader goes).
  mutable obs::Counter io_retries_;
  mutable obs::Gauge frame_bytes_;  // current + peak resident frame bytes
  obs::MetricsRegistry::Owner metrics_{
      obs::registry(), {{"reader.io_retries", &io_retries_}}};
};

/// RAII accounting of frame bytes held against a reader's residency gauge
/// and the process-wide "reader.frame_bytes" gauge. The decode entry points
/// hold one internally for the duration of each fetch+decode; the batch
/// scheduler's host chunk reads (decompress_partial, decode_range) hold one
/// while they parse each frame they fetched, so peak_frame_bytes() observes
/// every resident frame wherever it lives — the streaming-memory tests
/// assert against the gauge instead of trusting call structure.
class FrameResidency {
 public:
  FrameResidency(const ArchiveReader& reader, std::uint64_t bytes);
  ~FrameResidency();
  FrameResidency(const FrameResidency&) = delete;
  FrameResidency& operator=(const FrameResidency&) = delete;

 private:
  const ArchiveReader& reader_;
  std::uint64_t bytes_;
};

}  // namespace ohd::pipeline

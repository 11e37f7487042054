#include "pipeline/archive_io.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "pipeline/wire_format.hpp"
#include "util/checksum.hpp"

namespace ohd::pipeline {

namespace {

// Process-wide aggregates across all reader/writer sessions; each reader
// owns its "reader.io_retries" counter instead. Handles resolved once;
// recording is raw-atomic. "reader.frame_bytes" stays process-wide because
// its peak is the peak of the SUM over concurrent readers, which no
// per-reader peak can give.
struct ReaderMetrics {
  obs::Counter& bytes_read;
  obs::Counter& crc_checks;
  obs::Gauge& frame_bytes;
  obs::LatencyHistogram& frame_fetch_ns;
};

ReaderMetrics& reader_metrics() {
  static ReaderMetrics m{obs::registry().counter("reader.bytes_read"),
                         obs::registry().counter("reader.crc_checks"),
                         obs::registry().gauge("reader.frame_bytes"),
                         obs::registry().histogram("reader.frame_fetch_ns")};
  return m;
}

struct WriterMetrics {
  obs::Counter& bytes_written;
  obs::Counter& chunks;
};

WriterMetrics& writer_metrics() {
  static WriterMetrics m{obs::registry().counter("writer.bytes_written"),
                         obs::registry().counter("writer.chunks")};
  return m;
}

}  // namespace

void FieldDecode::absorb_timings(const sz::DecompressionResult& chunk) {
  huffman_phases += chunk.huffman_phases;
  huffman_seconds += chunk.huffman_seconds;
  reverse_lorenzo_seconds += chunk.reverse_lorenzo_seconds;
  outlier_scatter_seconds += chunk.outlier_scatter_seconds;
  simulated_seconds += chunk.total_seconds();
  chunk_seconds.push_back(chunk.total_seconds());
}

std::vector<ChunkExtent> chunk_layout(const sz::Dims& dims,
                                      std::size_t target_chunk_elems) {
  if (dims.count() == 0) {
    throw ContainerError("cannot chunk an empty field");
  }
  if (target_chunk_elems == 0) {
    throw ContainerError("chunk size must be positive");
  }
  const std::size_t slowest = dims.rank - 1;
  const std::size_t n_slabs = dims.extent[slowest];
  const std::size_t slab_elems = dims.count() / n_slabs;
  const std::size_t slabs_per_chunk =
      std::max<std::size_t>(1, target_chunk_elems / slab_elems);

  std::vector<ChunkExtent> out;
  out.reserve((n_slabs + slabs_per_chunk - 1) / slabs_per_chunk);
  for (std::size_t s = 0; s < n_slabs; s += slabs_per_chunk) {
    ChunkExtent e;
    e.elem_offset = s * slab_elems;
    e.dims = dims;
    e.dims.extent[slowest] = std::min(slabs_per_chunk, n_slabs - s);
    out.push_back(e);
  }
  return out;
}

ArchiveWriter::ArchiveWriter(ByteSink& sink, WriterOptions options)
    : sink_(sink), options_(options) {
  util::ByteWriter w;
  wire::write_archive_header(
      w, options_.recovery_preambles ? wire::kFlagRecoveryPreambles : 0);
  const auto head = w.take();
  sink_.write(head);
}

void ArchiveWriter::begin_field(const ArchiveFieldSpec& spec) {
  if (finished_) {
    throw ContainerError("begin_field on a finished archive session");
  }
  if (in_field_) {
    throw ContainerError("begin_field before the previous field ended");
  }
  if (!(spec.abs_error_bound > 0.0)) {
    throw ContainerError("non-positive error bound");
  }
  if (spec.radius == 0) {
    throw ContainerError("zero quantizer radius");
  }
  for (const FieldEntry& f : fields_) {
    if (f.name == spec.name) {
      throw ContainerError("duplicate field name '" + spec.name + "'");
    }
  }
  current_ = FieldEntry{};
  current_.name = spec.name;
  current_.dims = spec.dims;
  current_.abs_error_bound = spec.abs_error_bound;
  current_.radius = spec.radius;
  current_.method = spec.method;
  current_.shared_codebook = spec.shared_codebook;
  next_elem_ = 0;
  in_field_ = true;
  if (options_.recovery_preambles) {
    // The field header rides in the payload ahead of the first frame, so a
    // salvage scan can re-derive the index entry's fixed half without the
    // deferred index.
    wire::FieldPreamble p;
    p.field_ordinal = static_cast<std::uint32_t>(fields_.size());
    p.header = current_;
    util::ByteWriter w;
    wire::write_field_preamble(w, p);
    sink_.write(w.bytes());
    payload_bytes_ += w.size();
  }
}

void ArchiveWriter::write_chunk(const ChunkExtent& extent,
                                std::span<const std::uint8_t> frame) {
  // current_ is default-constructed outside a field session, and the
  // delegate throws in that case anyway.
  write_chunk(extent, frame, ChunkMeta{current_.method, CodebookRef::Private});
}

void ArchiveWriter::write_chunk(const ChunkExtent& extent,
                                std::span<const std::uint8_t> frame,
                                const ChunkMeta& meta) {
  write_chunk(extent, frame, meta, util::crc32(frame));
}

void ArchiveWriter::write_chunk(const ChunkExtent& extent,
                                std::span<const std::uint8_t> frame,
                                const ChunkMeta& meta, std::uint32_t crc32) {
  if (!in_field_) {
    throw ContainerError("write_chunk outside a begin_field session");
  }
  if (frame.empty()) {
    throw ContainerError("empty chunk frame");
  }
  if (extent.elem_offset != next_elem_) {
    throw ContainerError("chunk element offsets are not contiguous");
  }
  if (extent.dims.count() > current_.dims.count() - next_elem_) {
    throw ContainerError("chunks do not cover the field");
  }
  if (meta.codebook_ref == CodebookRef::SharedField &&
      current_.shared_codebook == nullptr) {
    throw ContainerError(
        "chunk references a shared codebook but the field has none");
  }
  if (options_.recovery_preambles) {
    wire::ChunkPreamble p;
    p.field_ordinal = static_cast<std::uint32_t>(fields_.size());
    p.chunk_ordinal = static_cast<std::uint32_t>(current_.chunks.size());
    p.elem_offset = extent.elem_offset;
    p.dims = extent.dims;
    p.method = meta.method;
    p.codebook_ref = meta.codebook_ref;
    p.frame_bytes = frame.size();
    p.frame_crc32 = crc32;
    util::ByteWriter w;
    wire::write_chunk_preamble(w, p);
    sink_.write(w.bytes());
    payload_bytes_ += w.size();
  }
  // The index record addresses the FRAME, past any preamble, so the strict
  // read path is identical with and without recovery preambles.
  ChunkRecord rec;
  rec.payload_offset = payload_bytes_;
  rec.payload_bytes = frame.size();
  rec.elem_offset = extent.elem_offset;
  rec.dims = extent.dims;
  rec.method = meta.method;
  rec.codebook_ref = meta.codebook_ref;
  rec.crc32 = crc32;
  // The frame goes straight to the sink; only the index record stays.
  sink_.write(frame);
  payload_bytes_ += frame.size();
  next_elem_ += extent.dims.count();
  current_.chunks.push_back(rec);
  WriterMetrics& m = writer_metrics();
  m.bytes_written.add(frame.size());
  m.chunks.add(1);
}

void ArchiveWriter::end_field() {
  if (!in_field_) {
    throw ContainerError("end_field without begin_field");
  }
  if (current_.chunks.empty()) {
    throw ContainerError("field has no chunks");
  }
  if (next_elem_ != current_.dims.count()) {
    throw ContainerError("chunks do not cover the field");
  }
  fields_.push_back(std::move(current_));
  current_ = FieldEntry{};
  in_field_ = false;
}

std::uint64_t ArchiveWriter::finish() {
  if (finished_) {
    throw ContainerError("finish on a finished archive session");
  }
  if (in_field_) {
    throw ContainerError("finish with an unclosed field session");
  }
  std::uint64_t index_size = 4;  // field count
  for (const FieldEntry& f : fields_) {
    index_size += wire::field_entry_bytes(f);
  }
  // Index and footer share one buffer reserved to the exact tail size, so
  // the deferred metadata reaches the sink in a single write.
  util::ByteWriter w;
  w.reserve(index_size + wire::kFooterBytes);
  w.u32(static_cast<std::uint32_t>(fields_.size()));
  for (const FieldEntry& f : fields_) {
    wire::write_field_entry(w, f);
  }

  wire::Footer footer;
  footer.index_offset = wire::kHeaderBytes + payload_bytes_;
  footer.index_bytes = w.size();
  footer.index_crc32 = util::crc32(w.bytes());
  footer.field_count = static_cast<std::uint32_t>(fields_.size());
  footer.payload_bytes = payload_bytes_;
  wire::write_footer(w, footer);

  const obs::ScopedOp op("writer.finish");
  sink_.write(w.bytes());
  // commit(), not flush(): the archive is only "written" once it is durable
  // (FileSink fsyncs; AtomicFileSink publishes its temp file atomically).
  sink_.commit();
  finished_ = true;
  writer_metrics().bytes_written.add(w.size());
  return wire::kHeaderBytes + payload_bytes_ + w.size();
}

FrameResidency::FrameResidency(const ArchiveReader& reader,
                               std::uint64_t bytes)
    : reader_(reader), bytes_(bytes) {
  reader_.frame_bytes_.add(static_cast<std::int64_t>(bytes_));
  reader_metrics().frame_bytes.add(static_cast<std::int64_t>(bytes_));
}

FrameResidency::~FrameResidency() {
  reader_.frame_bytes_.sub(static_cast<std::int64_t>(bytes_));
  reader_metrics().frame_bytes.sub(static_cast<std::int64_t>(bytes_));
}

ArchiveReader::ArchiveReader(const ByteSource& source, ReaderOptions options)
    : source_(source), options_(options) {
  const std::uint64_t total = source_.size();
  if (total < wire::kHeaderBytes + wire::kFooterBytes) {
    throw ContainerError("archive too small to hold a header and footer");
  }
  std::uint8_t head[wire::kHeaderBytes];
  read_at_retried(0, head);
  wire::read_archive_header(head);

  std::uint8_t tail[wire::kFooterBytes];
  read_at_retried(total - wire::kFooterBytes, tail);
  const wire::Footer footer = wire::read_footer(tail, total);

  std::vector<std::uint8_t> index(footer.index_bytes);
  read_at_retried(footer.index_offset, index);
  fields_ = wire::read_index(index, footer.field_count, footer.index_crc32,
                             footer.payload_bytes);
  payload_bytes_ = footer.payload_bytes;
  resident_bytes_ =
      wire::kHeaderBytes + footer.index_bytes + wire::kFooterBytes;
  for (const FieldEntry& f : fields_) {
    for (const ChunkRecord& rec : f.chunks) {
      max_frame_bytes_ = std::max(max_frame_bytes_, rec.payload_bytes);
    }
  }
}

ArchiveReader::ArchiveReader(SalvageTag, const ByteSource& source,
                             SalvageResult salvage, ReaderOptions options)
    : source_(source), options_(options), salvaged_(true) {
  fields_.reserve(salvage.fields.size());
  for (SalvagedField& sf : salvage.fields) {
    FieldEntry f = std::move(sf.header);
    f.chunks.clear();
    std::vector<std::uint32_t> ordinals;
    f.chunks.reserve(sf.chunks.size());
    ordinals.reserve(sf.chunks.size());
    for (const SalvagedChunk& c : sf.chunks) {
      f.chunks.push_back(c.record);
      ordinals.push_back(c.ordinal);
      max_frame_bytes_ = std::max(max_frame_bytes_, c.record.payload_bytes);
      payload_bytes_ = std::max(
          payload_bytes_, c.record.payload_offset + c.record.payload_bytes);
    }
    fields_.push_back(std::move(f));
    salvage_ordinals_.push_back(std::move(ordinals));
    salvage_complete_.push_back(sf.complete);
  }
  resident_bytes_ = wire::kHeaderBytes;
}

ArchiveReader ArchiveReader::open_salvage(const ByteSource& source,
                                          SalvageReport* report,
                                          ReaderOptions options) {
  SalvageResult salvage = salvage_scan(source, options.retry);
  if (report != nullptr) {
    *report = salvage.report;
  }
  return ArchiveReader(SalvageTag{}, source, std::move(salvage), options);
}

void ArchiveReader::read_at_retried(std::uint64_t offset,
                                    std::span<std::uint8_t> out) const {
  with_retry(
      options_.retry, [&] { source_.read_at(offset, out); },
      [&] { io_retries_.add(1); });
  reader_metrics().bytes_read.add(out.size());
}

bool ArchiveReader::field_complete(std::size_t field) const {
  if (field >= fields_.size()) {
    throw ContainerError("field index out of range");
  }
  return !salvaged_ || salvage_complete_[field];
}

std::size_t ArchiveReader::chunk_ordinal(std::size_t field,
                                         std::size_t chunk) const {
  record(field, chunk);  // bounds checks
  return salvaged_ ? salvage_ordinals_[field][chunk] : chunk;
}

void ArchiveReader::require_complete(std::size_t field) const {
  if (!field_complete(field)) {
    throw ContainerError(
        "field '" + fields_[field].name +
        "' was salvaged incomplete; use decompress_partial");
  }
}

std::size_t ArchiveReader::field_index(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  throw ContainerError("no field named '" + name + "' in container");
}

const ChunkRecord& ArchiveReader::record(std::size_t field,
                                         std::size_t chunk) const {
  if (field >= fields_.size()) {
    throw ContainerError("field index out of range");
  }
  if (chunk >= fields_[field].chunks.size()) {
    throw ContainerError("chunk index out of range");
  }
  return fields_[field].chunks[chunk];
}

std::vector<std::uint8_t> ArchiveReader::fetch_frame(
    const ChunkRecord& rec) const {
  const obs::ScopedOp op("reader.frame_fetch",
                         &reader_metrics().frame_fetch_ns);
  std::vector<std::uint8_t> frame(rec.payload_bytes);
  read_at_retried(wire::kHeaderBytes + rec.payload_offset, frame);
  return frame;
}

std::vector<std::uint8_t> ArchiveReader::read_frame(std::size_t field,
                                                    std::size_t chunk) const {
  const ChunkRecord& rec = record(field, chunk);
  const FrameResidency lease(*this, rec.payload_bytes);
  std::vector<std::uint8_t> frame = fetch_frame(rec);
  reader_metrics().crc_checks.add(1);
  if (util::crc32(frame) != rec.crc32) {
    throw ContainerError("field '" + fields_[field].name + "' chunk " +
                         std::to_string(chunk) +
                         ": CRC-32 mismatch (corrupted frame)");
  }
  return frame;
}

std::vector<std::uint8_t> ArchiveReader::read_frame_unverified(
    std::size_t field, std::size_t chunk) const {
  const ChunkRecord& rec = record(field, chunk);
  const FrameResidency lease(*this, rec.payload_bytes);
  return fetch_frame(rec);
}

template <typename Decode>
auto ArchiveReader::with_chunk_blob(std::size_t field, std::size_t chunk,
                                    Decode&& decode) const {
  const ChunkRecord& rec = record(field, chunk);
  const FrameResidency lease(*this, rec.payload_bytes);
  const std::vector<std::uint8_t> frame = fetch_frame(rec);
  return decode(wire::parse_chunk_frame(fields_[field], chunk, frame));
}

sz::DecompressionResult ArchiveReader::decode_chunk(
    cudasim::SimContext& ctx, std::size_t field, std::size_t chunk,
    const core::DecoderConfig& decoder) const {
  return with_chunk_blob(field, chunk, [&](const sz::CompressedBlob& blob) {
    return sz::decompress(ctx, blob, decoder);
  });
}

sz::DecompressionResult ArchiveReader::decode_chunk_into(
    cudasim::SimContext& ctx, std::size_t field, std::size_t chunk,
    std::span<float> out, const core::DecoderConfig& decoder) const {
  return with_chunk_blob(field, chunk, [&](const sz::CompressedBlob& blob) {
    return sz::decompress_into(ctx, blob, out, decoder);
  });
}

void ArchiveReader::verify() const {
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    require_complete(f);
    for (std::size_t c = 0; c < fields_[f].chunks.size(); ++c) {
      const ChunkRecord& rec = fields_[f].chunks[c];
      const FrameResidency lease(*this, rec.payload_bytes);
      reader_metrics().crc_checks.add(1);
      if (util::crc32(fetch_frame(rec)) != rec.crc32) {
        throw ContainerError("field '" + fields_[f].name + "' chunk " +
                             std::to_string(c) +
                             ": CRC-32 mismatch (corrupted frame)");
      }
    }
  }
}

}  // namespace ohd::pipeline

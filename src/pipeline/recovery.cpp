#include "pipeline/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "pipeline/archive_io.hpp"
#include "pipeline/wire_format.hpp"
#include "util/checksum.hpp"

namespace ohd::pipeline {
namespace {

/// Sliding read window over a source region, so the byte-by-byte resync scan
/// does not issue one read_at per probed offset. Spans are valid until the
/// next view() call.
class ScanWindow {
 public:
  ScanWindow(const ByteSource& src, const RetryPolicy& retry,
             std::uint64_t end)
      : src_(src), retry_(retry), end_(end) {}

  /// Bytes [pos, min(pos + want, end)); reloads the window when the request
  /// falls outside the cached range.
  std::span<const std::uint8_t> view(std::uint64_t pos, std::uint64_t want) {
    const std::uint64_t n = std::min(want, end_ - pos);
    if (pos < begin_ || pos + n > begin_ + buf_.size()) {
      const std::uint64_t len =
          std::min(std::max<std::uint64_t>(n, kWindowBytes), end_ - pos);
      buf_.resize(len);
      with_retry(retry_, [&] { src_.read_at(pos, buf_); });
      begin_ = pos;
    }
    return std::span<const std::uint8_t>(buf_).subspan(
        static_cast<std::size_t>(pos - begin_), static_cast<std::size_t>(n));
  }

 private:
  // Must exceed the largest record probed in place (a max-size field
  // preamble), so a probe never thrashes the window.
  static constexpr std::uint64_t kWindowBytes =
      4 * (std::uint64_t{wire::kMaxFieldPreambleRecordBytes} + 16);

  const ByteSource& src_;
  const RetryPolicy& retry_;
  std::uint64_t end_;
  std::uint64_t begin_ = 0;
  std::vector<std::uint8_t> buf_;
};

std::vector<std::uint8_t> read_range(const ByteSource& src,
                                     const RetryPolicy& retry,
                                     std::uint64_t offset, std::uint64_t n) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
  with_retry(retry, [&] { src.read_at(offset, bytes); });
  return bytes;
}

/// Strict footer-first parse; any format violation means "tail unusable".
std::vector<FieldEntry> try_strict_index(const ByteSource& src,
                                         const RetryPolicy& retry,
                                         std::uint64_t total) {
  const auto tail =
      read_range(src, retry, total - wire::kFooterBytes, wire::kFooterBytes);
  const wire::Footer footer = wire::read_footer(tail, total);
  const auto index =
      read_range(src, retry, footer.index_offset, footer.index_bytes);
  return wire::read_index(index, footer.field_count, footer.index_crc32,
                          footer.payload_bytes);
}

/// Marks the recovered chunk set of one field complete when the ordinals run
/// 0..n-1 and their extents tile the declared dims contiguously.
bool chunks_complete(const SalvagedField& f) {
  std::uint64_t next_elem = 0;
  for (std::size_t i = 0; i < f.chunks.size(); ++i) {
    if (f.chunks[i].ordinal != i) return false;
    if (f.chunks[i].record.elem_offset != next_elem) return false;
    next_elem += f.chunks[i].record.dims.count();
  }
  return !f.chunks.empty() && next_elem == f.header.dims.count();
}

}  // namespace

SalvageResult salvage_scan(const ByteSource& source, const RetryPolicy& retry) {
  SalvageResult out;
  SalvageReport& rep = out.report;
  const std::uint64_t total = source.size();
  if (total < wire::kHeaderBytes) {
    rep.notes.push_back("archive smaller than its 8-byte header");
    return out;
  }

  const auto head = read_range(source, retry, 0, wire::kHeaderBytes);
  std::uint8_t flags = 0;
  try {
    flags = wire::read_archive_header(head);
    rep.header_valid = true;
  } catch (const ContainerError&) {
  }
  if (!rep.header_valid) {
    rep.notes.push_back("archive header damaged; scanning anyway");
  }
  rep.preambles_present =
      rep.header_valid && (flags & wire::kFlagRecoveryPreambles) != 0;

  // First choice: the strict tail. An archive that is merely payload-corrupt
  // keeps its complete index; quarantine then happens chunk by chunk at
  // decode time against the indexed CRCs.
  if (rep.header_valid && total >= wire::kHeaderBytes + wire::kFooterBytes) {
    try {
      std::vector<FieldEntry> fields = try_strict_index(source, retry, total);
      rep.used_index = true;
      rep.fields_recovered = fields.size();
      for (std::size_t fi = 0; fi < fields.size(); ++fi) {
        SalvagedField sf;
        sf.ordinal = static_cast<std::uint32_t>(fi);
        sf.header = fields[fi];
        for (std::size_t ci = 0; ci < fields[fi].chunks.size(); ++ci) {
          sf.chunks.push_back({static_cast<std::uint32_t>(ci),
                               fields[fi].chunks[ci]});
          ++rep.frames_recovered;
        }
        sf.header.chunks.clear();
        sf.complete = true;
        out.fields.push_back(std::move(sf));
      }
      return out;
    } catch (const std::invalid_argument&) {
      // Tail damaged — fall through to the payload scan.
    }
  }

  if (rep.header_valid && !rep.preambles_present) {
    rep.notes.push_back(
        "index unusable and the archive carries no recovery preambles; "
        "nothing to salvage");
    return out;
  }

  // Self-synchronizing payload scan: walk forward hunting for preamble
  // magics, trust a record only after its own CRC, then a frame only after
  // the frame CRC the preamble vouches for. A frame that fails its CRC is
  // skipped by its trusted length (quarantine); unrecognizable bytes are
  // walked over one at a time until the stream re-synchronizes.
  std::map<std::uint32_t, FieldEntry> headers;
  std::map<std::uint32_t, std::map<std::uint32_t, ChunkRecord>> recovered;
  ScanWindow win(source, retry, total);
  std::uint64_t pos = wire::kHeaderBytes;
  rep.scanned_bytes = total - wire::kHeaderBytes;
  while (pos + 4 <= total) {
    const auto magic = win.view(pos, 4);
    if (std::memcmp(magic.data(), wire::kChunkPreambleMagic, 4) == 0) {
      wire::ChunkPreamble p;
      if (wire::try_parse_chunk_preamble(
              win.view(pos, wire::kChunkPreambleBytes), p)) {
        const std::uint64_t frame_pos = pos + wire::kChunkPreambleBytes;
        if (p.frame_bytes > total - frame_pos) {
          ++rep.frames_rejected;
          rep.notes.push_back(
              "field " + std::to_string(p.field_ordinal) + " chunk " +
              std::to_string(p.chunk_ordinal) +
              ": frame truncated by the end of the archive");
          break;  // nothing complete can follow a frame that overruns the end
        }
        const auto frame = read_range(source, retry, frame_pos, p.frame_bytes);
        if (util::crc32(frame) == p.frame_crc32) {
          ChunkRecord rec;
          rec.payload_offset = frame_pos - wire::kHeaderBytes;
          rec.payload_bytes = p.frame_bytes;
          rec.elem_offset = p.elem_offset;
          rec.dims = p.dims;
          rec.method = p.method;
          rec.codebook_ref = p.codebook_ref;
          rec.crc32 = p.frame_crc32;
          if (!recovered[p.field_ordinal].emplace(p.chunk_ordinal, rec)
                   .second) {
            rep.notes.push_back("field " + std::to_string(p.field_ordinal) +
                                " chunk " + std::to_string(p.chunk_ordinal) +
                                ": duplicate preamble; kept the first");
          } else {
            ++rep.frames_recovered;
          }
        } else {
          ++rep.frames_rejected;
          rep.notes.push_back("field " + std::to_string(p.field_ordinal) +
                              " chunk " + std::to_string(p.chunk_ordinal) +
                              ": frame CRC-32 mismatch; quarantined");
        }
        // The preamble's own CRC vouches for frame_bytes, so the skip is
        // trusted even when the frame content is not.
        pos = frame_pos + p.frame_bytes;
        continue;
      }
    } else if (std::memcmp(magic.data(), wire::kFieldPreambleMagic, 4) == 0) {
      wire::FieldPreamble fp;
      std::uint64_t consumed = 0;
      if (wire::try_parse_field_preamble(
              win.view(pos, 16ull + wire::kMaxFieldPreambleRecordBytes), fp,
              consumed)) {
        if (!headers.emplace(fp.field_ordinal, std::move(fp.header)).second) {
          rep.notes.push_back("field " + std::to_string(fp.field_ordinal) +
                              ": duplicate field preamble; kept the first");
        }
        pos += consumed;
        continue;
      }
    }
    ++pos;
    ++rep.resync_skipped_bytes;
  }

  // Assemble per-field results: a chunk is only usable when its field header
  // survived (error bound, radius, shared codebook live there) and its
  // geometry fits the declared field.
  for (auto& [ordinal, header] : headers) {
    SalvagedField sf;
    sf.ordinal = ordinal;
    sf.header = std::move(header);
    auto it = recovered.find(ordinal);
    if (it != recovered.end()) {
      for (auto& [chunk_ord, rec] : it->second) {
        if (rec.dims.count() > sf.header.dims.count() ||
            rec.elem_offset >
                sf.header.dims.count() - rec.dims.count()) {
          rep.notes.push_back("field " + std::to_string(ordinal) + " chunk " +
                              std::to_string(chunk_ord) +
                              ": extent outside the declared field; dropped");
          continue;
        }
        if (rec.codebook_ref == CodebookRef::SharedField &&
            sf.header.shared_codebook == nullptr) {
          rep.notes.push_back(
              "field " + std::to_string(ordinal) + " chunk " +
              std::to_string(chunk_ord) +
              ": references a shared codebook the field header lacks; "
              "dropped");
          continue;
        }
        sf.chunks.push_back({chunk_ord, rec});
      }
      recovered.erase(it);
    }
    sf.complete = chunks_complete(sf);
    out.fields.push_back(std::move(sf));
    ++rep.fields_recovered;
  }
  for (const auto& [ordinal, chunks] : recovered) {
    rep.notes.push_back(std::to_string(chunks.size()) +
                        " intact frame(s) for field ordinal " +
                        std::to_string(ordinal) +
                        " lost their field header; dropped");
  }
  return out;
}

RepairReport repair_truncated(const ByteSource& damaged, ByteSink& out,
                              const RetryPolicy& retry) {
  SalvageResult sr = salvage_scan(damaged, retry);
  RepairReport rep;
  WriterOptions opts;
  opts.recovery_preambles = true;
  ArchiveWriter writer(out, opts);
  for (SalvagedField& sf : sr.fields) {
    // A strict index can only describe a field whose chunks tile it from
    // element 0 with no gaps: keep the contiguous prefix.
    std::size_t keep = 0;
    std::uint64_t covered = 0;
    while (keep < sf.chunks.size() && sf.chunks[keep].ordinal == keep &&
           sf.chunks[keep].record.elem_offset == covered) {
      covered += sf.chunks[keep].record.dims.count();
      ++keep;
    }
    // chunk_layout chunks are whole slabs of the slowest axis, so `covered`
    // divides into slabs exactly; a foreign layout that does not align gets
    // trimmed back to the last whole slab.
    const std::size_t slowest = sf.header.dims.rank - 1;
    const std::uint64_t slab =
        sf.header.dims.count() / sf.header.dims.extent[slowest];
    while (keep > 0 && covered % slab != 0) {
      --keep;
      covered -= sf.chunks[keep].record.dims.count();
    }
    rep.chunks_dropped += sf.chunks.size() - keep;
    if (keep == 0) {
      ++rep.fields_dropped;
      continue;
    }
    sz::Dims dims = sf.header.dims;
    dims.extent[slowest] = covered / slab;
    ArchiveFieldSpec spec;
    spec.name = sf.header.name;
    spec.dims = dims;
    spec.abs_error_bound = sf.header.abs_error_bound;
    spec.radius = sf.header.radius;
    spec.method = sf.header.method;
    spec.shared_codebook = sf.header.shared_codebook;
    try {
      writer.begin_field(spec);
    } catch (const ContainerError&) {
      // e.g. a duplicate field name from colliding salvaged headers — skip
      // the later claimant rather than abort the repair.
      ++rep.fields_dropped;
      rep.chunks_dropped += keep;
      continue;
    }
    for (std::size_t i = 0; i < keep; ++i) {
      const ChunkRecord& rec = sf.chunks[i].record;
      const auto frame =
          read_range(damaged, retry, wire::kHeaderBytes + rec.payload_offset,
                     rec.payload_bytes);
      writer.write_chunk(ChunkExtent{rec.elem_offset, rec.dims}, frame,
                         ChunkMeta{rec.method, rec.codebook_ref}, rec.crc32);
    }
    writer.end_field();
    ++rep.fields_kept;
    rep.chunks_kept += keep;
  }
  rep.output_bytes = writer.finish();
  return rep;
}

}  // namespace ohd::pipeline

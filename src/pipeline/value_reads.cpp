#include "pipeline/value_reads.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace ohd::pipeline {

FieldReport report_partial_field(
    const ArchiveReader& reader, std::size_t field, std::span<float> values,
    const std::function<void(std::size_t, std::span<float>)>& decode) {
  const FieldEntry& f = reader.fields()[field];
  FieldReport report;
  report.name = f.name;
  report.elems_total = f.dims.count();
  std::uint64_t next_elem = 0;
  std::size_t next_ordinal = 0;
  for (std::size_t c = 0; c < f.chunks.size(); ++c) {
    const ChunkRecord& rec = f.chunks[c];
    const std::size_t ordinal = reader.chunk_ordinal(field, c);
    if (rec.elem_offset > next_elem) {
      // Chunks the salvage never recovered: a known element hole whose
      // as-written ordinals are the gap in the recovered sequence.
      ChunkReport hole;
      hole.chunk = next_ordinal;
      hole.status = ChunkStatus::Missing;
      hole.elem_offset = next_elem;
      hole.elem_count = rec.elem_offset - next_elem;
      hole.detail = "chunks " + std::to_string(next_ordinal) + ".." +
                    std::to_string(ordinal - 1) + " were not recovered";
      report.chunks.push_back(std::move(hole));
    }
    ChunkReport cr;
    cr.chunk = ordinal;
    cr.elem_offset = rec.elem_offset;
    cr.elem_count = rec.dims.count();
    const std::span<float> dest = values.subspan(rec.elem_offset,
                                                 rec.dims.count());
    try {
      decode(c, dest);
      cr.status = ChunkStatus::Ok;
      report.elems_ok += cr.elem_count;
    } catch (const std::invalid_argument& e) {
      // CRC mismatch, frame parse or decode failure, or an exhausted retry
      // budget: contain it to this chunk. The slice may hold a partial
      // decode — never surface bytes that failed verification.
      cr.status = ChunkStatus::Corrupt;
      cr.detail = e.what();
      std::fill(dest.begin(), dest.end(), 0.0f);
    }
    report.chunks.push_back(std::move(cr));
    next_elem = rec.elem_offset + rec.dims.count();
    next_ordinal = ordinal + 1;
  }
  if (next_elem < f.dims.count()) {
    ChunkReport hole;
    hole.chunk = next_ordinal;
    hole.status = ChunkStatus::Missing;
    hole.elem_offset = next_elem;
    hole.elem_count = f.dims.count() - next_elem;
    hole.detail = "field tail truncated away";
    report.chunks.push_back(std::move(hole));
  }
  return report;
}

void host_decode_window(const sz::CompressedBlob& blob, std::uint64_t first,
                        std::span<float> dest) {
  if (first == 0 && dest.size() == blob.dims.count()) {
    sz::host_decompress_into(blob, dest);
    return;
  }
  std::vector<float> chunk(blob.dims.count());
  sz::host_decompress_into(blob, chunk);
  std::copy_n(chunk.begin() + static_cast<std::ptrdiff_t>(first), dest.size(),
              dest.begin());
}

}  // namespace ohd::pipeline

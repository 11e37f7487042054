// Pipeline-internal steps of the value-only reads: the reads that return
// floats (and, for salvage, a report) but no model seconds, so they decode
// on the host with sz::host_decompress_into. ArchiveReader and
// BatchScheduler share these steps; they are not part of the pipeline's
// public API (pipeline/archive_io.hpp, pipeline/batch.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "pipeline/archive_io.hpp"

namespace ohd::pipeline {

/// Builds one field's hole-tolerant report in chunk order — the one report
/// assembly of ArchiveReader::decode_field_partial and
/// BatchScheduler::decompress_partial. `decode(chunk, dest)` reconstructs
/// dense chunk `chunk` into `dest`, its slice of `values` (or collects a
/// decode already running there). A std::invalid_argument from it — CRC,
/// parse or decode failure, or an exhausted retry budget — marks the chunk
/// Corrupt and re-zeroes the slice; element gaps left by chunks the salvage
/// never recovered become Missing entries.
FieldReport report_partial_field(
    const ArchiveReader& reader, std::size_t field, std::span<float> values,
    const std::function<void(std::size_t chunk, std::span<float> dest)>&
        decode);

/// Host-decodes one chunk's blob and writes its elements [first, first +
/// dest.size()) into `dest`: straight in when `dest` is the whole chunk,
/// through a chunk-sized scratch vector at a range's ragged ends. The
/// per-chunk step of both range decodes (ArchiveReader::decode_range and
/// BatchScheduler::decode_range).
void host_decode_window(const sz::CompressedBlob& blob, std::uint64_t first,
                        std::span<float> dest);

}  // namespace ohd::pipeline

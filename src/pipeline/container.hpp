// Index types of the chunked multi-field container ("OHDC", version 3): an
// archive of compressed float fields, each split into fixed-size chunks
// compressed independently through the sz pipeline (one absolute error bound
// per field). A per-chunk index record — payload offset/length, element
// offset, chunk dims, method tag, codebook reference, CRC-32 — makes every
// chunk a self-contained frame: any single chunk can be checksum-verified
// and decoded without touching the rest of the archive, which is what the
// batch pipeline parallelizes over and what range decode uses for partial
// reads.
//
// The byte layout lives in pipeline/wire_format.hpp; ArchiveWriter and
// ArchiveReader (pipeline/archive_io.hpp) are the one write and one read
// path. This header holds only the records they share, so wire_format.hpp
// and recovery.hpp can name them without pulling in the session API. Bump
// kContainerVersion when changing the layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/huffman_codec.hpp"
#include "sz/compressor.hpp"

namespace ohd::pipeline {

inline constexpr std::uint8_t kContainerVersion = 3;

/// Parse/validation failure of a container or one of its chunk frames.
/// Derives from std::invalid_argument so callers can handle it uniformly
/// with the other deserializers' errors.
class ContainerError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Where a chunk's Huffman codebook lives.
enum class CodebookRef : std::uint8_t {
  Private = 0,      // embedded in the chunk's frame
  SharedField = 1,  // the field's shared codebook; the frame omits its book
};

struct ChunkRecord {
  std::uint64_t payload_offset = 0;  // into the payload section
  std::uint64_t payload_bytes = 0;
  std::uint64_t elem_offset = 0;     // into the field's flat element order
  sz::Dims dims;                     // chunk geometry (slab of the field)
  core::Method method = core::Method::GapArrayOptimized;
  CodebookRef codebook_ref = CodebookRef::Private;
  std::uint32_t crc32 = 0;           // over the frame bytes
};

struct FieldEntry {
  std::string name;
  sz::Dims dims;
  double abs_error_bound = 0.0;
  std::uint32_t radius = 512;
  core::Method method = core::Method::GapArrayOptimized;  // field default
  /// Field-level codebook shared by chunks whose record says SharedField;
  /// null when the field has none. Shared so decode tasks can reference it
  /// without copying the table per chunk.
  std::shared_ptr<const huffman::Codebook> shared_codebook;
  std::vector<ChunkRecord> chunks;
};

/// Per-chunk encoding facts a producer declares when its frames were made
/// under a field plan (method selection and/or shared codebooks).
struct ChunkMeta {
  core::Method method = core::Method::GapArrayOptimized;
  CodebookRef codebook_ref = CodebookRef::Private;
};

struct ChunkExtent {
  std::uint64_t elem_offset = 0;
  sz::Dims dims;
};

/// Splits `dims` into chunks of whole slabs of the slowest axis, each chunk
/// totalling about `target_chunk_elems` elements (at least one slab, so a
/// chunk of a 2-D/3-D field keeps the field's rank and Lorenzo predictor;
/// slabs are contiguous in the x-fastest element order, so every chunk is a
/// contiguous span of the flat field).
std::vector<ChunkExtent> chunk_layout(const sz::Dims& dims,
                                      std::size_t target_chunk_elems);

/// Decoded field plus simulated timings aggregated in chunk-id order (the
/// order that makes multi-threaded and sequential runs bit-identical).
struct FieldDecode {
  std::vector<float> data;
  core::PhaseTimings huffman_phases;
  double huffman_seconds = 0.0;
  double reverse_lorenzo_seconds = 0.0;
  double outlier_scatter_seconds = 0.0;
  double simulated_seconds = 0.0;     // sum over chunks, chunk-id order
  std::vector<double> chunk_seconds;  // per-chunk simulated cost

  /// Merges one decoded chunk's timings. The chunk's floats are not copied
  /// here: BatchScheduler::decompress reconstructs each chunk straight into
  /// its slice of `data` via decode_chunk_into before merging. Call in
  /// chunk-id order to keep runs bit-identical.
  void absorb_timings(const sz::DecompressionResult& chunk);
};

}  // namespace ohd::pipeline

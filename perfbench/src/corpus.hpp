// The benchmark's fixed inputs and sizing, shared by every workload: the
// eight paper datasets at one scale, the session options, and the
// in-process compress/decompress calls the references come from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/fields.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "service/service_types.hpp"
#include "traffic.hpp"

namespace perfbench {

/// data::evaluation_suite scale: ~0.5M elements (~2 MB) per field, ~16 MB
/// for the eight fields.
inline constexpr double kCorpusScale = 0.25;
/// Pool workers everywhere (the in-process pool and the service's).
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kDispatchers = 2;
inline constexpr std::size_t kConnections = 2;
/// bulk_roundtrip chunking, larger than any corpus field: one chunk per
/// field. remote_reads archive chunking.
inline constexpr std::size_t kWholeFieldElems = std::size_t{1} << 22;
inline constexpr std::size_t kReadChunkElems = 4096;
/// Set-ups per run (setup_s is their median).
inline constexpr int kSetupRepeats = 5;
/// Share of each remote_reads round spent in its in-process compress window
/// (the rest is open-loop traffic). The traffic only reads, so compress_gbps
/// comes from these windows.
inline constexpr double kCompressShare = 0.15;
/// Service admission limits: sized so a steady run refuses nothing.
inline constexpr std::size_t kMaxQueueDepth = 256;
inline constexpr std::size_t kMaxInflightPerClient = 64;
/// remote_reads offered load, requests per second over both connections:
/// a quarter of the ~800 req/s at which this mix saturates the 2-worker
/// service on a 4-vCPU host. At half (400 req/s), the host's slow spells
/// (30-50% less throughput for ~10 s) tripled p99 in some runs; a quarter
/// keeps queueing visible with headroom through them.
inline constexpr double kReadRate = 200.0;

struct Corpus {
  std::vector<ohd::data::Field> fields;
  std::uint64_t bytes() const;
  std::uint64_t elems() const;
  /// Bytes of the quantization codes, 2 per element: the reference size of
  /// the paper's Table V decoding throughput.
  std::uint64_t quant_code_bytes() const { return elems() * 2; }
};

Corpus make_corpus();

/// The compressor settings every session uses (relative bound 1e-3,
/// radius 512, the library's default method and decoder).
ohd::sz::CompressorConfig compressor_config();

/// FieldSpecs over the corpus (or one field) with the session's settings.
std::vector<ohd::pipeline::FieldSpec> field_specs(const Corpus& corpus,
                                                  std::size_t chunk_elems);
std::vector<ohd::pipeline::FieldSpec> field_specs(
    const ohd::data::Field& field, std::size_t chunk_elems);

/// BatchScheduler::compress_to into a fresh v3 MemorySink, finished.
std::vector<std::uint8_t> compress_archive(
    const ohd::pipeline::BatchScheduler& sched,
    std::span<const ohd::pipeline::FieldSpec> specs);

/// One compress + decompress op: compress_archive, then ArchiveReader +
/// BatchScheduler::decompress of the bytes it wrote, each phase timed.
struct RoundTrip {
  std::vector<std::uint8_t> archive;
  ohd::pipeline::BatchDecompressResult decoded;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::uint64_t peak_frame_bytes = 0;  // the reader's, after the decode
};

RoundTrip round_trip(const ohd::pipeline::BatchScheduler& sched,
                     std::span<const ohd::pipeline::FieldSpec> specs);

/// Bit-identical floats in every field.
bool same_decode(const ohd::pipeline::BatchDecompressResult& a,
                 const ohd::pipeline::BatchDecompressResult& b);

/// Same archive bytes and same_decode.
bool same_output(const RoundTrip& a, const RoundTrip& b);

/// Chunk geometry of every field of an open archive.
std::vector<FieldLayout> archive_layout(const ohd::pipeline::ArchiveReader& r);

/// Service sizing shared by both remote workloads and the traced ladder.
ohd::service::ServiceConfig service_config();

/// True when every reconstructed value is within the field's absolute bound
/// (with the 1e-6 relative slack the library's own tests allow).
bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double abs_error_bound);

bool same_floats(std::span<const float> a, std::span<const float> b);

}  // namespace perfbench

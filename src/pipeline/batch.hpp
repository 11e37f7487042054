// BatchScheduler: runs compress/decompress of many chunks and fields
// concurrently on a ThreadPool, with every merge ordered by chunk id so a run
// with N workers is bit-identical — floats, aggregated PhaseTimings, and the
// merged simulated timeline — to a run on one worker. Its fan-outs are the
// only code that walks a field's chunks: ArchiveWriter and ArchiveReader
// work one chunk at a time. Each decompress chunk
// task owns a fresh cudasim::SimContext, so simulated timings are a pure
// function of the chunk, never of scheduling; the value-only reads
// (decompress_partial, decode_range) run no model at all.
//
// Both directions are built on the streaming archive sessions
// (pipeline/archive_io.hpp): compress_to emits frames into an ArchiveWriter
// as their futures complete, and decompress(ArchiveReader&) fetches frames
// lazily from the reader's ByteSource inside the decode tasks — compression
// and decompression overlap IO with compute instead of serializing behind a
// whole-archive memory image.
//
// Two notions of parallelism live here, deliberately separate:
//  * the ThreadPool parallelizes the HOST-side functional simulation (real
//    wall-clock speedup on multicore machines);
//  * makespan() list-schedules the per-chunk SIMULATED costs onto N virtual
//    GPU workers (greedy, chunk-id order, earliest-available worker, lowest
//    id on ties) — the deterministic, machine-independent batch-throughput
//    number bench/pipeline_throughput.cpp sweeps.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/huffman_codec.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/cancel.hpp"
#include "pipeline/container.hpp"
#include "pipeline/method_selector.hpp"
#include "pipeline/thread_pool.hpp"
#include "sz/compressor.hpp"

namespace ohd::pipeline {

/// One field of a corpus to be compressed into an archive.
struct FieldSpec {
  std::string name;
  std::span<const float> data;
  sz::Dims dims;
  sz::CompressorConfig config;
  std::size_t chunk_elems = std::size_t{1} << 16;
  /// Adaptive planning: per-chunk method selection and/or a field-level
  /// shared codebook. With both off the scheduler takes the fused
  /// quantize+encode fast path; with either on, compression runs in two
  /// fan-outs (quantize all chunks, plan the field on the collecting thread,
  /// then encode all chunks) so the plan can see the whole field first.
  PlanOptions plan;
};

struct FieldResult {
  std::string name;
  FieldDecode decode;  // floats + timings merged in chunk-id order
};

struct BatchDecompressResult {
  std::vector<FieldResult> fields;
  core::PhaseTimings phases;          // summed field-major, chunk-id order
  double simulated_seconds = 0.0;     // sum over all chunks
  std::vector<double> chunk_seconds;  // per chunk, global chunk-id order

  /// Simulated batch makespan on `workers` virtual GPUs (greedy list
  /// schedule over chunk_seconds in chunk-id order).
  double makespan(std::size_t workers) const;
};

/// Result of the degraded (quarantining) batch decompress: the decoded
/// fields with damaged chunk ranges zero-filled, plus the per-chunk
/// DecodeReport saying exactly which element ranges are trustworthy. A
/// value-only read: it carries no model seconds.
struct PartialBatchDecompress {
  /// One buffer per reader field, in reader.fields() order (report.fields
  /// names them).
  std::vector<std::vector<float>> values;
  DecodeReport report;
};

class BatchScheduler {
 public:
  explicit BatchScheduler(ThreadPool& pool) : pool_(pool) {}

  // Cancellation: the entry points taking a CancelToken poll it cooperatively
  // at task boundaries — before submitting each chunk task, at every task's
  // entry, and between streamed chunks on the collecting thread — and abort
  // by throwing OperationCancelled once it fires. In-flight chunk tasks are
  // always waited out before the throw unwinds (every fan-out here waits out
  // its untaken tasks when it goes out of scope), and an UNCANCELLED run is
  // bit-identical to a run without a token. A cancelled compress_to abandons
  // its writer session mid-stream; callers stream into disposable sinks
  // (MemorySink) or discard the file.

  /// Compresses every chunk of every field concurrently and STREAMS the
  /// archive into `writer` — each frame is handed to the sink the moment its
  /// future completes in deterministic (field, chunk) order, overlapping the
  /// IO of finished chunks with the compression of later ones. Byte-identical
  /// output for any worker count. The caller finishes the session (the
  /// writer stays open so more fields can follow).
  void compress_to(ArchiveWriter& writer, std::span<const FieldSpec> specs,
                   const CancelToken& cancel = {}) const;

  /// In-memory convenience over compress_to: runs one complete writer
  /// session into a MemorySink and returns the finished v3 image —
  /// byte-identical for any worker count. Read it back through an
  /// ArchiveReader over a MemorySource (or an OwningMemorySource).
  std::vector<std::uint8_t> compress(std::span<const FieldSpec> specs,
                                     const CancelToken& cancel = {}) const;

  /// Decompresses every chunk of every field concurrently: each chunk task
  /// lazily fetches its frame from the reader's ByteSource and decodes it
  /// into its slice of the preallocated field buffer, so frame IO overlaps
  /// decode across workers and peak archive residency stays at
  /// reader.resident_bytes() plus at most one in-flight frame per worker —
  /// the archive bytes are never materialized. Per-field floats and all
  /// timing aggregates are merged in chunk-id order. STRICT (the default
  /// mode): throws on the first corrupted frame and on salvaged readers
  /// holding incomplete fields — degraded decode is the explicit opt-in
  /// below.
  BatchDecompressResult decompress(const ArchiveReader& reader,
                                   const core::DecoderConfig& decoder = {},
                                   const CancelToken& cancel = {}) const;

  // The value-only reads below return no model seconds, so their chunk
  // tasks decode on the host (sz::host_decompress_into): same floats, no
  // SimContext.

  /// Degraded (opt-in) decompress: same per-chunk parallel fan-out, but
  /// damage is contained per chunk instead of aborting the batch — a chunk
  /// whose frame is missing (salvaged hole) or fails CRC/decode is
  /// zero-filled and reported, never surfaced. Works on strict readers too,
  /// where it quarantines payload corruption the index did not protect
  /// against. Identical for any worker count.
  PartialBatchDecompress decompress_partial(const ArchiveReader& reader) const;

  /// Decodes exactly the elements [elem_begin, elem_end) of one field. A
  /// range inside one chunk (a chunk read is one) decodes on the calling
  /// thread. A longer range fans out one pool task per overlapping chunk,
  /// as decompress does: each task fetches its own frame and writes its
  /// chunk's window of the result in place, so at most one frame per
  /// worker is resident. Same floats for any worker count. STRICT: a
  /// salvaged-incomplete field throws ContainerError (decompress_partial
  /// reports its holes), and so does a corrupted frame.
  std::vector<float> decode_range(const ArchiveReader& reader,
                                  std::size_t field, std::uint64_t elem_begin,
                                  std::uint64_t elem_end,
                                  const CancelToken& cancel = {}) const;

 private:
  ThreadPool& pool_;
};

}  // namespace ohd::pipeline

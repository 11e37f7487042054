#include "pipeline/batch.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "cudasim/exec.hpp"
#include "obs/trace.hpp"
#include "pipeline/wire_format.hpp"
#include "sz/serialize.hpp"

namespace ohd::pipeline {

double BatchDecompressResult::makespan(std::size_t workers) const {
  if (workers == 0) workers = 1;
  std::vector<double> busy(workers, 0.0);
  for (double s : chunk_seconds) {
    std::size_t w = 0;
    for (std::size_t i = 1; i < busy.size(); ++i) {
      if (busy[i] < busy[w]) w = i;
    }
    busy[w] += s;
  }
  return *std::max_element(busy.begin(), busy.end());
}

namespace {

// Scheduler-wide aggregates; per-chunk task latencies record from worker
// threads, phase spans from the collecting thread.
struct BatchMetrics {
  obs::LatencyHistogram& quantize_ns;
  obs::LatencyHistogram& encode_ns;
  obs::LatencyHistogram& decode_ns;
  obs::Counter& chunks_encoded;
  obs::Counter& chunks_decoded;
};

BatchMetrics& batch_metrics() {
  static BatchMetrics m{obs::registry().histogram("batch.quantize_ns"),
                        obs::registry().histogram("batch.encode_ns"),
                        obs::registry().histogram("batch.decode_ns"),
                        obs::registry().counter("batch.chunks_encoded"),
                        obs::registry().counter("batch.chunks_decoded")};
  return m;
}

/// A frame fetched with read_frame_unverified, held under a residency lease
/// for as long as it stays resident, so the reader's peak_frame_bytes()
/// observes the batch paths' frames too. Parsing it (parse_chunk_frame)
/// checks the CRC.
struct LeasedFrame {
  LeasedFrame(const ArchiveReader& r, std::vector<std::uint8_t> b)
      : lease(r, b.size()), bytes(std::move(b)) {}
  FrameResidency lease;
  std::vector<std::uint8_t> bytes;
};

/// Blocks until every still-pending future in `futures` has run (get()
/// invalidates futures, so only un-collected ones are waited). Exception
/// unwinding must never leave the scope of a fan-out while tasks still hold
/// references into it.
template <typename T>
void wait_all(std::vector<std::future<T>>& futures) noexcept {
  for (auto& fut : futures) {
    if (fut.valid()) fut.wait();
  }
}

/// Strict reads refuse a salvaged field with holes up front, before any
/// task runs: a fan-out would otherwise decode the recovered chunks and
/// silently leave the holes zero-filled.
void require_complete(const ArchiveReader& reader, std::size_t field) {
  if (!reader.field_complete(field)) {
    throw ContainerError("field '" + reader.fields()[field].name +
                         "' was salvaged incomplete; use decompress_partial");
  }
}

/// Host-decodes one chunk's blob and writes its elements [first, first +
/// dest.size()) into `dest`: straight in when `dest` is the whole chunk,
/// through a chunk-sized scratch vector at a range's ragged ends.
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

/// Collects one field's degraded-decode tasks in chunk order into its
/// hole-tolerant report. Each task returns its chunk's failure detail (no
/// value when the chunk decoded); element gaps left by chunks the salvage
/// never recovered become Missing entries.
FieldReport collect_field_report(
    const ArchiveReader& reader, std::size_t field,
    std::vector<std::future<std::optional<std::string>>>& chunk_errors) {
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
    if (std::optional<std::string> error = chunk_errors[c].get()) {
      cr.status = ChunkStatus::Corrupt;
      cr.detail = std::move(*error);
    } else {
      cr.status = ChunkStatus::Ok;
      report.elems_ok += cr.elem_count;
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

}  // namespace

void BatchScheduler::compress_to(ArchiveWriter& writer,
                                 std::span<const FieldSpec> specs,
                                 const CancelToken& cancel) const {
  // A planned field's quantize tasks also PROBE their chunk (histogram +
  // canonical lengths + statistics) in the pool, so only the cheap pooled
  // work of plan_from_probes stays on the collecting thread.
  struct ProbedChunk {
    sz::QuantizedField q;
    ChunkProbe probe;
  };
  struct FieldState {
    double abs_eb = 0.0;
    std::vector<ChunkExtent> layout;
    bool planned = false;  // two-fan-out path (auto method / shared codebook)
    // Fused path: one task per chunk produces the frame directly. Planned
    // path: quantize+probe futures feed plan_from_probes, then encode
    // futures.
    std::vector<std::future<std::vector<std::uint8_t>>> frames;
    std::vector<std::future<ProbedChunk>> quants;
    std::vector<sz::QuantizedField> quantized;  // collected, then moved out
    FieldPlan plan;
    std::shared_ptr<const huffman::Codebook> shared;
    std::vector<ChunkMeta> meta;
  };

  // Phase 1: validate EVERY spec — and the writer's session state — before
  // any task is submitted: once the fan-out starts, the only exceptions left
  // are ones thrown by the chunk tasks themselves. (The writer re-validates
  // as frames stream in, but by then failing would abandon a half-written
  // session after compressing the whole corpus.)
  if (writer.finished()) {
    throw ContainerError("compress_to on a finished archive session");
  }
  if (writer.field_open()) {
    throw ContainerError("compress_to with an unclosed field session");
  }
  std::vector<FieldState> states(specs.size());
  for (std::size_t fi = 0; fi < specs.size(); ++fi) {
    const FieldSpec& spec = specs[fi];
    if (spec.data.size() != spec.dims.count()) {
      throw ContainerError("field '" + spec.name +
                           "': data size does not match dimensions");
    }
    if (spec.config.method == core::Method::GapArrayOriginal8Bit) {
      throw ContainerError(
          "the 8-bit gap-array method is decode-only and cannot reconstruct "
          "float fields; pick a multi-byte method for container fields");
    }
    if (spec.config.radius == 0) {
      throw ContainerError("field '" + spec.name + "': zero quantizer radius");
    }
    for (const FieldEntry& written : writer.fields()) {
      if (written.name == spec.name) {
        throw ContainerError("duplicate field name '" + spec.name + "'");
      }
    }
    for (std::size_t fj = 0; fj < fi; ++fj) {
      if (specs[fj].name == spec.name) {
        throw ContainerError("duplicate field name '" + spec.name + "'");
      }
    }
    states[fi].abs_eb =
        sz::resolve_error_bound(spec.data, spec.config.rel_error_bound);
    states[fi].layout = chunk_layout(spec.dims, spec.chunk_elems);
    states[fi].planned =
        spec.plan.auto_method || spec.plan.shared_codebook;
  }

  // Phase 2: fan out ALL chunk tasks (field-major), so chunks of different
  // fields overlap in the pool. Planned fields fan out QUANTIZE tasks; their
  // plan is computed on this thread once the field's quantized chunks are
  // all in (deterministic — a pure function of the field), and the encode
  // tasks fan out immediately after, overlapping with other fields' work.
  // Phase 3: stream frames into the writer in deterministic (field, chunk)
  // order as their futures complete — the sink sees the bytes while later
  // chunks are still compressing, and nothing accumulates beyond the frame
  // currently being handed over. On ANY failure — submit or collect — wait
  // out the remaining tasks before unwinding destroys states/specs.
  const obs::ScopedOp batch_op("batch.compress");
  try {
    for (std::size_t fi = 0; fi < specs.size(); ++fi) {
      const FieldSpec& spec = specs[fi];
      FieldState& state = states[fi];
      // Task-boundary cancellation, mirrored from decompress: stop
      // fanning out new chunk tasks, and every submitted task re-checks at
      // entry so cancels land between chunks.
      cancel.throw_if_cancelled();
      if (state.planned) {
        state.quants.reserve(state.layout.size());
        for (const ChunkExtent& extent : state.layout) {
          state.quants.push_back(pool_.submit([&spec, &state, &cancel, extent] {
            cancel.throw_if_cancelled();
            const obs::ScopedOp op(
                "batch.quantize", &batch_metrics().quantize_ns);
            ProbedChunk out;
            out.q = sz::quantize_with_abs_bound(
                spec.data.subspan(extent.elem_offset, extent.dims.count()),
                extent.dims, state.abs_eb, spec.config);
            out.probe = probe_chunk(out.q);
            return out;
          }));
        }
      } else {
        state.frames.reserve(state.layout.size());
        for (const ChunkExtent& extent : state.layout) {
          state.frames.push_back(pool_.submit([&spec, &state, &cancel, extent] {
            cancel.throw_if_cancelled();
            // Fused path: quantize + encode in one task, charged as encode.
            const obs::ScopedOp op("batch.encode", &batch_metrics().encode_ns);
            const auto blob = sz::compress_with_abs_bound(
                spec.data.subspan(extent.elem_offset, extent.dims.count()),
                extent.dims, state.abs_eb, spec.config);
            return sz::serialize_blob(blob);
          }));
        }
      }
    }
    for (std::size_t fi = 0; fi < specs.size(); ++fi) {
      const FieldSpec& spec = specs[fi];
      FieldState& state = states[fi];
      if (!state.planned) continue;
      // Covers collecting the field's quantize futures plus the pooled plan
      // itself — the stretch where the collecting thread gates the fan-out.
      const obs::ScopedOp plan_op("batch.plan");
      state.quantized.reserve(state.quants.size());
      std::vector<ChunkProbe> probes;
      probes.reserve(state.quants.size());
      for (auto& fut : state.quants) {
        ProbedChunk chunk = fut.get();
        state.quantized.push_back(std::move(chunk.q));
        probes.push_back(std::move(chunk.probe));
      }
      const MethodSelector selector(spec.config.decoder);
      state.plan = plan_from_probes(std::move(probes), spec.config.method,
                                    spec.plan, selector);
      if (state.plan.has_shared_codebook) {
        state.shared = std::make_shared<const huffman::Codebook>(
            std::move(state.plan.shared_codebook));
      }
      state.meta.reserve(state.layout.size());
      state.frames.reserve(state.layout.size());
      for (std::size_t ci = 0; ci < state.layout.size(); ++ci) {
        cancel.throw_if_cancelled();
        const ChunkPlan& cp = state.plan.chunks[ci];
        state.meta.push_back({cp.method, cp.use_shared_codebook
                                             ? CodebookRef::SharedField
                                             : CodebookRef::Private});
        state.frames.push_back(pool_.submit([&spec, &state, &cancel, ci] {
          cancel.throw_if_cancelled();
          const obs::ScopedOp op("batch.encode", &batch_metrics().encode_ns);
          return encode_planned_chunk(std::move(state.quantized[ci]),
                                      state.plan.chunks[ci], spec.config,
                                      state.shared.get());
        }));
      }
    }
    const obs::ScopedOp write_op("batch.write");
    for (std::size_t fi = 0; fi < specs.size(); ++fi) {
      const FieldSpec& spec = specs[fi];
      FieldState& state = states[fi];
      ArchiveFieldSpec field_spec;
      field_spec.name = spec.name;
      field_spec.dims = spec.dims;
      field_spec.abs_error_bound = state.abs_eb;
      field_spec.radius = spec.config.radius;
      field_spec.method = spec.config.method;
      field_spec.shared_codebook = state.shared;
      writer.begin_field(field_spec);
      for (std::size_t ci = 0; ci < state.frames.size(); ++ci) {
        // Between streamed chunks: a cancelled compress abandons the writer
        // session mid-stream (documented in the header), after waiting out
        // the still-running tasks in the catch below.
        cancel.throw_if_cancelled();
        const std::vector<std::uint8_t> frame = state.frames[ci].get();
        writer.write_chunk(state.layout[ci], frame,
                           state.meta.empty()
                               ? ChunkMeta{spec.config.method,
                                           CodebookRef::Private}
                               : state.meta[ci]);
      }
      writer.end_field();
      batch_metrics().chunks_encoded.add(state.frames.size());
    }
  } catch (...) {
    for (FieldState& state : states) {
      wait_all(state.quants);
      wait_all(state.frames);
    }
    throw;
  }
}

std::vector<std::uint8_t> BatchScheduler::compress(
    std::span<const FieldSpec> specs, const CancelToken& cancel) const {
  MemorySink sink;
  ArchiveWriter writer(sink);
  compress_to(writer, specs, cancel);
  writer.finish();
  return sink.take();
}

BatchDecompressResult BatchScheduler::decompress(
    const ArchiveReader& reader, const core::DecoderConfig& decoder,
    const CancelToken& cancel) const {
  const std::vector<FieldEntry>& fields = reader.fields();
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    require_complete(reader, fi);
  }
  // Fan out, then collect in deterministic (field, chunk) order. Every
  // field buffer is allocated BEFORE the fan-out and each task fetches its
  // frame and reconstructs its chunk straight into its (disjoint) slice via
  // the fused decode-write path, so frame IO overlaps other tasks' decode
  // and floats are written once, in place, by whichever worker decodes the
  // chunk — bit-identical for any worker count, with no per-chunk float
  // vector or merge copy. A chunk task catches its own failure and returns
  // it as a value, so get() moves the exception to this thread and the
  // worker that drops the task never frees it; it is rethrown here with
  // its type intact. On any failure — a submit throw or a chunk's error —
  // wait out the remaining tasks before unwinding: they still reference
  // `reader`, `decoder`, and the output buffers.
  const obs::ScopedOp batch_op("batch.decompress");
  using ChunkOutcome =
      std::variant<sz::DecompressionResult, std::exception_ptr>;
  std::vector<std::vector<std::future<ChunkOutcome>>> futures(fields.size());
  BatchDecompressResult out;
  out.fields.resize(fields.size());
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    out.fields[fi].name = fields[fi].name;
    out.fields[fi].decode.data.resize(fields[fi].dims.count());
  }
  try {
    for (std::size_t fi = 0; fi < fields.size(); ++fi) {
      // Task-boundary cancellation: stop fanning out new chunk tasks, and
      // every already-submitted task re-checks at entry, so a cancel lands
      // between chunks — never inside one.
      cancel.throw_if_cancelled();
      const FieldEntry& entry = fields[fi];
      batch_metrics().chunks_decoded.add(entry.chunks.size());
      futures[fi].reserve(entry.chunks.size());
      for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
        const std::span<float> dest(
            out.fields[fi].decode.data.data() + entry.chunks[ci].elem_offset,
            entry.chunks[ci].dims.count());
        futures[fi].push_back(pool_.submit(
            [&reader, &decoder, &cancel, fi, ci, dest]() -> ChunkOutcome {
              try {
                cancel.throw_if_cancelled();
                // Fetch + decode + reconstruct of one chunk: the reader's
                // own "reader.frame_fetch" span nests under this one.
                const obs::ScopedOp op(
                    "batch.decode", &batch_metrics().decode_ns);
                cudasim::SimContext ctx;
                return reader.decode_chunk_into(ctx, fi, ci, dest, decoder);
              } catch (...) {
                return std::current_exception();
              }
            }));
      }
    }
    for (std::size_t fi = 0; fi < fields.size(); ++fi) {
      FieldResult& field = out.fields[fi];
      for (auto& fut : futures[fi]) {
        ChunkOutcome outcome = fut.get();
        if (auto* error = std::get_if<std::exception_ptr>(&outcome)) {
          std::rethrow_exception(*error);
        }
        field.decode.absorb_timings(std::get<sz::DecompressionResult>(outcome));
      }
      out.phases += field.decode.huffman_phases;
      out.simulated_seconds += field.decode.simulated_seconds;
      out.chunk_seconds.insert(out.chunk_seconds.end(),
                               field.decode.chunk_seconds.begin(),
                               field.decode.chunk_seconds.end());
    }
  } catch (...) {
    for (auto& field_futures : futures) wait_all(field_futures);
    throw;
  }
  obs::absorb_phase_timings(obs::registry(), out.phases);
  return out;
}

PartialBatchDecompress BatchScheduler::decompress_partial(
    const ArchiveReader& reader) const {
  // Same pre-allocated per-chunk fan-out as decompress, on the host path,
  // but each task quarantines its own chunk: a CRC/parse/decode/retry-
  // exhaustion failure zero-fills its slice and comes back as the task's
  // value, so the batch goes on and no exception object crosses threads.
  // Salvage holes become Missing entries. The report is assembled on the
  // collecting thread in (field, chunk) order, so it — like the floats — is
  // identical for any worker count.
  const std::vector<FieldEntry>& fields = reader.fields();
  PartialBatchDecompress out;
  out.values.resize(fields.size());
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    out.values[fi].assign(fields[fi].dims.count(), 0.0f);
  }
  std::vector<std::vector<std::future<std::optional<std::string>>>> futures(
      fields.size());
  try {
    for (std::size_t fi = 0; fi < fields.size(); ++fi) {
      const FieldEntry& entry = fields[fi];
      futures[fi].reserve(entry.chunks.size());
      for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
        const std::span<float> dest(
            out.values[fi].data() + entry.chunks[ci].elem_offset,
            entry.chunks[ci].dims.count());
        futures[fi].push_back(pool_.submit(
            [&reader, &entry, fi, ci, dest]() -> std::optional<std::string> {
              const obs::ScopedOp op("batch.decode",
                                     &batch_metrics().decode_ns);
              try {
                const LeasedFrame frame(reader,
                                        reader.read_frame_unverified(fi, ci));
                sz::host_decompress_into(
                    wire::parse_chunk_frame(entry, ci, frame.bytes), dest);
                return std::nullopt;
              } catch (const std::invalid_argument& e) {
                // The slice may hold a partial decode: never surface bytes
                // that failed verification.
                std::fill(dest.begin(), dest.end(), 0.0f);
                return e.what();
              }
            }));
      }
    }
    for (std::size_t fi = 0; fi < fields.size(); ++fi) {
      out.report.fields.push_back(
          collect_field_report(reader, fi, futures[fi]));
    }
  } catch (...) {
    for (auto& field_futures : futures) wait_all(field_futures);
    throw;
  }
  return out;
}

std::vector<float> BatchScheduler::decode_range(
    const ArchiveReader& reader, std::size_t field, std::uint64_t elem_begin,
    std::uint64_t elem_end, const CancelToken& cancel) const {
  require_complete(reader, field);  // bounds-checks `field` too
  const FieldEntry& f = reader.fields()[field];
  if (elem_begin > elem_end || elem_end > f.dims.count()) {
    throw ContainerError("element range out of bounds");
  }
  const obs::ScopedOp range_op("batch.decode_range");
  std::vector<float> out(elem_end - elem_begin);
  if (out.empty()) return out;  // also keeps the chunk lookup in the field

  // The chunks overlapping the range are [first, last): a complete field's
  // chunks tile it in element order.
  const auto chunk_end = [&f](std::size_t c) {
    return f.chunks[c].elem_offset + f.chunks[c].dims.count();
  };
  std::size_t first = 0;
  while (chunk_end(first) <= elem_begin) ++first;
  std::size_t last = first + 1;
  while (last < f.chunks.size() && f.chunks[last].elem_offset < elem_end) {
    ++last;
  }
  // The fetch checks no CRC: parse_chunk_frame does, so the bytes are hashed
  // once, by whichever thread decodes them.
  const auto fetch = [&](std::size_t c) {
    return std::make_shared<const LeasedFrame>(
        reader, reader.read_frame_unverified(field, c));
  };
  // Chunk c's decode writes its share of the range in place, into its
  // window of `out` (disjoint from every other chunk's window).
  const auto decode = [&](std::size_t c,
                          std::shared_ptr<const LeasedFrame> frame) {
    const sz::CompressedBlob blob = wire::parse_chunk_frame(f, c, frame->bytes);
    // The blob owns its data: drop the frame (and its residency lease)
    // before the decode, and before a pool task's future can become ready.
    frame.reset();
    const std::uint64_t lo = std::max(f.chunks[c].elem_offset, elem_begin);
    const std::uint64_t hi = std::min(chunk_end(c), elem_end);
    host_decode_window(blob, lo - f.chunks[c].elem_offset,
                       std::span<float>(out).subspan(lo - elem_begin, hi - lo));
  };

  if (last - first == 1) {
    // A range inside one chunk has no fetch to overlap with a decode, so it
    // decodes on the calling thread: no pool round trip, and a busy pool
    // cannot delay it.
    cancel.throw_if_cancelled();
    decode(first, fetch(first));
    return out;
  }

  // Backpressure: at most `window` frames in flight — the prefetch runs
  // ahead of decode by a bounded margin, so a range spanning many chunks
  // stays at O(window * frame), never O(range).
  const std::size_t window = std::max<std::size_t>(2, 2 * pool_.size());
  std::vector<std::future<void>> futures;
  // Reserve up front: a push_back reallocation throwing AFTER submit would
  // orphan an enqueued task that still writes into `out` (the same reason
  // decompress reserves before its fan-out).
  futures.reserve(last - first);
  std::size_t collected = 0;
  try {
    for (std::size_t c = first; c < last; ++c) {
      // Between prefetch steps: stop fetching further frames once cancelled;
      // decode tasks for frames already in flight re-check at entry.
      cancel.throw_if_cancelled();
      while (futures.size() - collected >= window) futures[collected++].get();
      // Prefetch: the frame's IO happens here, on the calling thread, while
      // the decode tasks of previously fetched chunks run on the pool.
      futures.push_back(pool_.submit(
          [&decode, &cancel, c, frame = fetch(c)]() mutable {
            cancel.throw_if_cancelled();
            decode(c, std::move(frame));
          }));
    }
    while (collected < futures.size()) futures[collected++].get();
  } catch (...) {
    wait_all(futures);
    throw;
  }
  return out;
}

}  // namespace ohd::pipeline

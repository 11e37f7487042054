#include "pipeline/batch.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
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

/// One fan-out of chunk tasks over the pool, collected in submission order.
/// A task's result, or the exception it threw, comes back to the collecting
/// thread as a value: take() returns the next task's result or rethrows its
/// exception there, with its type intact, so a worker never frees an
/// exception that the collecting thread reads. The destructor waits out
/// (and drops, on this thread) every task not yet taken, so unwinding never
/// leaves the scope while a task still references it: declare the fan-out
/// after everything its tasks capture.
template <typename T = std::monostate>
class ChunkFanOut {
 public:
  /// Reserves every slot up front: a reallocation that threw after a submit
  /// would orphan an enqueued task.
  ChunkFanOut(ThreadPool& pool, std::size_t tasks) : pool_(pool) {
    slots_.reserve(tasks);
  }
  ~ChunkFanOut() {
    while (taken_ < slots_.size()) (void)slots_[taken_++].get();
  }
  ChunkFanOut(const ChunkFanOut&) = delete;
  ChunkFanOut& operator=(const ChunkFanOut&) = delete;

  /// Enqueues `fn`; a task that returns nothing yields T{}.
  template <typename Fn>
  void submit(Fn fn) {
    slots_.push_back(pool_.submit([fn = std::move(fn)]() -> Outcome {
      try {
        if constexpr (std::is_void_v<decltype(fn())>) {
          fn();
          return T{};
        } else {
          return fn();
        }
      } catch (...) {
        return std::current_exception();
      }
    }));
  }

  /// Waits for the next task in submission order and returns its result,
  /// or rethrows its exception.
  T take() {
    Outcome outcome = slots_[taken_++].get();
    if (auto* error = std::get_if<std::exception_ptr>(&outcome)) {
      std::rethrow_exception(*error);
    }
    return std::get<T>(std::move(outcome));
  }

 private:
  using Outcome = std::variant<T, std::exception_ptr>;
  ThreadPool& pool_;
  std::vector<std::future<Outcome>> slots_;
  std::size_t taken_ = 0;
};

/// The host chunk read of the value-only paths: fetches the chunk's frame
/// without a CRC check under a residency lease, so the reader's
/// peak_frame_bytes() observes it; parses it (parse_chunk_frame checks the
/// CRC, so the bytes are hashed once, by the decoding thread); then decodes
/// the chunk's elements [first, first + dest.size()) into `dest`: straight
/// in when `dest` is the whole chunk, through a chunk-sized scratch vector
/// at a range's ragged ends.
void host_read_chunk(const ArchiveReader& reader, std::size_t field,
                     std::size_t chunk, std::uint64_t first,
                     std::span<float> dest) {
  // The blob owns its data: the frame and its lease go before the decode.
  const sz::CompressedBlob blob = [&] {
    const std::vector<std::uint8_t> frame =
        reader.read_frame_unverified(field, chunk);
    const FrameResidency lease(reader, frame.size());
    return wire::parse_chunk_frame(reader.fields()[field], chunk, frame);
  }();
  if (first == 0 && dest.size() == blob.dims.count()) {
    sz::host_decompress_into(blob, dest);
    return;
  }
  std::vector<float> values(blob.dims.count());
  sz::host_decompress_into(blob, values);
  std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(first),
              dest.size(), dest.begin());
}

/// Takes one field's degraded-decode tasks from `tasks` in chunk order into
/// its hole-tolerant report. A chunk whose task threw a decode error is
/// Corrupt, with its slice of `values` zero-filled; element gaps left by
/// chunks the salvage never recovered become Missing entries.
FieldReport collect_field_report(const ArchiveReader& reader,
                                 std::size_t field, std::span<float> values,
                                 ChunkFanOut<>& tasks) {
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
    try {
      tasks.take();
      cr.status = ChunkStatus::Ok;
      report.elems_ok += cr.elem_count;
    } catch (const std::invalid_argument& e) {
      // The slice may hold a partial decode: never surface bytes that
      // failed verification.
      std::fill_n(values.begin() + static_cast<std::ptrdiff_t>(cr.elem_offset),
                  cr.elem_count, 0.0f);
      cr.status = ChunkStatus::Corrupt;
      cr.detail = e.what();
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
  std::size_t fused_chunks = 0;
  std::size_t planned_chunks = 0;
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
    (states[fi].planned ? planned_chunks : fused_chunks) +=
        states[fi].layout.size();
  }

  // Phase 2: fan out ALL chunk tasks (field-major), so chunks of different
  // fields overlap in the pool. Fused fields fan out one quantize+encode task
  // per chunk. Planned fields fan out QUANTIZE tasks; their plan is computed
  // on this thread once the field's quantized chunks are all in
  // (deterministic — a pure function of the field), and the encode tasks fan
  // out immediately after, overlapping with other fields' work. Each of the
  // three fan-outs is taken in field-major order.
  // Phase 3: stream frames into the writer in deterministic (field, chunk)
  // order as their tasks complete — the sink sees the bytes while later
  // chunks are still compressing, and nothing accumulates beyond the frame
  // currently being handed over.
  const obs::ScopedOp batch_op("batch.compress");
  ChunkFanOut<std::vector<std::uint8_t>> fused(pool_, fused_chunks);
  ChunkFanOut<ProbedChunk> probed(pool_, planned_chunks);
  ChunkFanOut<std::vector<std::uint8_t>> encoded(pool_, planned_chunks);
  for (std::size_t fi = 0; fi < specs.size(); ++fi) {
    const FieldSpec& spec = specs[fi];
    FieldState& state = states[fi];
    // Task-boundary cancellation, mirrored from decompress: stop fanning out
    // new chunk tasks, and every submitted task re-checks at entry so
    // cancels land between chunks.
    cancel.throw_if_cancelled();
    for (const ChunkExtent& extent : state.layout) {
      const std::span<const float> data =
          spec.data.subspan(extent.elem_offset, extent.dims.count());
      if (state.planned) {
        probed.submit([&spec, &state, &cancel, extent, data] {
          cancel.throw_if_cancelled();
          const obs::ScopedOp op("batch.quantize",
                                 &batch_metrics().quantize_ns);
          ProbedChunk out;
          out.q = sz::quantize_with_abs_bound(data, extent.dims, state.abs_eb,
                                              spec.config);
          out.probe = probe_chunk(out.q);
          return out;
        });
      } else {
        fused.submit([&spec, &state, &cancel, extent, data] {
          cancel.throw_if_cancelled();
          // Fused path: quantize + encode in one task, charged as encode.
          const obs::ScopedOp op("batch.encode", &batch_metrics().encode_ns);
          return sz::serialize_blob(sz::compress_with_abs_bound(
              data, extent.dims, state.abs_eb, spec.config));
        });
      }
    }
  }
  for (std::size_t fi = 0; fi < specs.size(); ++fi) {
    const FieldSpec& spec = specs[fi];
    FieldState& state = states[fi];
    if (!state.planned) continue;
    // Covers collecting the field's quantize tasks plus the pooled plan
    // itself — the stretch where the collecting thread gates the fan-out.
    const obs::ScopedOp plan_op("batch.plan");
    state.quantized.reserve(state.layout.size());
    std::vector<ChunkProbe> probes;
    probes.reserve(state.layout.size());
    for (std::size_t ci = 0; ci < state.layout.size(); ++ci) {
      ProbedChunk chunk = probed.take();
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
    for (std::size_t ci = 0; ci < state.layout.size(); ++ci) {
      cancel.throw_if_cancelled();
      const ChunkPlan& cp = state.plan.chunks[ci];
      state.meta.push_back({cp.method, cp.use_shared_codebook
                                           ? CodebookRef::SharedField
                                           : CodebookRef::Private});
      encoded.submit([&spec, &state, &cancel, ci] {
        cancel.throw_if_cancelled();
        const obs::ScopedOp op("batch.encode", &batch_metrics().encode_ns);
        return encode_planned_chunk(std::move(state.quantized[ci]),
                                    state.plan.chunks[ci], spec.config,
                                    state.shared.get());
      });
    }
  }
  const obs::ScopedOp write_op("batch.write");
  for (std::size_t fi = 0; fi < specs.size(); ++fi) {
    const FieldSpec& spec = specs[fi];
    const FieldState& state = states[fi];
    ArchiveFieldSpec field_spec;
    field_spec.name = spec.name;
    field_spec.dims = spec.dims;
    field_spec.abs_error_bound = state.abs_eb;
    field_spec.radius = spec.config.radius;
    field_spec.method = spec.config.method;
    field_spec.shared_codebook = state.shared;
    writer.begin_field(field_spec);
    for (std::size_t ci = 0; ci < state.layout.size(); ++ci) {
      // Between streamed chunks: a cancelled compress abandons the writer
      // session mid-stream (documented in the header), after the fan-outs
      // wait out the still-running tasks.
      cancel.throw_if_cancelled();
      const std::vector<std::uint8_t> frame =
          state.planned ? encoded.take() : fused.take();
      writer.write_chunk(state.layout[ci], frame,
                         state.planned ? state.meta[ci]
                                       : ChunkMeta{spec.config.method,
                                                   CodebookRef::Private});
    }
    writer.end_field();
    batch_metrics().chunks_encoded.add(state.layout.size());
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
  std::size_t chunks = 0;
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    reader.require_complete(fi);
    chunks += fields[fi].chunks.size();
  }
  // Fan out, then collect in deterministic (field, chunk) order. Every
  // field buffer is allocated BEFORE the fan-out and each task fetches its
  // frame and reconstructs its chunk straight into its (disjoint) slice via
  // the fused decode-write path, so frame IO overlaps other tasks' decode
  // and floats are written once, in place, by whichever worker decodes the
  // chunk — bit-identical for any worker count, with no per-chunk float
  // vector or merge copy. A chunk's failure is rethrown here, on the
  // collecting thread, with its type intact.
  const obs::ScopedOp batch_op("batch.decompress");
  BatchDecompressResult out;
  out.fields.resize(fields.size());
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    out.fields[fi].name = fields[fi].name;
    out.fields[fi].decode.data.resize(fields[fi].dims.count());
  }
  ChunkFanOut<sz::DecompressionResult> tasks(pool_, chunks);
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    // Task-boundary cancellation: stop fanning out new chunk tasks, and
    // every already-submitted task re-checks at entry, so a cancel lands
    // between chunks — never inside one.
    cancel.throw_if_cancelled();
    const FieldEntry& entry = fields[fi];
    batch_metrics().chunks_decoded.add(entry.chunks.size());
    for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
      const std::span<float> dest(
          out.fields[fi].decode.data.data() + entry.chunks[ci].elem_offset,
          entry.chunks[ci].dims.count());
      tasks.submit([&reader, &decoder, &cancel, fi, ci, dest] {
        cancel.throw_if_cancelled();
        // Fetch + decode + reconstruct of one chunk: the reader's own
        // "reader.frame_fetch" span nests under this one.
        const obs::ScopedOp op("batch.decode", &batch_metrics().decode_ns);
        cudasim::SimContext ctx;
        return reader.decode_chunk_into(ctx, fi, ci, dest, decoder);
      });
    }
  }
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    FieldResult& field = out.fields[fi];
    for (std::size_t ci = 0; ci < fields[fi].chunks.size(); ++ci) {
      field.decode.absorb_timings(tasks.take());
    }
    out.phases += field.decode.huffman_phases;
    out.simulated_seconds += field.decode.simulated_seconds;
    out.chunk_seconds.insert(out.chunk_seconds.end(),
                             field.decode.chunk_seconds.begin(),
                             field.decode.chunk_seconds.end());
  }
  obs::absorb_phase_timings(obs::registry(), out.phases);
  return out;
}

PartialBatchDecompress BatchScheduler::decompress_partial(
    const ArchiveReader& reader) const {
  // Same pre-allocated per-chunk fan-out as decompress, on the host path,
  // but each chunk is quarantined on its own: a CRC/parse/decode/retry-
  // exhaustion failure zero-fills its slice and becomes its report entry,
  // so the batch goes on. Salvage holes become Missing entries. The report
  // is assembled on the collecting thread in (field, chunk) order, so it —
  // like the floats — is identical for any worker count.
  const std::vector<FieldEntry>& fields = reader.fields();
  PartialBatchDecompress out;
  out.values.resize(fields.size());
  std::size_t chunks = 0;
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    out.values[fi].assign(fields[fi].dims.count(), 0.0f);
    chunks += fields[fi].chunks.size();
  }
  ChunkFanOut<> tasks(pool_, chunks);
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    const FieldEntry& entry = fields[fi];
    for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
      const std::span<float> dest(
          out.values[fi].data() + entry.chunks[ci].elem_offset,
          entry.chunks[ci].dims.count());
      tasks.submit([&reader, fi, ci, dest] {
        const obs::ScopedOp op("batch.decode", &batch_metrics().decode_ns);
        host_read_chunk(reader, fi, ci, 0, dest);
      });
    }
  }
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    out.report.fields.push_back(
        collect_field_report(reader, fi, out.values[fi], tasks));
  }
  return out;
}

std::vector<float> BatchScheduler::decode_range(
    const ArchiveReader& reader, std::size_t field, std::uint64_t elem_begin,
    std::uint64_t elem_end, const CancelToken& cancel) const {
  reader.require_complete(field);  // bounds-checks `field` too
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
  // Chunk c reads its share of the range in place, into its window of `out`
  // (disjoint from every other chunk's window).
  const auto read = [&](std::size_t c) {
    const std::uint64_t lo = std::max(f.chunks[c].elem_offset, elem_begin);
    const std::uint64_t hi = std::min(chunk_end(c), elem_end);
    host_read_chunk(reader, field, c, lo - f.chunks[c].elem_offset,
                    std::span<float>(out).subspan(lo - elem_begin, hi - lo));
  };

  if (last - first == 1) {
    // A range inside one chunk has nothing to overlap, so it decodes on the
    // calling thread: no pool round trip, and a busy pool cannot delay it.
    cancel.throw_if_cancelled();
    read(first);
    return out;
  }
  // A longer range fans out one task per chunk; each fetches its own frame,
  // as decompress's do, so at most one frame per worker is resident.
  ChunkFanOut<> tasks(pool_, last - first);
  for (std::size_t c = first; c < last; ++c) {
    cancel.throw_if_cancelled();
    tasks.submit([&read, &cancel, c] {
      cancel.throw_if_cancelled();
      read(c);
    });
  }
  for (std::size_t c = first; c < last; ++c) tasks.take();
  return out;
}

}  // namespace ohd::pipeline

// Multi-field batch archive over the STREAMING sessions: compress three
// datasets with different dims, methods, and error bounds straight to disk
// on a thread pool (frames hit the file as worker futures complete — no
// whole-archive memory image on the way out), then reopen the file
// footer-first and read it back three ways — full parallel batch decompress,
// random access to a single chunk, and a pooled range decode — all
// without ever materializing the archive bytes: peak archive residency is
// the index plus at most one in-flight frame per worker.
//
//   $ ./examples/batch_archive [path]    (default: /tmp/ohd_archive.bin)
#include <cstdio>
#include <string>
#include <vector>

#include "data/fields.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"
#include "sz/metrics.hpp"

int main(int argc, char** argv) {
  using namespace ohd;
  const std::string path = argc > 1 ? argv[1] : "/tmp/ohd_archive.bin";

  // Producer: three fields, three methods, three error bounds.
  const data::Field hacc = data::make_hacc(0.03);
  const data::Field cesm = data::make_cesm(0.03);
  const data::Field exaalt = data::make_exaalt(0.03);
  std::vector<pipeline::FieldSpec> specs(3);
  specs[0] = {hacc.name, hacc.data, hacc.dims, {}, 1u << 15, {}};
  specs[0].config.method = core::Method::GapArrayOptimized;
  specs[1] = {cesm.name, cesm.data, cesm.dims, {}, 1u << 15, {}};
  specs[1].config.method = core::Method::SelfSyncOptimized;
  specs[1].config.rel_error_bound = 1e-4;
  specs[2] = {exaalt.name, exaalt.data, exaalt.dims, {}, 1u << 15, {}};
  specs[2].config.method = core::Method::CuszNaive;
  specs[2].config.rel_error_bound = 5e-3;
  // Adaptive planning:
  // each chunk gets the cheapest decoder method for its local statistics,
  // and chunks reference a field-level shared codebook whenever that is
  // byte-cheaper than a private one.
  for (auto& spec : specs) {
    spec.plan.auto_method = true;
    spec.plan.shared_codebook = true;
  }

  pipeline::ThreadPool pool(4);
  pipeline::BatchScheduler scheduler(pool);
  std::uint64_t archive_bytes = 0;
  {
    // Compress-to-disk session: begin_field/write_chunk stream each frame as
    // its future completes; finish() appends the deferred index and footer.
    pipeline::FileSink sink(path);
    pipeline::ArchiveWriter writer(sink);
    scheduler.compress_to(writer, specs);
    archive_bytes = writer.finish();
    std::uint64_t raw = 0;
    for (const auto& s : specs) raw += s.data.size() * 4;
    std::printf("wrote %s: %llu bytes, %llu raw (%.2fx), %zu fields\n",
                path.c_str(), static_cast<unsigned long long>(archive_bytes),
                static_cast<unsigned long long>(raw),
                static_cast<double>(raw) / static_cast<double>(archive_bytes),
                writer.fields().size());
  }

  // Consumer: footer-first reopen. Only the index becomes resident; frames
  // are fetched lazily, one read + CRC check per chunk access.
  const pipeline::FileSource source(path);
  const pipeline::ArchiveReader reader(source);
  reader.verify();
  std::printf("reopened: %llu of %llu bytes resident (index+footer), "
              "largest frame %llu B\n",
              static_cast<unsigned long long>(reader.resident_bytes()),
              static_cast<unsigned long long>(archive_bytes),
              static_cast<unsigned long long>(reader.max_frame_bytes()));

  // 1. Full batch decompress on the pool: each task fetches its own frame,
  //    so file IO overlaps decode and residency stays bounded.
  const pipeline::BatchDecompressResult batch = scheduler.decompress(reader);
  const std::vector<const data::Field*> originals = {&hacc, &cesm, &exaalt};
  bool within_bounds = true;
  for (std::size_t i = 0; i < batch.fields.size(); ++i) {
    const auto stats = sz::compute_error_stats(originals[i]->data,
                                               batch.fields[i].decode.data);
    const double bound = reader.fields()[i].abs_error_bound;
    within_bounds = within_bounds && stats.max_abs_error <= bound * (1 + 1e-6);
    std::size_t shared_refs = 0;
    for (const auto& rec : reader.fields()[i].chunks) {
      shared_refs += rec.codebook_ref == pipeline::CodebookRef::SharedField;
    }
    std::printf(
        "  %-8s %8zu elems in %zu chunks (%zu on the shared codebook), "
        "max err %.3g (bound %.3g)\n",
        batch.fields[i].name.c_str(), batch.fields[i].decode.data.size(),
        reader.fields()[i].chunks.size(), shared_refs, stats.max_abs_error,
        bound);
  }
  std::printf("batch simulated decompress: %.3f ms total, %.3f ms on 4 "
              "simulated workers\n",
              batch.simulated_seconds * 1e3, batch.makespan(4) * 1e3);
  const std::uint64_t peak =
      reader.resident_bytes() + reader.peak_frame_bytes();
  const bool bounded =
      reader.peak_frame_bytes() <= 4 * reader.max_frame_bytes();
  std::printf("peak archive residency: %llu B (%.1f%% of the file) => "
              "streaming bound %s\n",
              static_cast<unsigned long long>(peak),
              100.0 * static_cast<double>(peak) /
                  static_cast<double>(archive_bytes),
              bounded ? "held" : "VIOLATED");

  // 2. Random access: one chunk of CESM — one frame read, nothing else.
  const std::size_t cesm_idx = reader.field_index(cesm.name);
  cudasim::SimContext chunk_ctx;
  const auto one = reader.decode_chunk(chunk_ctx, cesm_idx, 1);
  std::printf("random access: chunk 1 of %s -> %zu elems, %.3f ms simulated\n",
              cesm.name.c_str(), one.data.size(), one.total_seconds() * 1e3);

  // 3. Range decode: a window of HACC spanning a chunk boundary; each of
  //    the two chunks is fetched and decoded by its own pool task.
  const std::size_t hacc_idx = reader.field_index(hacc.name);
  const std::uint64_t lo = (1u << 15) - 1000, hi = (1u << 15) + 1000;
  const auto window = scheduler.decode_range(reader, hacc_idx, lo, hi);
  bool window_ok = window.size() == hi - lo;
  for (std::uint64_t i = 0; i < window.size() && window_ok; ++i) {
    window_ok = window[i] == batch.fields[hacc_idx].decode.data[lo + i];
  }
  std::printf("range decode: %s[%llu, %llu) -> %zu elems, matches batch: %s\n",
              hacc.name.c_str(), static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi), window.size(),
              window_ok ? "yes" : "NO");

  return within_bounds && window_ok && bounded ? 0 : 1;
}

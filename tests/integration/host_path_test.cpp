// Value path vs model path: every read that returns floats only decodes on
// the host (sz::host_decompress_into), and its floats must equal the
// simulated decode's bit for bit — the eight datasets (ranks 1-3) x the
// four float methods x whole-field and 4096-element chunks x private and
// shared codebooks, each value-only entry point against the matching slice
// of the model path's BatchScheduler::decompress, and every chunk's
// sz::decompress.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/fields.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "service/compression_service.hpp"

namespace ohd {
namespace {

std::vector<float> slice(const std::vector<float>& v, std::uint64_t begin,
                         std::uint64_t end) {
  return {v.begin() + static_cast<std::ptrdiff_t>(begin),
          v.begin() + static_cast<std::ptrdiff_t>(end)};
}

TEST(HostPath, ValueOnlyReadsMatchTheModelDecodeBitForBit) {
  const std::vector<data::Field> suite = data::evaluation_suite(0.02);
  pipeline::ThreadPool pool(2);
  const pipeline::BatchScheduler sched(pool);
  service::ServiceConfig cfg;
  cfg.workers = 2;
  service::CompressionService svc(cfg);
  const service::ClientId client = svc.open_client();
  for (const core::Method method :
       {core::Method::CuszNaive, core::Method::SelfSyncOriginal,
        core::Method::SelfSyncOptimized, core::Method::GapArrayOptimized}) {
    for (const bool chunked : {false, true}) {
      for (const bool shared : {false, true}) {
        SCOPED_TRACE(std::string(core::method_name(method)) +
                     (chunked ? ", 4096-element chunks" : ", whole fields") +
                     (shared ? ", shared codebook" : ", private codebooks"));
        std::vector<pipeline::FieldSpec> specs;
        for (const data::Field& f : suite) {
          pipeline::FieldSpec& spec = specs.emplace_back();
          spec.name = f.name;
          spec.data = f.data;
          spec.dims = f.dims;
          spec.config.method = method;
          spec.chunk_elems = chunked ? 4096 : f.data.size();
          spec.plan.shared_codebook = shared;
        }
        auto source = std::make_shared<pipeline::OwningMemorySource>(
            sched.compress(specs));
        const pipeline::ArchiveReader reader(*source);
        const service::ArchiveHandle handle = svc.open_archive(client, source);
        const pipeline::BatchDecompressResult decoded =
            sched.decompress(reader);
        const pipeline::PartialBatchDecompress partial =
            sched.decompress_partial(reader);
        ASSERT_TRUE(partial.report.complete());
        std::size_t shared_chunks = 0;
        for (std::size_t fi = 0; fi < suite.size(); ++fi) {
          SCOPED_TRACE(suite[fi].name + " (rank " +
                       std::to_string(suite[fi].dims.rank) + ")");
          const std::vector<float>& model = decoded.fields[fi].decode.data;
          const std::uint64_t n = model.size();
          EXPECT_EQ(partial.values[fi], model);
          EXPECT_EQ(sched.decode_range(reader, fi, 0, n), model);
          // Ragged ends inside chunks, and every chunk boundary between.
          const std::uint64_t lo = n / 3 + 1, hi = 2 * n / 3 + 7;
          const std::vector<float> window = slice(model, lo, hi);
          EXPECT_EQ(sched.decode_range(reader, fi, lo, hi), window);
          EXPECT_EQ(svc.submit_range(client, handle, fi, lo, hi).future.get(),
                    window);
          const auto& chunks = reader.fields()[fi].chunks;
          for (std::size_t c = 0; c < chunks.size(); ++c) {
            shared_chunks +=
                chunks[c].codebook_ref == pipeline::CodebookRef::SharedField;
            const std::vector<float> expect =
                slice(model, chunks[c].elem_offset,
                      chunks[c].elem_offset + chunks[c].dims.count());
            cudasim::SimContext chunk_ctx;
            EXPECT_EQ(reader.decode_chunk(chunk_ctx, fi, c).data, expect);
            EXPECT_EQ(svc.submit_chunk(client, handle, fi, c).future.get(),
                      expect);
          }
        }
        // The planner shares a codebook only where it pays, which takes
        // more than one chunk.
        EXPECT_EQ(shared_chunks > 0, shared && chunked);
        svc.close_archive(client, handle);
      }
    }
  }
}

}  // namespace
}  // namespace ohd

// Golden pin of the v3 archive bytes: for the eight datasets at scale 0.05,
// every float-capable method x {no planning, shared codebook} x {whole-field,
// 4096-element chunks} x {plain, recovery preambles}, the archive image must
// match archive_golden.inc in size and CRC-32 — built by
// BatchScheduler::compress_to on 1 worker and on 2. Per-chunk method
// selection (auto_method) is left out on purpose: its pricing model may
// move, the format may not.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "data/fields.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"
#include "util/checksum.hpp"

namespace ohd {
namespace {

struct Row {
  core::Method method;
  bool shared_codebook;
  bool chunked;
  bool preambles;
  std::uint64_t bytes;
  std::uint32_t crc32;
  bool operator==(const Row&) const = default;
};

const std::vector<Row> kGolden = {
#include "archive_golden.inc"
};

const char* enumerator(core::Method m) {
  switch (m) {
    case core::Method::CuszNaive: return "CuszNaive";
    case core::Method::SelfSyncOriginal: return "SelfSyncOriginal";
    case core::Method::SelfSyncOptimized: return "SelfSyncOptimized";
    case core::Method::GapArrayOriginal8Bit: return "GapArrayOriginal8Bit";
    case core::Method::GapArrayOptimized: return "GapArrayOptimized";
  }
  return "?";
}

/// The row in archive_golden.inc syntax.
std::string describe(const Row& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{core::Method::%s, %s, %s, %s, %lluu, 0x%08xu}",
                enumerator(r.method), r.shared_codebook ? "true" : "false",
                r.chunked ? "true" : "false", r.preambles ? "true" : "false",
                static_cast<unsigned long long>(r.bytes), r.crc32);
  return buf;
}

Row image_row(const Row& key, const std::vector<std::uint8_t>& image) {
  Row r = key;
  r.bytes = image.size();
  r.crc32 = util::crc32(image);
  return r;
}

TEST(ArchiveGolden, CompressToReproducesTheTableOnOneAndTwoWorkers) {
  const std::vector<data::Field> suite = data::evaluation_suite(0.05);
  ASSERT_EQ(kGolden.size(), 32u);
  for (const Row& golden : kGolden) {
    std::vector<pipeline::FieldSpec> specs;
    for (const data::Field& f : suite) {
      pipeline::FieldSpec spec;
      spec.name = f.name;
      spec.data = f.data;
      spec.dims = f.dims;
      spec.config.method = golden.method;
      spec.chunk_elems = golden.chunked ? 4096 : f.data.size();
      spec.plan.shared_codebook = golden.shared_codebook;
      specs.push_back(spec);
    }
    const pipeline::WriterOptions options{.recovery_preambles =
                                              golden.preambles};
    for (const std::size_t workers : {1, 2}) {
      pipeline::ThreadPool pool(workers);
      pipeline::MemorySink sink;
      pipeline::ArchiveWriter writer(sink, options);
      pipeline::BatchScheduler(pool).compress_to(writer, specs);
      writer.finish();
      const Row got = image_row(golden, sink.bytes());
      EXPECT_EQ(got, golden) << "on " << workers << " workers the row is now "
                             << describe(got);
    }
  }
}

}  // namespace
}  // namespace ohd

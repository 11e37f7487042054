// CancelToken + cooperative cancellation in the BatchScheduler fan-outs:
// inert tokens are free and never fire, live tokens share one flag across
// copies, a pre-cancelled token aborts compress/decompress/decode_range with
// OperationCancelled before work runs, and an UNCANCELLED live token leaves
// results bit-identical to a run without any token.
#include "pipeline/cancel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"

namespace ohd::pipeline {
namespace {

std::vector<float> make_field(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.004 * static_cast<double>(i)));
  }
  return v;
}

TEST(CancelToken, InertTokenNeverCancels) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  t.request_cancel();  // no-op on an inert token
  EXPECT_FALSE(t.cancelled());
  EXPECT_NO_THROW(t.throw_if_cancelled());
}

TEST(CancelToken, CopiesShareOneFlag) {
  CancelToken a = CancelToken::make();
  CancelToken b = a;
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.cancelled());
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_THROW(a.throw_if_cancelled(), OperationCancelled);
  a.request_cancel();  // idempotent
  EXPECT_TRUE(b.cancelled());
}

class BatchCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<float> data = make_field(20000);
    FieldSpec spec;
    spec.name = "f";
    spec.data = data;
    spec.dims = sz::Dims::d1(data.size());
    spec.chunk_elems = 2048;
    ThreadPool pool(2);
    archive_ = BatchScheduler(pool).compress(std::vector<FieldSpec>{spec});
    data_ = data;
  }

  std::vector<float> data_;
  std::vector<std::uint8_t> archive_;
};

TEST_F(BatchCancelTest, PreCancelledDecompressThrowsBeforeDecoding) {
  ThreadPool pool(2);
  BatchScheduler scheduler(pool);
  MemorySource src(archive_);
  ArchiveReader reader(src);
  CancelToken cancel = CancelToken::make();
  cancel.request_cancel();
  EXPECT_THROW(scheduler.decompress(reader, {}, cancel), OperationCancelled);
  EXPECT_THROW(
      scheduler.decode_range(reader, 0, 100, 5000, cancel),
      OperationCancelled);
}

TEST_F(BatchCancelTest, PreCancelledCompressAbandonsTheSession) {
  ThreadPool pool(2);
  BatchScheduler scheduler(pool);
  const std::vector<float> data = make_field(8192);
  FieldSpec spec;
  spec.name = "g";
  spec.data = data;
  spec.dims = sz::Dims::d1(data.size());
  spec.chunk_elems = 1024;
  CancelToken cancel = CancelToken::make();
  cancel.request_cancel();
  MemorySink sink;
  ArchiveWriter writer(sink);
  EXPECT_THROW(
      scheduler.compress_to(writer, std::vector<FieldSpec>{spec}, cancel),
      OperationCancelled);
}

TEST_F(BatchCancelTest, UncancelledTokenIsBitIdenticalToNoToken) {
  ThreadPool pool(3);
  BatchScheduler scheduler(pool);
  MemorySource src(archive_);
  ArchiveReader reader(src);
  const CancelToken live = CancelToken::make();  // never fired

  const auto plain = scheduler.decompress(reader);
  const auto tokened = scheduler.decompress(reader, {}, live);
  ASSERT_EQ(plain.fields.size(), tokened.fields.size());
  const auto& a = plain.fields[0].decode.data;
  const auto& b = tokened.fields[0].decode.data;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));

  const auto range_plain = scheduler.decode_range(reader, 0, 500, 9000);
  const auto range_tokened =
      scheduler.decode_range(reader, 0, 500, 9000, live);
  EXPECT_EQ(range_plain, range_tokened);
}

}  // namespace
}  // namespace ohd::pipeline

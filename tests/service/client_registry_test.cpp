// ClientContext / ClientRegistry unit coverage: reader LRU (eviction order,
// touch-on-access, eviction counting, shared entries surviving eviction),
// in-flight slot accounting, and the open/find/close client lifecycle
// including the double-close error.
#include "service/client_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"

namespace ohd::service {
namespace {

/// Smallest valid archive: one tiny field, one chunk.
std::shared_ptr<const pipeline::OwningMemorySource> tiny_archive() {
  std::vector<float> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  }
  const pipeline::FieldSpec spec{"f", data, sz::Dims::d1(data.size()), {},
                                 256, {}};
  pipeline::ThreadPool pool(1);
  return std::make_shared<pipeline::OwningMemorySource>(
      pipeline::BatchScheduler(pool).compress({&spec, 1}));
}

TEST(ClientContext, LruEvictsOldestAndAccessRefreshes) {
  ClientContext ctx(1, {});
  const auto src = tiny_archive();
  std::uint64_t evicted = 0;

  const ArchiveHandle h1 = ctx.open_reader(src, {}, 2, &evicted);
  const ArchiveHandle h2 = ctx.open_reader(src, {}, 2, &evicted);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(ctx.open_reader_count(), 2u);

  // Touch h1 so h2 becomes least recently used; the third open evicts h2.
  ctx.reader(h1);
  const ArchiveHandle h3 = ctx.open_reader(src, {}, 2, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(ctx.open_reader_count(), 2u);
  EXPECT_NO_THROW(ctx.reader(h1));
  EXPECT_NO_THROW(ctx.reader(h3));
  EXPECT_THROW(ctx.reader(h2), ClientError);
}

TEST(ClientContext, EvictedEntrySurvivesThroughOutstandingSharedPtr) {
  ClientContext ctx(1, {});
  const auto src = tiny_archive();
  std::uint64_t evicted = 0;

  const ArchiveHandle h1 = ctx.open_reader(src, {}, 1, &evicted);
  // Resolve before eviction, as a request would at submit time.
  std::shared_ptr<ReaderEntry> held = ctx.reader(h1);
  ctx.open_reader(src, {}, 1, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_THROW(ctx.reader(h1), ClientError);
  // The held entry still decodes: eviction dropped only the registry ref.
  EXPECT_EQ(held->reader.fields().size(), 1u);
  EXPECT_NO_THROW(held->reader.verify());
}

TEST(ClientContext, CloseReaderRemovesHandleAndRejectsUnknown) {
  ClientContext ctx(1, {});
  const auto src = tiny_archive();
  const ArchiveHandle h = ctx.open_reader(src, {}, 4);
  ctx.close_reader(h);
  EXPECT_EQ(ctx.open_reader_count(), 0u);
  EXPECT_THROW(ctx.close_reader(h), ClientError);
  EXPECT_THROW(ctx.reader(h), ClientError);
  EXPECT_THROW(ctx.close_reader(999), ClientError);
}

TEST(ClientContext, HandlesAreNeverReused) {
  ClientContext ctx(1, {});
  const auto src = tiny_archive();
  const ArchiveHandle h1 = ctx.open_reader(src, {}, 1);
  const ArchiveHandle h2 = ctx.open_reader(src, {}, 1);  // evicts h1
  const ArchiveHandle h3 = ctx.open_reader(src, {}, 1);  // evicts h2
  EXPECT_NE(h1, h2);
  EXPECT_NE(h2, h3);
  EXPECT_NE(h1, h3);
}

TEST(ClientContext, NullSourceRejected) {
  ClientContext ctx(1, {});
  EXPECT_THROW(ctx.open_reader(nullptr, {}, 4), ClientError);
}

TEST(ClientContext, InflightSlotsRespectCap) {
  ClientContext ctx(1, {});
  EXPECT_TRUE(ctx.try_acquire_slot(2));
  EXPECT_TRUE(ctx.try_acquire_slot(2));
  EXPECT_FALSE(ctx.try_acquire_slot(2));
  EXPECT_EQ(ctx.inflight(), 2u);
  ctx.release_slot();
  EXPECT_TRUE(ctx.try_acquire_slot(2));
  EXPECT_FALSE(ctx.try_acquire_slot(2));
}

TEST(ClientRegistry, OpenFindCloseLifecycle) {
  ClientRegistry reg;
  ClientOptions opts;
  opts.rel_error_bound = 1e-4;
  const auto a = reg.open(opts);
  const auto b = reg.open({});
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find(a->id())->options().rel_error_bound, 1e-4);

  reg.close(a->id());
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.find(a->id()), ClientError);
  // Double close is an error, not a no-op.
  EXPECT_THROW(reg.close(a->id()), ClientError);
  EXPECT_THROW(reg.find(999), ClientError);
}

TEST(ClientRegistry, OpenReadersSumsAcrossClients) {
  ClientRegistry reg;
  const auto src = tiny_archive();
  const auto a = reg.open({});
  const auto b = reg.open({});
  a->open_reader(src, {}, 4);
  a->open_reader(src, {}, 4);
  b->open_reader(src, {}, 4);
  EXPECT_EQ(reg.open_readers(), 3u);
  b->open_reader(src, {}, 1);  // cap 1 evicts b's reader: 3, no overshoot
  EXPECT_EQ(reg.open_readers(), 3u);
  EXPECT_EQ(reg.open_readers_gauge().peak(), 3);
  reg.close(a->id());
  EXPECT_EQ(reg.open_readers(), 1u);
  a->open_reader(src, {}, 4);  // a closed client's readers no longer count
  EXPECT_EQ(reg.open_readers(), 1u);
  EXPECT_EQ(reg.active_clients_gauge().peak(), 2);
}

TEST(ClientRegistry, IdsAreMonotoneAndNeverReused) {
  ClientRegistry reg;
  const ClientId a = reg.open({})->id();
  reg.close(a);
  const ClientId b = reg.open({})->id();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace ohd::service

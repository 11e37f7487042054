// The failure-model layer: RetryPolicy/with_retry semantics, deterministic
// fault schedules (FaultInjectingSource/Sink), bounded-retry convergence of
// ArchiveReader under injected faults, errno-detailed file IO errors, and
// the crash-consistency pair — AtomicFileSink's all-or-nothing publish and
// repair_truncated() re-finalizing a torn FileSink session.
#include "pipeline/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/recovery.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

std::vector<float> wavy_field(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                              0.02 * rng.normal());
  }
  return v;
}

/// Appends `spec` to `writer` through a one-worker BatchScheduler.
void compress_field(ArchiveWriter& writer, const FieldSpec& spec) {
  ThreadPool pool(1);
  BatchScheduler(pool).compress_to(writer, {&spec, 1});
}

/// Field 0 of `reader`, decoded through a one-worker BatchScheduler (one
/// frame read at a time, so a seeded fault schedule replays exactly).
std::vector<float> decode_first_field(const ArchiveReader& reader) {
  ThreadPool pool(1);
  return BatchScheduler(pool).decompress(reader).fields.at(0).decode.data;
}

/// Small preambled archive + its reference floats, shared by the retry and
/// crash tests.
struct TestArchive {
  std::vector<std::uint8_t> bytes;
  std::vector<float> reference;
};

TestArchive test_archive() {
  TestArchive a;
  const auto data = wavy_field(2000, 91);
  sz::CompressorConfig cfg;
  cfg.method = core::Method::SelfSyncOptimized;
  cfg.radius = 64;
  MemorySink sink;
  ArchiveWriter writer(sink, {.recovery_preambles = true});
  compress_field(writer, {"f", data, sz::Dims::d1(2000), cfg, 512, {}});
  writer.finish();
  a.bytes = sink.take();
  const MemorySource source(a.bytes);
  a.reference = decode_first_field(ArchiveReader(source));
  return a;
}

// ---- RetryPolicy / with_retry ---------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndDeterministic) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());  // default: one attempt, fail fast
  p.max_attempts = 4;
  p.base_delay = std::chrono::microseconds(100);
  p.backoff_multiplier = 2.0;
  p.jitter = 0.0;
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.delay_before(1).count(), 100);
  EXPECT_EQ(p.delay_before(2).count(), 200);
  EXPECT_EQ(p.delay_before(3).count(), 400);

  // Jitter perturbs within +-jitter and is a pure function of (seed, retry).
  p.jitter = 0.1;
  const auto d1 = p.delay_before(3);
  EXPECT_EQ(d1.count(), p.delay_before(3).count());
  EXPECT_GE(d1.count(), 360);
  EXPECT_LE(d1.count(), 440);
  RetryPolicy other = p;
  other.jitter_seed ^= 0xabcdef;
  EXPECT_NE(other.delay_before(3).count(), d1.count());
}

TEST(WithRetry, RetriesTransientsWithinBudgetOnly) {
  RetryPolicy p;
  p.max_attempts = 3;

  int calls = 0, retries = 0;
  const int got = with_retry(
      p,
      [&] {
        if (++calls < 3) throw TransientIoError("flaky");
        return 42;
      },
      [&] { ++retries; });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);

  // Budget exhausted: the last transient error surfaces.
  calls = 0;
  EXPECT_THROW(with_retry(p,
                          [&]() -> int {
                            ++calls;
                            throw TransientIoError("always");
                          }),
               TransientIoError);
  EXPECT_EQ(calls, 3);

  // Permanent errors are never retried, whatever the budget.
  calls = 0;
  EXPECT_THROW(with_retry(p,
                          [&]() -> int {
                            ++calls;
                            throw ArchiveError("torn");
                          }),
               ArchiveError);
  EXPECT_EQ(calls, 1);
}

// ---- Deterministic fault schedules ----------------------------------------

TEST(FaultInjection, ScheduleIsAPureFunctionOfSeedAndOpIndex) {
  const std::vector<std::uint8_t> data(4096, 0x5a);
  FaultSpec spec;
  spec.seed = 1234;
  spec.transient_read_rate = 0.3;
  spec.short_read_rate = 0.2;

  const auto outcomes = [&] {
    const MemorySource inner(data);
    const FaultInjectingSource faulty(inner, spec);
    std::vector<bool> ok;
    std::vector<std::uint8_t> buf(64);
    for (int i = 0; i < 200; ++i) {
      try {
        faulty.read_at(static_cast<std::uint64_t>(i) * 16, buf);
        ok.push_back(true);
      } catch (const TransientIoError&) {
        ok.push_back(false);
      }
    }
    return ok;
  };
  const std::vector<bool> first = outcomes();
  EXPECT_EQ(first, outcomes());  // same seed, same op sequence, same faults
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);

  spec.seed = 1235;
  EXPECT_NE(outcomes(), first);  // a different seed reshuffles the schedule
}

TEST(FaultInjection, MaxFaultsCapMakesTheWrapperTransparent) {
  const std::vector<std::uint8_t> data(256, 7);
  FaultSpec spec;
  spec.transient_read_rate = 1.0;
  spec.max_faults = 2;
  const MemorySource inner(data);
  const FaultInjectingSource faulty(inner, spec);
  std::vector<std::uint8_t> buf(16);
  EXPECT_THROW(faulty.read_at(0, buf), TransientIoError);
  EXPECT_THROW(faulty.read_at(0, buf), TransientIoError);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NO_THROW(faulty.read_at(0, buf));
  }
  const FaultStats stats = faulty.stats();
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.transient_read_errors, 2u);
  EXPECT_EQ(stats.faults(), 2u);
}

TEST(FaultInjection, TornAppendLandsAPrefixAndIsPermanent) {
  FaultSpec spec;
  spec.torn_write_rate = 1.0;
  spec.max_faults = 1;
  MemorySink inner;
  FaultInjectingSink faulty(inner, spec);
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  try {
    faulty.write(bytes);
    FAIL() << "torn write did not throw";
  } catch (const TransientIoError&) {
    FAIL() << "a torn append must be permanent: a retry would duplicate "
              "the landed prefix";
  } catch (const ArchiveError&) {
  }
  const FaultStats stats = faulty.stats();
  EXPECT_EQ(stats.torn_writes, 1u);
  // A strict PREFIX landed in the inner sink — the crash model.
  EXPECT_LT(inner.position(), bytes.size());
  const std::vector<std::uint8_t> prefix(
      bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(
                                         inner.position()));
  EXPECT_EQ(inner.bytes(), prefix);
  // Past the cap the sink is transparent.
  EXPECT_NO_THROW(faulty.write(bytes));
}

// ---- Bounded retry on the reader ------------------------------------------

TEST(ArchiveReaderRetry, ConvergesUnderBoundedTransientFaults) {
  const TestArchive a = test_archive();
  const MemorySource clean(a.bytes);
  FaultSpec spec;
  spec.seed = 7;
  spec.transient_read_rate = 0.3;
  spec.short_read_rate = 0.1;
  const FaultInjectingSource faulty(clean, spec);
  ReaderOptions opts;
  opts.retry.max_attempts = 16;
  const ArchiveReader reader(faulty, opts);
  EXPECT_EQ(decode_first_field(reader), a.reference);
  EXPECT_NO_THROW(reader.verify());
  EXPECT_GT(reader.io_retries(), 0u);
  EXPECT_GT(faulty.stats().faults(), 0u);
}

TEST(ArchiveReaderRetry, ExhaustedBudgetSurfacesTheTransientError) {
  const TestArchive a = test_archive();
  const MemorySource clean(a.bytes);
  FaultSpec spec;
  spec.transient_read_rate = 1.0;  // every read fails, forever
  const FaultInjectingSource faulty(clean, spec);
  ReaderOptions opts;
  opts.retry.max_attempts = 3;
  EXPECT_THROW(ArchiveReader(faulty, opts), TransientIoError);

  // Default options: fail-fast on the first transient error, no retries.
  EXPECT_THROW(ArchiveReader{faulty}, TransientIoError);
}

// ---- File IO error detail --------------------------------------------------

TEST(FileIo, ErrorsCarryErrnoDetailAndThePath) {
  const std::string bad = "/nonexistent-ohd-dir/archive.bin";
  try {
    FileSink sink(bad);
    FAIL() << "open succeeded";
  } catch (const ArchiveError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(bad), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
  try {
    const FileSource source(bad);
    FAIL() << "open succeeded";
  } catch (const ArchiveError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(bad), std::string::npos) << what;
  }
}

TEST(FileIo, FileSinkCloseIsCheckedAndIdempotentStateIsVisible) {
  const std::string path = temp_path("ohd_checked_close.bin");
  FileSink sink(path);
  sink.write(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(sink.closed());
  sink.close();
  EXPECT_TRUE(sink.closed());
  // Writing after close is a contract violation, reported as ArchiveError.
  EXPECT_THROW(sink.write(std::vector<std::uint8_t>{4}), ArchiveError);
  std::remove(path.c_str());
}

// ---- Crash consistency -----------------------------------------------------

TEST(CrashConsistency, AtomicFileSinkPublishesAllOrNothing) {
  const TestArchive a = test_archive();
  const std::string path = temp_path("ohd_atomic_publish.bin");
  std::remove(path.c_str());
  {
    AtomicFileSink sink(path);
    EXPECT_EQ(sink.final_path(), path);
    EXPECT_NE(sink.temp_path(), path);
    sink.write(a.bytes);
    // Nothing is visible at the destination until commit.
    EXPECT_FALSE(file_exists(path));
    EXPECT_TRUE(file_exists(sink.temp_path()));
    EXPECT_FALSE(sink.committed());
    sink.commit();
    EXPECT_TRUE(sink.committed());
    EXPECT_TRUE(file_exists(path));
    EXPECT_FALSE(file_exists(sink.temp_path()));
  }
  // The published archive is complete and valid.
  const FileSource source(path);
  EXPECT_EQ(decode_first_field(ArchiveReader(source)), a.reference);
  std::remove(path.c_str());
}

TEST(CrashConsistency, AbandonedAtomicSessionLeavesNoFiles) {
  const std::string path = temp_path("ohd_atomic_abandon.bin");
  std::remove(path.c_str());
  std::string temp;
  {
    AtomicFileSink sink(path);
    temp = sink.temp_path();
    sink.write(std::vector<std::uint8_t>{1, 2, 3, 4});
    // Destroyed without commit: the "crash" of an unfinished session.
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(temp));
}

TEST(CrashConsistency, FinishCommitsThroughAnAtomicSink) {
  // ArchiveWriter::finish() calls commit(): through an AtomicFileSink a
  // finished session IS published, an unfinished one leaves nothing behind.
  const std::string path = temp_path("ohd_atomic_finish.bin");
  std::remove(path.c_str());
  const auto data = wavy_field(800, 93);
  sz::CompressorConfig cfg;
  cfg.radius = 64;
  {
    AtomicFileSink sink(path);
    ArchiveWriter writer(sink, {.recovery_preambles = true});
    compress_field(writer, {"f", data, sz::Dims::d1(800), cfg, 256, {}});
    writer.finish();
    EXPECT_TRUE(sink.committed());
  }
  EXPECT_TRUE(file_exists(path));
  const FileSource source(path);
  EXPECT_NO_THROW(ArchiveReader(source).verify());
  std::remove(path.c_str());
}

TEST(CrashConsistency, TornFileSessionRepairsIntoAValidArchive) {
  // The full crash-recovery loop: a plain FileSink session dies on a torn
  // append (leaving a torn file, unlike AtomicFileSink), salvage sees only
  // the intact prefix, and repair_truncated + AtomicFileSink re-finalizes it
  // into a strictly valid archive with every surviving chunk bit-identical.
  const TestArchive a = test_archive();
  const std::string torn_path = temp_path("ohd_torn_session.bin");
  const std::string repaired_path = temp_path("ohd_repaired.bin");
  std::remove(repaired_path.c_str());

  // Simulate the torn session by writing a prefix of the real archive: the
  // deterministic sink-side equivalent of dying mid-append.
  FaultSpec spec;
  spec.seed = 11;
  spec.torn_write_rate = 1.0;
  spec.max_faults = 1;
  {
    FileSink file(torn_path);
    FaultInjectingSink faulty(file, spec);
    try {
      faulty.write(a.bytes);  // tears: a prefix lands in the file
    } catch (const ArchiveError&) {
    }
    file.flush();
    EXPECT_LT(file.position(), a.bytes.size());
    EXPECT_GT(faulty.stats().torn_writes, 0u);
  }

  {
    const FileSource damaged(torn_path);
    AtomicFileSink out(repaired_path);
    const RepairReport rr = repair_truncated(damaged, out);
    EXPECT_EQ(rr.output_bytes, out.position());
    EXPECT_TRUE(out.committed());  // finish() committed (and published) it
  }
  const FileSource source(repaired_path);
  const ArchiveReader reader(source);
  EXPECT_NO_THROW(reader.verify());
  if (!reader.fields().empty()) {
    const std::vector<float> d = decode_first_field(reader);
    ASSERT_LE(d.size(), a.reference.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(d[i], a.reference[i]);
    }
  }
  std::remove(torn_path.c_str());
  std::remove(repaired_path.c_str());
}

}  // namespace
}  // namespace ohd::pipeline

// The "OHDC" v3 archive through its one write path (ArchiveWriter, and the
// BatchScheduler fan-out over it) and its one read path (ArchiveReader):
// round-trip properties (the streamed session equals the in-memory image
// for any worker count; file-backed and in-memory readers decode
// bit-identically), bounded-memory guarantees on both sides
// (BoundedRingSink on the write path, the reader's frame-residency gauge on
// the read path), reader laziness, the chunk layout, malformed-index
// rejection pinned to the index layout in wire_format.hpp (each patch
// reseals the index CRC so it reaches its own validator), and robustness
// under every-byte truncation and single-byte corruption.
#include "pipeline/archive_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/recovery.hpp"
#include "pipeline/thread_pool.hpp"
#include "pipeline/wire_format.hpp"
#include "sz/metrics.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace ohd::pipeline {
namespace {

std::vector<float> wavy_field(std::size_t n, std::uint64_t seed,
                              double noise = 0.02) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                              noise * rng.normal());
  }
  return v;
}

/// Three fields with different dims, methods, and error bounds; the first
/// two plan adaptively so shared-codebook frames flow through the sessions.
struct Corpus {
  std::vector<std::vector<float>> storage;
  std::vector<FieldSpec> specs;
};

Corpus mixed_corpus() {
  Corpus c;
  c.storage.push_back(wavy_field(20000, 41));
  c.storage.push_back(wavy_field(96 * 70, 42, 0.005));
  c.storage.push_back(wavy_field(24 * 20 * 12, 43, 0.1));

  const core::Method methods[] = {core::Method::SelfSyncOptimized,
                                  core::Method::GapArrayOptimized,
                                  core::Method::CuszNaive};
  const sz::Dims dims[] = {sz::Dims::d1(20000), sz::Dims::d2(96, 70),
                           sz::Dims::d3(24, 20, 12)};
  const double ebs[] = {1e-3, 1e-4, 5e-3};
  const std::size_t chunk_elems[] = {4096, 2000, 1500};
  for (std::size_t i = 0; i < 3; ++i) {
    FieldSpec spec;
    spec.name = "field" + std::to_string(i);
    spec.data = c.storage[i];
    spec.dims = dims[i];
    spec.config.method = methods[i];
    spec.config.rel_error_bound = ebs[i];
    spec.chunk_elems = chunk_elems[i];
    spec.plan.auto_method = i < 2;
    spec.plan.shared_codebook = i < 2;
    c.specs.push_back(spec);
  }
  return c;
}

/// The corpus as one in-memory v3 image.
std::vector<std::uint8_t> image_of(const Corpus& corpus) {
  ThreadPool pool(2);
  return BatchScheduler(pool).compress(corpus.specs);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// The strict open's rejection message, or "" when `bytes` opens.
std::string open_error(std::span<const std::uint8_t> bytes) {
  try {
    const MemorySource source(bytes);
    const ArchiveReader reader(source);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

// ---- Round-trip properties ------------------------------------------------

TEST(ArchiveIO, WriterOutputMatchesContainerSerializeForAnyWorkerCount) {
  // The v3 round-trip property: the streamed session must be byte-identical
  // to the in-memory image BatchScheduler::compress returns, for every
  // worker count, through both a memory sink and a file sink.
  const Corpus corpus = mixed_corpus();
  ThreadPool p1(1);
  const auto whole_bytes = BatchScheduler(p1).compress(corpus.specs);

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    MemorySink sink;
    ArchiveWriter writer(sink);
    BatchScheduler(pool).compress_to(writer, corpus.specs);
    const std::uint64_t total = writer.finish();
    EXPECT_TRUE(writer.finished());
    EXPECT_EQ(total, sink.bytes().size());
    EXPECT_EQ(sink.bytes(), whole_bytes) << "workers=" << workers;
  }

  const std::string path = temp_path("ohd_archive_rt.bin");
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    BatchScheduler(p1).compress_to(writer, corpus.specs);
    writer.finish();
  }
  std::vector<std::uint8_t> from_disk(whole_bytes.size());
  {
    const FileSource source(path);
    ASSERT_EQ(source.size(), whole_bytes.size());
    source.read_at(0, from_disk);
  }
  EXPECT_EQ(from_disk, whole_bytes);
  std::remove(path.c_str());
}

TEST(ArchiveIO, ReaderDecodesBitIdenticalToContainerRoundTrip) {
  // A FILE-backed reader must decode bit-identical floats to a reader over
  // the in-memory image — per chunk, per field and per range, for any
  // worker count — and stay within the fields' error bounds.
  const Corpus corpus = mixed_corpus();
  ThreadPool pool(3);
  const BatchScheduler sched(pool);
  const auto image = sched.compress(corpus.specs);
  const MemorySource memory(image);
  const ArchiveReader in_memory(memory);

  const std::string path = temp_path("ohd_archive_decode.bin");
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    sched.compress_to(writer, corpus.specs);
    writer.finish();
  }
  const FileSource source(path);
  const ArchiveReader reader(source);
  EXPECT_NO_THROW(reader.verify());
  ASSERT_EQ(reader.fields().size(), in_memory.fields().size());

  const BatchDecompressResult from_memory = sched.decompress(in_memory);
  for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
    EXPECT_EQ(reader.field_index(reader.fields()[fi].name), fi);
    const auto stats = sz::compute_error_stats(
        corpus.storage[fi], from_memory.fields[fi].decode.data);
    EXPECT_LE(stats.max_abs_error,
              reader.fields()[fi].abs_error_bound * (1 + 1e-6));

    // Per-chunk random access agrees too.
    cudasim::SimContext c3, c4;
    const auto one = reader.decode_chunk(c3, fi, 0);
    const auto two = in_memory.decode_chunk(c4, fi, 0);
    EXPECT_EQ(one.data, two.data);
  }

  // Batch decompress over the file reader: identical to the in-memory batch
  // for every worker count.
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool wpool(workers);
    const BatchDecompressResult streamed =
        BatchScheduler(wpool).decompress(reader);
    ASSERT_EQ(streamed.fields.size(), from_memory.fields.size());
    for (std::size_t fi = 0; fi < streamed.fields.size(); ++fi) {
      EXPECT_EQ(streamed.fields[fi].decode.data,
                from_memory.fields[fi].decode.data)
          << "workers=" << workers << " field=" << fi;
      EXPECT_EQ(streamed.fields[fi].decode.simulated_seconds,
                from_memory.fields[fi].decode.simulated_seconds);
    }
    EXPECT_EQ(streamed.chunk_seconds, from_memory.chunk_seconds);
  }

  // Range decode: the scheduler's prefetching pipeline matches, across
  // chunk boundaries and partial edges.
  const std::size_t field = 0;
  const std::uint64_t lo = 3000, hi = 9500;
  const std::vector<float>& whole = from_memory.fields[field].decode.data;
  EXPECT_EQ(sched.decode_range(reader, field, lo, hi),
            std::vector<float>(whole.begin() + lo, whole.begin() + hi));
  EXPECT_TRUE(sched.decode_range(reader, field, 500, 500).empty());
  EXPECT_THROW(sched.decode_range(reader, field, 10, 1u << 30),
               ContainerError);
  std::remove(path.c_str());
}

TEST(ArchiveIO, SerializedSizeIsExact) {
  // wire::field_entry_bytes sizes the index ArchiveWriter::finish() writes
  // (it reserves the tail from it), so head + payload + index + footer must
  // add up to the image exactly.
  const Corpus corpus = mixed_corpus();
  const auto image = image_of(corpus);
  const MemorySource source(image);
  const ArchiveReader reader(source);
  std::uint64_t index_bytes = 4;  // field count
  for (const FieldEntry& f : reader.fields()) {
    index_bytes += wire::field_entry_bytes(f);
  }
  EXPECT_EQ(reader.resident_bytes(),
            wire::kHeaderBytes + index_bytes + wire::kFooterBytes);
  EXPECT_EQ(reader.resident_bytes() + reader.payload_bytes(), image.size());

  // Shared-codebook fields exercise the codebook-record arithmetic.
  bool any_shared = false;
  for (const FieldEntry& f : reader.fields()) {
    any_shared = any_shared || f.shared_codebook != nullptr;
  }
  EXPECT_TRUE(any_shared);
}

TEST(Container, EmptyContainerRoundTrips) {
  // A session with zero fields is a valid archive: head, an index holding
  // only its field count, and the footer.
  MemorySink sink;
  ArchiveWriter writer(sink);
  EXPECT_EQ(writer.finish(), wire::kHeaderBytes + 4 + wire::kFooterBytes);
  const MemorySource source(sink.bytes());
  const ArchiveReader reader(source);
  EXPECT_TRUE(reader.fields().empty());
  EXPECT_EQ(reader.payload_bytes(), 0u);
  EXPECT_NO_THROW(reader.verify());
}

TEST(Container, MixedCorpusRoundTripsThroughDisk) {
  // A one-worker build survives a trip through a file: the file-backed
  // reader verifies and decodes every field within its bound, bit-identical
  // to the same image read from memory.
  const Corpus corpus = mixed_corpus();
  const std::string path = temp_path("ohd_container_rt.bin");
  ThreadPool pool(1);
  const BatchScheduler sched(pool);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    sched.compress_to(writer, corpus.specs);
    writer.finish();
  }
  const FileSource file(path);
  const ArchiveReader parsed(file);
  parsed.verify();
  ASSERT_EQ(parsed.fields().size(), 3u);
  const auto image = image_of(corpus);
  const MemorySource memory(image);
  const ArchiveReader in_memory(memory);
  const BatchDecompressResult from_memory = sched.decompress(in_memory);
  const BatchDecompressResult from_file = sched.decompress(parsed);
  for (std::size_t fi = 0; fi < 3; ++fi) {
    EXPECT_GE(parsed.fields()[fi].chunks.size(), 4u) << fi;
    const std::vector<float>& b = from_file.fields[fi].decode.data;
    EXPECT_EQ(from_memory.fields[fi].decode.data, b) << "field " << fi;
    const auto stats = sz::compute_error_stats(corpus.storage[fi], b);
    EXPECT_LE(stats.max_abs_error,
              parsed.fields()[fi].abs_error_bound * (1 + 1e-6))
        << "field " << fi;
  }
  std::remove(path.c_str());
}

TEST(Container, SingleChunkDecodeNeverTouchesOtherFrames) {
  const Corpus corpus = mixed_corpus();
  const auto clean = image_of(corpus);
  const MemorySource clean_source(clean);
  const ArchiveReader reference(clean_source);
  const std::size_t field = reference.field_index("field1");
  const std::size_t chunk = 1;

  // Corrupt EVERY payload byte outside the target frame. If decoding the
  // target chunk still succeeds bit-identically, it provably read nothing
  // but its own frame (and the index).
  auto bytes = clean;
  const auto& rec = reference.fields()[field].chunks[chunk];
  const std::size_t frame_lo = wire::kHeaderBytes + rec.payload_offset;
  const std::size_t frame_hi = frame_lo + rec.payload_bytes;
  const std::size_t payload_end =
      wire::kHeaderBytes + reference.payload_bytes();
  for (std::size_t i = wire::kHeaderBytes; i < payload_end; ++i) {
    if (i < frame_lo || i >= frame_hi) bytes[i] ^= 0xA5;
  }

  const MemorySource source(bytes);
  const ArchiveReader vandalized(source);
  cudasim::SimContext c1, c2;
  EXPECT_EQ(vandalized.decode_chunk(c1, field, chunk).data,
            reference.decode_chunk(c2, field, chunk).data);

  // ... while every other frame now fails its checksum.
  cudasim::SimContext c3;
  EXPECT_THROW(vandalized.decode_chunk(c3, field, 0), ContainerError);
}

TEST(Container, DecodeChunkIntoWritesInPlaceIdentically) {
  // The fused chunk-decode entry point must land the same floats (and the
  // same timings) in a caller buffer slice as decode_chunk returns, for 1-D
  // (fused sink) and higher-rank (staged copy) fields alike.
  const Corpus corpus = mixed_corpus();
  const auto image = image_of(corpus);
  const MemorySource source(image);
  const ArchiveReader reader(source);
  ThreadPool pool(2);
  const BatchDecompressResult decoded = BatchScheduler(pool).decompress(reader);
  for (std::size_t field = 0; field < reader.fields().size(); ++field) {
    const auto& entry = reader.fields()[field];
    ASSERT_EQ(entry.dims.rank, field + 1);  // ranks 1-3
    std::vector<float> buffer(entry.dims.count(),
                              -12345.0f);  // poison: every slot must be hit
    for (std::size_t ci = 0; ci < entry.chunks.size(); ++ci) {
      cudasim::SimContext c1, c2;
      const auto& rec = entry.chunks[ci];
      const std::span<float> dest(buffer.data() + rec.elem_offset,
                                  rec.dims.count());
      const auto into = reader.decode_chunk_into(c1, field, ci, dest);
      const auto whole = reader.decode_chunk(c2, field, ci);
      EXPECT_TRUE(into.data.empty());
      EXPECT_DOUBLE_EQ(into.total_seconds(), whole.total_seconds()) << field;
      ASSERT_EQ(std::vector<float>(dest.begin(), dest.end()), whole.data)
          << "field " << field << " chunk " << ci;
    }
    EXPECT_EQ(buffer, decoded.fields[field].decode.data) << field;

    // A destination sized to the FIELD instead of the chunk is rejected.
    ASSERT_GT(entry.chunks.size(), 1u);
    cudasim::SimContext c4;
    EXPECT_THROW(reader.decode_chunk_into(c4, field, 0, buffer),
                 std::invalid_argument);
  }
}

TEST(Container, RangeDecodeMatchesFullDecode) {
  const Corpus corpus = mixed_corpus();
  const auto image = image_of(corpus);
  const MemorySource source(image);
  const ArchiveReader reader(source);
  const std::size_t field = reader.field_index("field0");
  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  const std::vector<float> full =
      sched.decompress(reader).fields[field].decode.data;

  // A range crossing two chunk boundaries (chunks are 4096 elements), one
  // inside a single chunk, and one that is exactly a chunk.
  using Range = std::pair<std::uint64_t, std::uint64_t>;
  for (const auto& [lo, hi] :
       std::vector<Range>{{3000, 9500}, {4100, 8000}, {8192, 12288}}) {
    const auto range = sched.decode_range(reader, field, lo, hi);
    ASSERT_EQ(range.size(), hi - lo);
    for (std::uint64_t i = 0; i < hi - lo; ++i) {
      ASSERT_EQ(range[i], full[lo + i]) << "elem " << lo + i;
    }
  }

  EXPECT_TRUE(sched.decode_range(reader, field, 500, 500).empty());
  EXPECT_TRUE(sched.decode_range(reader, field, 20000, 20000).empty());
  EXPECT_THROW(sched.decode_range(reader, field, 10, 30000), ContainerError);
}

TEST(Container, CorruptedFrameInAPooledRangeThrowsAndTheSchedulerRecovers) {
  // A range over several chunks decodes each chunk in a pool task. A
  // CRC-flipped frame in the middle must reach the caller as the task's
  // ContainerError, and the same scheduler must then decode intact
  // multi-chunk ranges correctly.
  const Corpus corpus = mixed_corpus();
  const auto image = image_of(corpus);
  ThreadPool ref_pool(2);
  const MemorySource clean(image);
  const ArchiveReader clean_reader(clean);
  const std::vector<float> full =
      BatchScheduler(ref_pool).decompress(clean_reader).fields[0].decode.data;

  // field0's chunks are 4096 elements: chunk 2 is [8192, 12288).
  const ChunkRecord rec = clean_reader.fields()[0].chunks[2];
  auto bytes = image;
  bytes[wire::kHeaderBytes + rec.payload_offset + rec.payload_bytes / 2] ^=
      0x04;
  const MemorySource source(bytes);
  const ArchiveReader reader(source);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    const BatchScheduler sched(pool);
    try {
      (void)sched.decode_range(reader, 0, 3000, 15000);  // chunks 0..3
      FAIL() << "corrupted frame was accepted, workers=" << workers;
    } catch (const ContainerError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk 2: CRC-32"),
                std::string::npos)
          << e.what();
    }
    using Range = std::pair<std::uint64_t, std::uint64_t>;
    for (const auto& [lo, hi] :
         std::vector<Range>{{1000, 8000}, {13000, 19000}}) {
      const std::vector<float> expect(full.begin() + lo, full.begin() + hi);
      EXPECT_EQ(sched.decode_range(reader, 0, lo, hi), expect)
          << "workers=" << workers << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(Container, CorruptedFrameRejectedWithClearError) {
  const Corpus corpus = mixed_corpus();
  auto bytes = image_of(corpus);
  bytes[wire::kHeaderBytes + 17] ^= 0x01;  // one bit inside field 0, chunk 0

  const MemorySource source(bytes);
  const ArchiveReader parsed(source);  // the index is intact
  cudasim::SimContext ctx;
  try {
    parsed.decode_chunk(ctx, 0, 0);
    FAIL() << "corrupted frame was accepted";
  } catch (const ContainerError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("field0"), std::string::npos);
  }
  EXPECT_THROW(parsed.verify(), ContainerError);

  // Untouched chunks remain decodable.
  cudasim::SimContext c2;
  EXPECT_NO_THROW(parsed.decode_chunk(c2, 0, 1));
}

TEST(Container, SharedCodebookArchiveShrinksAndDecodesIdentically) {
  const auto data = wavy_field(30000, 5);
  sz::CompressorConfig cfg;
  cfg.method = core::Method::GapArrayOptimized;
  PlanOptions plan;
  plan.auto_method = true;
  plan.shared_codebook = true;

  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  const FieldSpec private_books{"f", data, sz::Dims::d1(30000), cfg, 1500, {}};
  FieldSpec shared_books = private_books;
  shared_books.plan = plan;
  const auto private_image = sched.compress({&private_books, 1});
  const auto shared_image = sched.compress({&shared_books, 1});

  // Amortizing the per-chunk codebooks must shrink the archive...
  EXPECT_LT(shared_image.size(), private_image.size());

  // ... while the decoded floats stay bit-identical.
  const MemorySource private_source(private_image);
  const MemorySource shared_source(shared_image);
  const ArchiveReader a(private_source), b(shared_source);
  ASSERT_NE(b.fields()[0].shared_codebook, nullptr);
  std::size_t shared_refs = 0;
  for (const ChunkRecord& rec : b.fields()[0].chunks) {
    shared_refs += rec.codebook_ref == CodebookRef::SharedField;
  }
  EXPECT_GE(shared_refs, 2u);
  b.verify();
  const std::vector<float> db = sched.decompress(b).fields[0].decode.data;
  EXPECT_EQ(sched.decompress(a).fields[0].decode.data, db);
  const auto stats = sz::compute_error_stats(data, db);
  EXPECT_LE(stats.max_abs_error, b.fields()[0].abs_error_bound * (1 + 1e-6));
}

TEST(Container, BuilderRejectsBadInput) {
  const auto data = wavy_field(1000, 9);
  ThreadPool pool(1);
  const BatchScheduler sched(pool);
  MemorySink sink;
  ArchiveWriter writer(sink);
  const auto add = [&](const FieldSpec& spec) {
    sched.compress_to(writer, {&spec, 1});
  };
  FieldSpec spec{"x", data, sz::Dims::d1(999), {}, 256, {}};
  EXPECT_THROW(add(spec), ContainerError);  // data size vs dims
  spec.dims = sz::Dims::d1(1000);
  spec.config.method = core::Method::GapArrayOriginal8Bit;
  EXPECT_THROW(add(spec), ContainerError);  // decode-only method
  spec.config.method = core::Method::GapArrayOptimized;
  spec.config.radius = 0;
  EXPECT_THROW(add(spec), ContainerError);
  spec.config.radius = 512;
  spec.chunk_elems = 0;
  EXPECT_THROW(add(spec), ContainerError);
  spec.chunk_elems = 256;
  add(spec);
  EXPECT_EQ(writer.fields().size(), 1u);
  EXPECT_THROW(add(spec), ContainerError);  // duplicate name
  writer.finish();
  const MemorySource source(sink.bytes());
  const ArchiveReader reader(source);
  EXPECT_EQ(reader.fields().size(), 1u);
  EXPECT_THROW(reader.field_index("unknown"), ContainerError);
}

TEST(ChunkLayout, TilesFieldsContiguouslyAndKeepsRank) {
  const auto l1 = chunk_layout(sz::Dims::d1(10000), 4096);
  ASSERT_EQ(l1.size(), 3u);
  EXPECT_EQ(l1[0].dims.count(), 4096u);
  EXPECT_EQ(l1[2].dims.count(), 10000u - 2 * 4096u);

  const auto l2 = chunk_layout(sz::Dims::d2(96, 70), 2000);
  std::uint64_t next = 0;
  for (const auto& e : l2) {
    EXPECT_EQ(e.elem_offset, next);
    EXPECT_EQ(e.dims.rank, 2u);
    EXPECT_EQ(e.dims.extent[0], 96u);  // whole slabs only
    next += e.dims.count();
  }
  EXPECT_EQ(next, 96u * 70u);

  // A chunk target smaller than one slab still takes one whole slab.
  const auto l3 = chunk_layout(sz::Dims::d3(24, 20, 12), 10);
  EXPECT_EQ(l3.size(), 12u);
  EXPECT_EQ(l3[0].dims.count(), 24u * 20u);

  EXPECT_THROW(chunk_layout(sz::Dims::d1(100), 0), ContainerError);
}

// ---- Bounded-memory guarantees -------------------------------------------

TEST(ArchiveIO, WriterStreamsThroughABoundedRing) {
  // Drive the full parallel compression through a ring whose capacity is
  // far below the archive size: header + index + footer + the largest
  // single frame (the acceptance budget). Draining after every write keeps
  // the producer alive; the ring throws the moment any single write — or an
  // undrained accumulation — exceeds the budget, so a pass proves the
  // writer emits frame-sized pieces and never buffers the archive.
  const Corpus corpus = mixed_corpus();
  ThreadPool pool(4);
  const BatchScheduler sched(pool);
  const auto whole_bytes = sched.compress(corpus.specs);
  const MemorySource whole_source(whole_bytes);
  const ArchiveReader whole(whole_source);

  const std::size_t capacity =
      static_cast<std::size_t>(whole.resident_bytes() + whole.max_frame_bytes());
  ASSERT_LT(capacity, whole_bytes.size() / 2)
      << "corpus too small to make the bound interesting";

  BoundedRingSink ring(capacity);
  ArchiveWriter writer(ring);
  std::vector<std::uint8_t> shipped = ring.drain();  // the 8-byte head

  // Stream field-by-field, draining after every chunk write exactly like a
  // consumer forwarding to a socket would.
  for (const FieldSpec& spec : corpus.specs) {
    MemorySink staging;  // compress each field once, replay frame-by-frame
    ArchiveWriter staging_writer(staging);
    sched.compress_to(staging_writer,
                      std::span<const FieldSpec>(&spec, 1));
    const auto& staged_fields = staging_writer.fields();
    ASSERT_EQ(staged_fields.size(), 1u);

    ArchiveFieldSpec fs;
    fs.name = staged_fields[0].name;
    fs.dims = staged_fields[0].dims;
    fs.abs_error_bound = staged_fields[0].abs_error_bound;
    fs.radius = staged_fields[0].radius;
    fs.method = staged_fields[0].method;
    fs.shared_codebook = staged_fields[0].shared_codebook;
    writer.begin_field(fs);
    for (const ChunkRecord& rec : staged_fields[0].chunks) {
      const std::span<const std::uint8_t> frame(
          staging.bytes().data() + wire::kHeaderBytes + rec.payload_offset,
          rec.payload_bytes);
      writer.write_chunk(ChunkExtent{rec.elem_offset, rec.dims}, frame,
                         ChunkMeta{rec.method, rec.codebook_ref});
      const auto piece = ring.drain();
      shipped.insert(shipped.end(), piece.begin(), piece.end());
    }
    writer.end_field();
  }
  writer.finish();
  const auto tail = ring.drain();
  shipped.insert(shipped.end(), tail.begin(), tail.end());

  EXPECT_EQ(shipped, whole_bytes);
  EXPECT_LE(ring.peak_buffered(), capacity);
  EXPECT_EQ(ring.position(), whole_bytes.size());
}

TEST(ArchiveIO, StreamingDecompressNeverMaterializesTheArchive) {
  // The read-side acceptance bound: peak buffered archive bytes during a
  // batch decompress stay within head+index+footer plus one in-flight frame
  // per worker — asserted from the reader's residency gauge, with the frame
  // fetches counted against a tracking source.
  const Corpus corpus = mixed_corpus();
  const std::string path = temp_path("ohd_archive_stream.bin");
  ThreadPool build_pool(4);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    BatchScheduler(build_pool).compress_to(writer, corpus.specs);
    writer.finish();
  }

  const FileSource file(path);
  const TrackingSource source(file);
  const ArchiveReader reader(source);
  const std::uint64_t open_bytes = source.bytes_read();
  EXPECT_EQ(open_bytes, reader.resident_bytes());
  EXPECT_LT(reader.resident_bytes() + reader.max_frame_bytes(),
            file.size() / 2)
      << "corpus too small to make the bound interesting";

  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    const BatchDecompressResult r = BatchScheduler(pool).decompress(reader);
    EXPECT_EQ(r.fields.size(), corpus.specs.size());
    // peak <= workers * largest frame: nothing ever held more than one
    // frame per in-flight decode task.
    EXPECT_GT(reader.peak_frame_bytes(), 0u);
    EXPECT_LE(reader.peak_frame_bytes(), workers * reader.max_frame_bytes())
        << "workers=" << workers;
  }

  // The decode traffic re-read frames, never the index again, and no single
  // read exceeded one frame (the index read dominates only the open).
  EXPECT_LE(source.max_read_bytes(),
            std::max<std::uint64_t>(reader.max_frame_bytes(),
                                    reader.resident_bytes()));

  // The range decode's chunk tasks fetch their own frames under the gauge
  // too: decoding a WHOLE field through it holds at most one frame per
  // worker, never O(range) frames.
  const FileSource file2(path);
  const ArchiveReader reader2(file2);
  ThreadPool range_pool(2);
  const BatchScheduler range_sched(range_pool);
  const std::uint64_t count = reader2.fields()[0].dims.count();
  const std::vector<float> ranged =
      range_sched.decode_range(reader2, 0, 0, count);
  EXPECT_GT(reader2.peak_frame_bytes(), 0u);
  EXPECT_LE(reader2.peak_frame_bytes(),
            range_pool.size() * reader2.max_frame_bytes());
  EXPECT_EQ(ranged, range_sched.decompress(reader2).fields[0].decode.data);
  std::remove(path.c_str());
}

TEST(ArchiveIO, OpenReadsOnlyFooterAndIndexAndDecodeFetchesOneFrame) {
  const Corpus corpus = mixed_corpus();
  ThreadPool pool(2);
  MemorySink sink;
  ArchiveWriter writer(sink);
  BatchScheduler(pool).compress_to(writer, corpus.specs);
  writer.finish();

  const MemorySource memory(sink.bytes());
  const TrackingSource source(memory);
  const ArchiveReader reader(source);
  // Open = head + footer + index, nothing else.
  EXPECT_EQ(source.bytes_read(), reader.resident_bytes());
  EXPECT_EQ(source.reads(), 3u);

  // Decoding one chunk adds exactly that chunk's frame bytes.
  const std::uint64_t before = source.bytes_read();
  cudasim::SimContext ctx;
  (void)reader.decode_chunk(ctx, 1, 2);
  EXPECT_EQ(source.bytes_read() - before,
            reader.fields()[1].chunks[2].payload_bytes);
}

// ---- Writer session misuse ------------------------------------------------

TEST(ArchiveIO, WriterRejectsSessionMisuse) {
  const auto data = wavy_field(1000, 7);
  MemorySink sink;
  ArchiveWriter writer(sink);

  ArchiveFieldSpec spec;
  spec.name = "f";
  spec.dims = sz::Dims::d1(1000);
  spec.abs_error_bound = 1e-3;

  EXPECT_THROW(writer.write_chunk(ChunkExtent{0, sz::Dims::d1(10)},
                                  std::vector<std::uint8_t>{1, 2, 3}),
               ContainerError);
  EXPECT_THROW(writer.end_field(), ContainerError);

  writer.begin_field(spec);
  EXPECT_THROW(writer.begin_field(spec), ContainerError);  // nested field
  EXPECT_THROW(writer.finish(), ContainerError);           // unclosed field
  // Empty frames and non-contiguous extents are rejected.
  EXPECT_THROW(writer.write_chunk(ChunkExtent{0, sz::Dims::d1(10)},
                                  std::span<const std::uint8_t>{}),
               ContainerError);
  EXPECT_THROW(writer.write_chunk(ChunkExtent{5, sz::Dims::d1(10)},
                                  std::vector<std::uint8_t>{1}),
               ContainerError);
  // Shared-codebook refs without a field codebook are rejected.
  EXPECT_THROW(
      writer.write_chunk(ChunkExtent{0, sz::Dims::d1(10)},
                         std::vector<std::uint8_t>{1},
                         ChunkMeta{core::Method::GapArrayOptimized,
                                   CodebookRef::SharedField}),
      ContainerError);
  // A field whose chunks do not cover the dims cannot close.
  writer.write_chunk(ChunkExtent{0, sz::Dims::d1(10)},
                     std::vector<std::uint8_t>{1, 2});
  EXPECT_THROW(writer.end_field(), ContainerError);

  // A valid session still completes after all those rejections.
  writer.write_chunk(ChunkExtent{10, sz::Dims::d1(990)},
                     std::vector<std::uint8_t>{3, 4});
  writer.end_field();

  ArchiveFieldSpec dup = spec;
  EXPECT_THROW(writer.begin_field(dup), ContainerError);  // duplicate name
  ArchiveFieldSpec bad_eb = spec;
  bad_eb.name = "g";
  bad_eb.abs_error_bound = 0.0;
  EXPECT_THROW(writer.begin_field(bad_eb), ContainerError);

  writer.finish();
  EXPECT_THROW(writer.finish(), ContainerError);  // double finish
  ArchiveFieldSpec late = spec;
  late.name = "late";
  EXPECT_THROW(writer.begin_field(late), ContainerError);  // after finish
}

TEST(ArchiveIO, CompressToValidatesWriterSessionUpFront) {
  // A finished or mid-field writer must be rejected in phase 1, BEFORE any
  // compression fans out — not after the whole corpus has been encoded.
  const Corpus corpus = mixed_corpus();
  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  MemorySink sink;
  ArchiveWriter writer(sink);

  ArchiveFieldSpec open;
  open.name = "open";
  open.dims = sz::Dims::d1(10);
  open.abs_error_bound = 1e-3;
  writer.begin_field(open);
  EXPECT_TRUE(writer.field_open());
  EXPECT_THROW(sched.compress_to(writer, corpus.specs), ContainerError);

  writer.write_chunk(ChunkExtent{0, sz::Dims::d1(10)},
                     std::vector<std::uint8_t>{1, 2});
  writer.end_field();
  EXPECT_NO_THROW(sched.compress_to(writer, corpus.specs));  // mid-session ok

  writer.finish();
  EXPECT_THROW(sched.compress_to(writer, corpus.specs), ContainerError);
}

// ---- Archive robustness fuzz ---------------------------------------------

/// Tiny two-field v3 archive (one field on a shared codebook) for the
/// truncation and corruption sweeps.
std::vector<std::uint8_t> tiny_archive_bytes() {
  const auto data = wavy_field(600, 21);
  sz::CompressorConfig cfg;
  cfg.method = core::Method::SelfSyncOptimized;
  cfg.radius = 64;
  PlanOptions plan;
  plan.shared_codebook = true;
  const FieldSpec specs[] = {{"a", data, sz::Dims::d1(600), cfg, 256, {}},
                             {"b", data, sz::Dims::d1(600), cfg, 256, plan}};
  ThreadPool pool(1);
  return BatchScheduler(pool).compress(specs);
}

TEST(ArchiveReaderFuzz, TruncationAtEveryPrefixThrows) {
  // Over a FILE-backed v3 archive: any truncation destroys the footer's
  // size-consistency (or the footer itself), so every prefix must be
  // rejected at open — a streaming reader can never trust a torn tail.
  const auto bytes = tiny_archive_bytes();
  const std::string path = temp_path("ohd_truncation_fuzz.bin");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_file(path, std::span<const std::uint8_t>(bytes.data(), cut));
    try {
      const FileSource source(path);
      const ArchiveReader reader(source);
      FAIL() << "cut=" << cut << " was accepted";
    } catch (const std::invalid_argument&) {
      // ContainerError (format) or ArchiveError (short read) — both fine.
    }
  }
  // The intact file opens and verifies.
  write_file(path, bytes);
  const FileSource source(path);
  EXPECT_NO_THROW(ArchiveReader(source).verify());
  std::remove(path.c_str());
}

TEST(ArchiveReaderFuzz, SingleBitCrcCorruptionIsContainedPerChunk) {
  // Flip one bit inside a known frame of the file: decoding THAT chunk (and
  // verify()) must fail with a CRC error naming it, while every other chunk
  // stays decodable — corruption is contained to its frame.
  const auto original = tiny_archive_bytes();
  const std::string path = temp_path("ohd_crc_fuzz.bin");
  {
    const MemorySource clean(original);
    const ChunkRecord rec = ArchiveReader(clean).fields()[1].chunks[2];
    auto bytes = original;
    bytes[wire::kHeaderBytes + rec.payload_offset + rec.payload_bytes / 2] ^=
        0x04;
    write_file(path, bytes);
  }
  const FileSource source(path);
  const ArchiveReader reader(source);  // the index is intact: open succeeds
  cudasim::SimContext ctx;
  try {
    (void)reader.decode_chunk(ctx, 1, 2);
    FAIL() << "corrupted frame was accepted";
  } catch (const ContainerError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'b'"), std::string::npos);
  }
  EXPECT_THROW(reader.verify(), ContainerError);
  for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
    for (std::size_t ci = 0; ci < reader.fields()[fi].chunks.size(); ++ci) {
      if (fi == 1 && ci == 2) continue;
      cudasim::SimContext c2;
      EXPECT_NO_THROW(reader.decode_chunk(c2, fi, ci))
          << "field " << fi << " chunk " << ci;
    }
  }
  std::remove(path.c_str());
}

TEST(ArchiveReaderFuzz, RandomSingleBitCorruptionNeverCrashes) {
  // Every single-bit flip anywhere in the file must end in a clean parse
  // failure at open, a CRC/frame rejection at decode, or a successful
  // decode (non-load-bearing metadata) — no crashes, no UB.
  const auto original = tiny_archive_bytes();
  const std::string path = temp_path("ohd_bitflip_fuzz.bin");
  util::Xoshiro256 rng(79);
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    write_file(path, bytes);
    try {
      const FileSource source(path);
      const ArchiveReader reader(source);
      cudasim::SimContext ctx;
      (void)reader.decode_chunk(ctx, 0, 0);
      (void)reader.decode_chunk(ctx, 1, 0);
    } catch (const std::invalid_argument&) {
    }
  }
  std::remove(path.c_str());
  SUCCEED();
}

TEST(ArchiveReaderFuzz, WrappingFooterArithmeticRejected) {
  // A crafted footer whose u64 fields wrap the consistency sums back onto
  // plausible values must still be rejected — otherwise the reader would
  // size and place its index read from untrusted, wrapped offsets.
  auto bytes = tiny_archive_bytes();
  const std::size_t fo = bytes.size() - wire::kFooterBytes;
  const auto put_u64 = [&](std::size_t off, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const std::uint64_t payload = ~std::uint64_t{99};        // 2^64 - 100
  put_u64(fo + 24, payload);                               // payload bytes
  put_u64(fo + 0, wire::kHeaderBytes + payload);           // wraps to match
  put_u64(fo + 8, bytes.size() + 52);                      // wraps size check
  const MemorySource source(bytes);
  EXPECT_THROW(ArchiveReader{source}, ContainerError);
}

TEST(ArchiveReaderFuzz, TrailingGarbageAndLegacyVersionsRejected) {
  const auto bytes = tiny_archive_bytes();
  // Trailing garbage shifts the footer window onto non-footer bytes.
  auto padded = bytes;
  padded.push_back(0);
  const MemorySource source(padded);
  EXPECT_THROW(ArchiveReader{source}, ContainerError);
  // v3 is the only format: the head-indexed version 1/2 layouts (and any
  // other version byte) are unsupported.
  for (const std::uint8_t version : {1, 2, 4}) {
    auto legacy = bytes;
    legacy[4] = version;
    EXPECT_EQ(open_error(legacy), "unsupported container version")
        << int{version};
  }
}

// ---- Malformed-index rejection ---------------------------------------------

/// Small single-field archive with an EMPTY name, so the index offsets of
/// the layout table in wire_format.hpp are fixed: the u32 field count, then
/// the name record at index byte 4, dims at 12 (extent[1] at 24), the field
/// method tag at 52, the shared-codebook length at 53, the chunk count at
/// 61 (when the field carries no shared codebook), and kChunkRecordBytes
/// per chunk record from 69 (elem_offset at +16, dims at +24, the
/// codebook-ref byte at +53). `radius` and `plan` shape the shared-codebook
/// variant; `chunk_elems` = 600 gives one chunk.
std::vector<std::uint8_t> tiny_index_archive(std::uint32_t radius = 512,
                                             const PlanOptions& plan = {},
                                             std::size_t chunk_elems = 256) {
  const auto data = wavy_field(600, 21);
  sz::CompressorConfig cfg;
  cfg.method = core::Method::SelfSyncOptimized;
  cfg.radius = radius;
  const FieldSpec spec{"", data, sz::Dims::d1(600), cfg, chunk_elems, plan};
  ThreadPool pool(1);
  return BatchScheduler(pool).compress({&spec, 1});
}

std::vector<std::uint8_t> tiny_shared_archive() {
  PlanOptions plan;
  plan.shared_codebook = true;
  return tiny_index_archive(64, plan);
}

constexpr std::size_t kRankOffset = 12;
constexpr std::size_t kExtent0Offset = 16;
constexpr std::size_t kExtent1Offset = 24;
constexpr std::size_t kFieldMethodOffset = 52;
constexpr std::size_t kSharedCodebookLenOffset = 53;
constexpr std::size_t kFirstChunkOffset = 69;
constexpr std::size_t kExtent0OffsetInRecord = 28;
constexpr std::size_t kCodebookRefOffsetInRecord = 53;

/// Applies `patch` to the index section of a v3 image, then reseals the
/// footer's index CRC-32 (footer bytes 16-19), so the patched record reaches
/// its own validator instead of tripping the whole-index checksum.
std::vector<std::uint8_t> patch_index(
    std::vector<std::uint8_t> bytes,
    const std::function<void(std::span<std::uint8_t>)>& patch) {
  const std::size_t footer = bytes.size() - wire::kFooterBytes;
  util::ByteReader r(std::span<const std::uint8_t>(bytes).subspan(footer));
  const std::uint64_t index_offset = r.u64();
  const std::uint64_t index_bytes = r.u64();
  const std::span<std::uint8_t> index(bytes.data() + index_offset,
                                      index_bytes);
  patch(index);
  const std::uint32_t crc = util::crc32(index);
  for (int i = 0; i < 4; ++i) {
    bytes[footer + 16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

/// Expects `bytes` to be rejected at open with a message containing `what`.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  const std::string error = open_error(bytes);
  EXPECT_NE(error.find(what), std::string::npos)
      << "expected \"" << what << "\", got \"" << error << "\"";
}

TEST(ContainerParserFuzz, TruncationAtEveryPrefixThrows) {
  const auto bytes = tiny_index_archive();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_NE(open_error(std::span<const std::uint8_t>(bytes.data(), cut)), "")
        << "cut=" << cut;
  }
}

TEST(ContainerParserFuzz, BadMagicThrows) {
  auto bytes = tiny_index_archive();
  bytes[0] ^= 0xFF;
  expect_rejected(bytes, "bad magic");
}

TEST(ContainerParserFuzz, BadVersionThrows) {
  auto bytes = tiny_index_archive();
  bytes[4] = 99;
  expect_rejected(bytes, "unsupported container version");
}

TEST(ContainerParserFuzz, UnknownMethodTagThrows) {
  expect_rejected(patch_index(tiny_index_archive(),
                              [](std::span<std::uint8_t> index) {
                                index[kFieldMethodOffset] = 0xEE;
                              }),
                  "unknown method tag");
}

TEST(ContainerParserFuzz, NonContiguousChunkOffsetsThrow) {
  // elem_offset of the SECOND chunk record (u64 at record offset +16).
  expect_rejected(
      patch_index(tiny_index_archive(),
                  [](std::span<std::uint8_t> index) {
                    index[kFirstChunkOffset + wire::kChunkRecordBytes + 16] ^=
                        0x01;
                  }),
      "chunk element offsets are not contiguous");
}

TEST(ContainerParserFuzz, BadCodebookRefTagThrows) {
  expect_rejected(
      patch_index(tiny_index_archive(),
                  [](std::span<std::uint8_t> index) {
                    std::uint8_t& ref =
                        index[kFirstChunkOffset + kCodebookRefOffsetInRecord];
                    ASSERT_EQ(ref, 0);  // Private, pinning the layout offset
                    ref = 0xEE;
                  }),
      "unknown codebook-ref tag");
}

TEST(ContainerParserFuzz, SharedRefWithoutFieldCodebookThrows) {
  expect_rejected(
      patch_index(tiny_index_archive(),
                  [](std::span<std::uint8_t> index) {
                    // The field carries no shared codebook (length 0)...
                    for (std::size_t i = 0; i < 8; ++i) {
                      ASSERT_EQ(index[kSharedCodebookLenOffset + i], 0);
                    }
                    // ... so a chunk claiming SharedField is inconsistent.
                    index[kFirstChunkOffset + kCodebookRefOffsetInRecord] =
                        static_cast<std::uint8_t>(CodebookRef::SharedField);
                  }),
      "chunk references a shared codebook the field does not carry");
}

TEST(ContainerParserFuzz, SharedCodebookCrcMismatchThrows) {
  const auto original = tiny_shared_archive();
  expect_rejected(
      patch_index(original,
                  [](std::span<std::uint8_t> index) {
                    std::uint64_t cb_len = 0;
                    for (std::size_t i = 0; i < 8; ++i) {
                      cb_len |= std::uint64_t{
                                    index[kSharedCodebookLenOffset + i]}
                                << (8 * i);
                    }
                    ASSERT_GT(cb_len, 0u);
                    // Flip a byte in the middle of the codebook's length
                    // table.
                    index[kSharedCodebookLenOffset + 8 + cb_len / 2] ^= 0x01;
                  }),
      "shared codebook CRC-32 mismatch");
  // The intact bytes open, and the codebook is attached to the field.
  const MemorySource source(original);
  const ArchiveReader reader(source);
  ASSERT_EQ(reader.fields().size(), 1u);
  EXPECT_NE(reader.fields()[0].shared_codebook, nullptr);
}

TEST(ContainerParserFuzz, SharedTruncationAtEveryPrefixThrows) {
  const auto bytes = tiny_shared_archive();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_NE(open_error(std::span<const std::uint8_t>(bytes.data(), cut)), "")
        << "cut=" << cut;
  }
}

/// Every outcome of a random byte flip must be: clean open failure,
/// checksum/frame rejection at decode time, or a successful decode (the
/// flip hit non-load-bearing bytes). Nothing else — no crashes, no UB.
void flip_random_bytes(const std::vector<std::uint8_t>& original,
                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    try {
      const MemorySource source(bytes);
      const ArchiveReader reader(source);
      cudasim::SimContext ctx;
      (void)reader.decode_chunk(ctx, 0, 0);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(ContainerParserFuzz, SharedRandomSingleByteCorruptionNeverCrashes) {
  flip_random_bytes(tiny_shared_archive(), 79);
  SUCCEED();
}

TEST(ContainerParserFuzz, OverflowingExtentRejected) {
  // Rank 2 with extent[1] = 2^63 + 1: the extent product wraps, so the
  // parser must reject it before any buffer is sized from the product.
  expect_rejected(patch_index(tiny_index_archive(),
                              [](std::span<std::uint8_t> index) {
                                index[kRankOffset] = 2;
                                index[kExtent1Offset + 7] = 0x80;
                              }),
                  "extent product overflows");
  // Rank 1 with a non-unit trailing extent is implausible on its own.
  expect_rejected(patch_index(tiny_index_archive(),
                              [](std::span<std::uint8_t> index) {
                                index[kExtent1Offset + 7] = 0x80;
                              }),
                  "implausible extent");
}

TEST(ContainerParserFuzz, ChunkElementsBeyondWhatItsFrameHoldsRejected) {
  // One chunk; the field and its chunk record inflated to 2^28 elements
  // (1 GiB of floats) with the index CRC resealed. A frame of a few KiB
  // cannot carry 2^28 codes of at least one bit each, so open refuses the
  // index before any reader sizes an output buffer from that count.
  const auto inflate = [](std::span<std::uint8_t> index) {
    for (const std::size_t at :
         {kExtent0Offset, kFirstChunkOffset + kExtent0OffsetInRecord}) {
      std::uint64_t extent = 0;
      for (int i = 0; i < 8; ++i) {
        extent |= std::uint64_t{index[at + i]} << (8 * i);
        index[at + i] = static_cast<std::uint8_t>((std::uint64_t{1} << 28) >>
                                                  (8 * i));
      }
      ASSERT_EQ(extent, 600u);  // pins the layout offsets
    }
  };
  expect_rejected(patch_index(tiny_index_archive(512, {}, 600), inflate),
                  "-byte frame can hold");
}

TEST(ContainerParserFuzz, DuplicateFieldNamesRejected) {
  const auto data = wavy_field(800, 31);
  const FieldSpec specs[] = {{"a", data, sz::Dims::d1(800), {}, 400, {}},
                             {"b", data, sz::Dims::d1(800), {}, 400, {}}};
  ThreadPool pool(1);
  // Rename field "b" to "a" in the index: its name is stored as u64 length
  // 1 followed by 'b' — a 9-byte pattern unique in the index.
  expect_rejected(
      patch_index(BatchScheduler(pool).compress(specs),
                  [](std::span<std::uint8_t> index) {
                    const std::uint8_t pattern[9] = {1, 0, 0, 0, 0,
                                                     0, 0, 0, 'b'};
                    const auto it =
                        std::search(index.begin(), index.end(),
                                    std::begin(pattern), std::end(pattern));
                    ASSERT_NE(it, index.end());
                    *(it + 8) = 'a';
                  }),
      "duplicate field name 'a' in container");
}

TEST(ContainerParserFuzz, TrailingBytesRejected) {
  auto bytes = tiny_index_archive();
  bytes.push_back(0);
  expect_rejected(bytes, "archive footer");
}

TEST(ContainerParserFuzz, RandomSingleByteCorruptionNeverCrashes) {
  flip_random_bytes(tiny_index_archive(), 77);
  SUCCEED();
}

// ---- Salvage & repair ------------------------------------------------------

/// Two-field archive ("a": 600 elements in 256-element chunks; "b": 500
/// elements in 200-element chunks on a shared codebook) built on one
/// worker; `fields`, when non-null, receives the as-written index records.
std::vector<std::uint8_t> two_field_archive(const WriterOptions& options,
                                            std::vector<FieldEntry>* fields) {
  const auto d0 = wavy_field(600, 31);
  const auto d1 = wavy_field(500, 32, 0.05);
  sz::CompressorConfig cfg;
  cfg.method = core::Method::SelfSyncOptimized;
  cfg.radius = 64;
  PlanOptions plan;
  plan.shared_codebook = true;
  const FieldSpec specs[] = {{"a", d0, sz::Dims::d1(600), cfg, 256, {}},
                             {"b", d1, sz::Dims::d1(500), cfg, 200, plan}};
  ThreadPool pool(1);
  MemorySink sink;
  ArchiveWriter writer(sink, options);
  BatchScheduler(pool).compress_to(writer, specs);
  writer.finish();
  if (fields != nullptr) *fields = writer.fields();
  return sink.take();
}

/// two_field_archive written WITH recovery preambles, plus its as-written
/// index records and reference floats.
struct PreambledArchive {
  std::vector<std::uint8_t> bytes;
  std::vector<FieldEntry> fields;
  std::vector<std::vector<float>> reference;
};

PreambledArchive preambled_archive() {
  PreambledArchive a;
  a.bytes = two_field_archive({.recovery_preambles = true}, &a.fields);
  const MemorySource source(a.bytes);
  ThreadPool pool(1);
  for (FieldResult& f :
       BatchScheduler(pool).decompress(ArchiveReader(source)).fields) {
    a.reference.push_back(std::move(f.decode.data));
  }
  return a;
}

TEST(Salvage, PreamblesFlagTheHeaderAndCostNoStrictReadTraffic) {
  // Same corpus written plain and with preambles: the flag byte is the only
  // header difference, the preambled archive still opens and decodes
  // strictly, and a strict decode reads EXACTLY as many bytes as the plain
  // archive holds — the index addresses frames past the preambles, so the
  // strict path never touches them (read amplification 1.0). The storage
  // cost is exactly the preamble records themselves (one field preamble per
  // field, kChunkPreambleBytes per chunk), nothing hidden; the happy-path
  // <2% budget on realistic frames is guarded in BENCH_stream.json.
  const PreambledArchive a = preambled_archive();
  const std::vector<std::uint8_t> plain = two_field_archive({}, nullptr);
  EXPECT_EQ(plain[5], 0);
  EXPECT_EQ(a.bytes[5], wire::kFlagRecoveryPreambles);
  EXPECT_GT(a.bytes.size(), plain.size());
  std::uint64_t expected_extra = 0;
  for (const FieldEntry& f : a.fields) {
    expected_extra +=
        wire::field_preamble_bytes(f) + f.chunks.size() * wire::kChunkPreambleBytes;
  }
  EXPECT_EQ(a.bytes.size() - plain.size(), expected_extra);

  const MemorySource memory(a.bytes);
  const TrackingSource tracked(memory);
  const ArchiveReader reader(tracked);
  ThreadPool pool(2);
  const BatchDecompressResult strict = BatchScheduler(pool).decompress(reader);
  for (std::size_t fi = 0; fi < strict.fields.size(); ++fi) {
    EXPECT_EQ(strict.fields[fi].decode.data, a.reference[fi]);
  }
  EXPECT_EQ(tracked.bytes_read(), plain.size());

  // An INTACT archive never needs the scan: salvage uses the strict index.
  SalvageReport report;
  const ArchiveReader salvaged = ArchiveReader::open_salvage(memory, &report);
  EXPECT_TRUE(report.used_index);
  EXPECT_TRUE(report.preambles_present);
  EXPECT_FALSE(salvaged.salvaged() && !salvaged.field_complete(0));
  EXPECT_NO_THROW(salvaged.verify());
}

TEST(SalvageFuzz, TruncationAtEveryByteRecoversExactlyTheChunksBeforeTheCut) {
  // The salvage acceptance property: for EVERY truncation point, open_salvage
  // recovers 100% of the chunks whose frames lie strictly before the cut and
  // nothing else — no CRC-invalid chunk is ever admitted. Deep-checks
  // (degraded decode bit-identical on Ok ranges, zero-filled elsewhere) run
  // on sampled cuts; the chunk-set equality runs on all of them.
  const PreambledArchive a = preambled_archive();
  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  // Field fi becomes visible once its field preamble (which ends where the
  // first chunk preamble starts) survives the cut.
  std::vector<std::uint64_t> field_ready(a.fields.size());
  for (std::size_t fi = 0; fi < a.fields.size(); ++fi) {
    field_ready[fi] = wire::kHeaderBytes + a.fields[fi].chunks[0].payload_offset -
                      wire::kChunkPreambleBytes;
  }
  for (std::size_t cut = 0; cut <= a.bytes.size(); ++cut) {
    const MemorySource source(
        std::span<const std::uint8_t>(a.bytes.data(), cut));
    SalvageReport report;
    const ArchiveReader reader = ArchiveReader::open_salvage(source, &report);
    if (cut == a.bytes.size()) {
      EXPECT_TRUE(report.used_index);
    }

    std::vector<std::vector<std::size_t>> expect;
    for (std::size_t fi = 0; fi < a.fields.size(); ++fi) {
      if (cut < field_ready[fi]) break;
      expect.emplace_back();
      for (std::size_t ci = 0; ci < a.fields[fi].chunks.size(); ++ci) {
        const ChunkRecord& rec = a.fields[fi].chunks[ci];
        if (wire::kHeaderBytes + rec.payload_offset + rec.payload_bytes <=
            cut) {
          expect.back().push_back(ci);
        }
      }
    }
    ASSERT_EQ(reader.fields().size(), expect.size()) << "cut=" << cut;
    for (std::size_t fi = 0; fi < expect.size(); ++fi) {
      ASSERT_EQ(reader.fields()[fi].chunks.size(), expect[fi].size())
          << "cut=" << cut << " field=" << fi;
      for (std::size_t ci = 0; ci < expect[fi].size(); ++ci) {
        EXPECT_EQ(reader.chunk_ordinal(fi, ci), expect[fi][ci]);
      }
      EXPECT_EQ(reader.field_complete(fi),
                expect[fi].size() == a.fields[fi].chunks.size())
          << "cut=" << cut << " field=" << fi;
    }

    if (cut % 97 != 0 && cut != a.bytes.size()) continue;
    const PartialBatchDecompress pd = sched.decompress_partial(reader);
    for (std::size_t fi = 0; fi < expect.size(); ++fi) {
      const FieldReport& report = pd.report.fields[fi];
      const std::vector<float>& values = pd.values[fi];
      std::uint64_t expect_ok = 0;
      for (std::size_t ci : expect[fi]) {
        expect_ok += a.fields[fi].chunks[ci].dims.count();
      }
      EXPECT_EQ(report.elems_ok, expect_ok) << "cut=" << cut;
      ASSERT_EQ(values.size(), a.reference[fi].size());
      for (const ChunkReport& cr : report.chunks) {
        const std::uint64_t count = cr.elem_count > 0
                                        ? cr.elem_count
                                        : values.size() - cr.elem_offset;
        for (std::uint64_t i = 0; i < count; ++i) {
          const float got = values[cr.elem_offset + i];
          if (cr.status == ChunkStatus::Ok) {
            ASSERT_EQ(got, a.reference[fi][cr.elem_offset + i])
                << "cut=" << cut << " field=" << fi;
          } else {
            ASSERT_EQ(got, 0.0f) << "cut=" << cut << " field=" << fi;
          }
        }
      }
    }
  }
}

TEST(SalvageFuzz, RandomBitFlipsNeverSurfaceUnverifiedBytes) {
  // Every single-bit flip anywhere in the archive: open_salvage must never
  // crash, and a degraded decode must only label a range Ok when its bytes
  // are bit-identical to the clean reference — whatever the flip hit
  // (header, preamble, frame, index, or footer).
  const PreambledArchive a = preambled_archive();
  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  util::Xoshiro256 rng(83);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = a.bytes;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    const MemorySource source(bytes);
    SalvageReport report;
    const ArchiveReader reader = ArchiveReader::open_salvage(source, &report);
    const PartialBatchDecompress pd = sched.decompress_partial(reader);
    for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
      const std::vector<float>* ref = nullptr;
      for (std::size_t i = 0; i < a.fields.size(); ++i) {
        if (a.fields[i].name == reader.fields()[fi].name) {
          ref = &a.reference[i];
        }
      }
      if (ref == nullptr) continue;  // the flip landed in a header name
      if (reader.fields()[fi].dims.count() != ref->size()) continue;
      const std::vector<float>& values = pd.values[fi];
      for (const ChunkReport& cr : pd.report.fields[fi].chunks) {
        const std::uint64_t count = cr.elem_count > 0
                                        ? cr.elem_count
                                        : values.size() - cr.elem_offset;
        for (std::uint64_t i = 0; i < count; ++i) {
          const float got = values[cr.elem_offset + i];
          if (cr.status == ChunkStatus::Ok) {
            ASSERT_EQ(got, (*ref)[cr.elem_offset + i])
                << "trial=" << trial << " pos=" << pos;
          } else {
            ASSERT_EQ(got, 0.0f) << "trial=" << trial << " pos=" << pos;
          }
        }
      }
    }
  }
}

TEST(Salvage, StrictEntryPointsRejectIncompleteSalvagedFields) {
  // A cut through the LAST frame of field "b": field "a" salvages complete
  // and keeps full strict access; "b" is incomplete, so every strict entry
  // point refuses it and only the partial paths (which report the hole)
  // reach its surviving chunks.
  const PreambledArchive a = preambled_archive();
  const ChunkRecord& last = a.fields[1].chunks.back();
  const std::size_t cut = static_cast<std::size_t>(
      wire::kHeaderBytes + last.payload_offset + last.payload_bytes / 2);
  const MemorySource source(std::span<const std::uint8_t>(a.bytes.data(), cut));
  SalvageReport report;
  const ArchiveReader reader = ArchiveReader::open_salvage(source, &report);
  EXPECT_TRUE(reader.salvaged());
  EXPECT_FALSE(report.used_index);
  EXPECT_TRUE(report.preambles_present);
  ASSERT_EQ(reader.fields().size(), 2u);
  EXPECT_TRUE(reader.field_complete(0));
  EXPECT_FALSE(reader.field_complete(1));

  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  EXPECT_EQ(sched.decode_range(reader, 0, 0, 600), a.reference[0]);
  EXPECT_THROW(sched.decode_range(reader, 1, 0, 10), ContainerError);
  EXPECT_THROW(sched.decode_range(reader, 1, 350, 450), ContainerError);
  EXPECT_THROW(reader.verify(), ContainerError);
  EXPECT_THROW(sched.decompress(reader), ContainerError);
  const PartialBatchDecompress partial = sched.decompress_partial(reader);
  EXPECT_FALSE(partial.report.complete());
  ASSERT_EQ(partial.report.fields.size(), 2u);
  EXPECT_TRUE(partial.report.fields[0].complete());
  const FieldReport& fb = partial.report.fields[1];
  EXPECT_EQ(fb.ok_count(), a.fields[1].chunks.size() - 1);
  EXPECT_EQ(fb.chunks.back().status, ChunkStatus::Missing);
  const std::vector<float>& vb = partial.values[1];
  const std::uint64_t covered = last.elem_offset;
  for (std::uint64_t i = 0; i < vb.size(); ++i) {
    if (i < covered) {
      ASSERT_EQ(vb[i], a.reference[1][i]);
    } else {
      ASSERT_EQ(vb[i], 0.0f);
    }
  }
}

TEST(Salvage, RepairTruncatedRefinalizesTheIntactPrefix) {
  // Tear the archive one byte before the end of field "b"'s last frame and
  // repair: the output must be a STRICTLY valid archive keeping field "a"
  // whole and "b" re-declared over the covered prefix, decoding
  // bit-identical to the reference on everything kept.
  const PreambledArchive a = preambled_archive();
  const ChunkRecord& last = a.fields[1].chunks.back();
  const std::size_t cut = static_cast<std::size_t>(
      wire::kHeaderBytes + last.payload_offset + last.payload_bytes - 1);
  const MemorySource damaged(
      std::span<const std::uint8_t>(a.bytes.data(), cut));
  MemorySink repaired_sink;
  const RepairReport rr = repair_truncated(damaged, repaired_sink);
  const std::size_t total_chunks =
      a.fields[0].chunks.size() + a.fields[1].chunks.size();
  EXPECT_EQ(rr.fields_kept, 2u);
  EXPECT_EQ(rr.fields_dropped, 0u);
  EXPECT_EQ(rr.chunks_kept, total_chunks - 1);
  EXPECT_EQ(rr.chunks_dropped, 0u);  // the torn frame was never recovered
  EXPECT_EQ(rr.output_bytes, repaired_sink.bytes().size());

  const MemorySource source(repaired_sink.bytes());
  const ArchiveReader reader(source);  // strict open: the repair is valid
  EXPECT_NO_THROW(reader.verify());
  ASSERT_EQ(reader.fields().size(), 2u);
  ThreadPool pool(2);
  const BatchDecompressResult decoded = BatchScheduler(pool).decompress(reader);
  EXPECT_EQ(decoded.fields[0].decode.data, a.reference[0]);
  const std::uint64_t covered = last.elem_offset;
  EXPECT_EQ(reader.fields()[1].dims.count(), covered);
  const std::vector<float>& b = decoded.fields[1].decode.data;
  ASSERT_EQ(b.size(), covered);
  for (std::uint64_t i = 0; i < covered; ++i) {
    ASSERT_EQ(b[i], a.reference[1][i]);
  }
  // The repaired archive carries preambles itself, so it can be salvaged
  // again after further damage.
  EXPECT_EQ(repaired_sink.bytes()[5], wire::kFlagRecoveryPreambles);
}

TEST(Salvage, PlainArchivesWithoutPreamblesCannotBeScanned) {
  // A default-written (no preambles) archive with a torn tail has no
  // self-delimiting records to re-synchronize on: salvage reports the
  // situation instead of guessing at frame boundaries.
  const auto bytes = tiny_archive_bytes();
  const MemorySource source(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() * 3 / 4));
  SalvageReport report;
  const ArchiveReader reader = ArchiveReader::open_salvage(source, &report);
  EXPECT_TRUE(report.header_valid);
  EXPECT_FALSE(report.preambles_present);
  EXPECT_FALSE(report.used_index);
  EXPECT_TRUE(reader.fields().empty());
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes.back().find("no recovery preambles"),
            std::string::npos);
}

TEST(Salvage, PayloadCorruptionKeepsTheStrictIndexAndQuarantinesAtDecode) {
  // A bit flip inside one frame leaves the footer+index intact: salvage
  // takes the strict-index path (works even WITHOUT preambles), the strict
  // batch decompress refuses the archive, and the degraded decompress
  // quarantines exactly the flipped chunk.
  const auto original = tiny_archive_bytes();
  const MemorySource clean(original);
  const ArchiveReader parsed(clean);
  const ChunkRecord& rec = parsed.fields()[1].chunks[2];
  auto bytes = original;
  bytes[wire::kHeaderBytes + rec.payload_offset + rec.payload_bytes / 2] ^=
      0x10;
  const MemorySource source(bytes);
  SalvageReport report;
  const ArchiveReader reader = ArchiveReader::open_salvage(source, &report);
  EXPECT_TRUE(report.used_index);
  for (std::size_t fi = 0; fi < reader.fields().size(); ++fi) {
    EXPECT_TRUE(reader.field_complete(fi));
  }

  ThreadPool pool(2);
  const BatchScheduler sched(pool);
  EXPECT_THROW(sched.decompress(reader), ContainerError);
  const PartialBatchDecompress partial = sched.decompress_partial(reader);
  std::size_t corrupt = 0;
  for (std::size_t fi = 0; fi < partial.report.fields.size(); ++fi) {
    for (const ChunkReport& cr : partial.report.fields[fi].chunks) {
      if (cr.status == ChunkStatus::Corrupt) {
        ++corrupt;
        EXPECT_EQ(fi, 1u);
        EXPECT_EQ(cr.chunk, 2u);
        EXPECT_NE(cr.detail.find("CRC-32"), std::string::npos);
      }
    }
  }
  EXPECT_EQ(corrupt, 1u);
  const std::vector<float> ref = sched.decompress(parsed).fields[1].decode.data;
  const std::vector<float>& got = partial.values[1];
  ASSERT_EQ(got.size(), ref.size());
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    const bool in_flipped = i >= rec.elem_offset &&
                            i < rec.elem_offset + rec.dims.count();
    ASSERT_EQ(got[i], in_flipped ? 0.0f : ref[i]) << i;
  }
}

// ---- Byte-stream primitives ----------------------------------------------

TEST(ByteStream, BoundedRingEnforcesCapacityAndKeepsFifoOrder) {
  BoundedRingSink ring(8);
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  ring.write(a);
  EXPECT_EQ(ring.buffered(), 5u);
  EXPECT_THROW(ring.write(a), ArchiveError);  // 10 > 8
  EXPECT_EQ(ring.drain(), a);
  EXPECT_EQ(ring.buffered(), 0u);
  // Wrap-around: the ring reuses its storage across drains.
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> piece{static_cast<std::uint8_t>(i),
                                    static_cast<std::uint8_t>(i + 100)};
    ring.write(piece);
    EXPECT_EQ(ring.drain(), piece) << i;
  }
  EXPECT_EQ(ring.peak_buffered(), 5u);
  EXPECT_EQ(ring.position(), 25u);
  EXPECT_THROW(BoundedRingSink(0), ArchiveError);
}

TEST(ByteStream, MemoryAndFileSourcesRejectOutOfRangeReads) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  const MemorySource memory(bytes);
  std::vector<std::uint8_t> out(3);
  memory.read_at(1, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{2, 3, 4}));
  EXPECT_THROW(memory.read_at(2, out), ArchiveError);
  EXPECT_THROW(memory.read_at(5, std::span<std::uint8_t>(out.data(), 1)),
               ArchiveError);

  const std::string path = temp_path("ohd_bytestream.bin");
  {
    FileSink sink(path);
    sink.write(bytes);
    EXPECT_EQ(sink.position(), 4u);
    sink.flush();
  }
  const FileSource file(path);
  EXPECT_EQ(file.size(), 4u);
  file.read_at(1, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{2, 3, 4}));
  EXPECT_THROW(file.read_at(2, out), ArchiveError);
  std::remove(path.c_str());
  EXPECT_THROW(FileSource{"/nonexistent/ohd/path.bin"}, ArchiveError);
}

TEST(ByteStream, FileSourceRejectsOutOfBoundsReads) {
  // FileSource reads with pread at the caller's offset; the size it took at
  // open bounds every read, whether it starts inside or past the end.
  std::vector<std::uint8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 13);
  }
  const std::string path = temp_path("ohd_file_source_bounds.bin");
  {
    FileSink sink(path);
    sink.write(bytes);
    sink.commit();
  }
  const FileSource source(path);
  ASSERT_EQ(source.size(), bytes.size());
  std::vector<std::uint8_t> buf(32);
  EXPECT_THROW(source.read_at(40, buf), ArchiveError);  // 40 + 32 > 64
  EXPECT_THROW(source.read_at(65, std::span(buf).first(1)), ArchiveError);
  source.read_at(32, buf);  // the exact tail is in range
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), bytes.begin() + 32));
  // An empty read delivers nothing, so it is a no-op at any offset.
  EXPECT_NO_THROW(source.read_at(65, std::span(buf).first(0)));
  std::remove(path.c_str());
}

TEST(ByteStream, FileSourceServesConcurrentOverlappingReads) {
  // Chunk fetches run on pool workers; each read carries its own offset, so
  // threads reading overlapping ranges at once must each get their bytes.
  std::vector<std::uint8_t> bytes(10000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 13 + i / 256);
  }
  const std::string path = temp_path("ohd_concurrent_source.bin");
  {
    FileSink sink(path);
    sink.write(bytes);
    sink.commit();
  }
  const FileSource source(path);
  ASSERT_EQ(source.size(), bytes.size());
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint8_t> out(3000);
      for (std::size_t round = 0; round < 200; ++round) {
        const std::size_t offset = (t * 997 + round * 131) % (bytes.size() -
                                                              out.size());
        source.read_at(offset, out);
        if (!std::equal(out.begin(), out.end(), bytes.begin() + offset)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches, std::vector<int>(mismatches.size(), 0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ohd::pipeline

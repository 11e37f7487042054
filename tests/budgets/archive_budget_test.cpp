// Allocation budget of opening and decoding a hostile archive: an index
// whose field and chunk claim 2^28 elements (1 GiB of floats) over a frame
// of a few KiB, with the index CRC resealed so the claim reaches the parser
// behind it. A strict open, then a batch decompress if the open succeeds,
// must stay within 64 x the archive bytes + 1 MiB of live heap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "heap_meter.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/byte_stream.hpp"
#include "pipeline/thread_pool.hpp"
#include "pipeline/wire_format.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace ohd::budgets {
namespace {

/// One 600-element field with an empty name in one chunk, so the index
/// offsets are fixed: the field's extent[0] at index byte 16 and the chunk
/// record's at 97 (wire_format.hpp's layout table).
constexpr std::size_t kFieldExtent0 = 16;
constexpr std::size_t kChunkExtent0 = 97;

std::vector<std::uint8_t> one_chunk_archive() {
  std::vector<float> data(600);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }
  const pipeline::FieldSpec spec{"", data, sz::Dims::d1(600), {}, 600, {}};
  pipeline::ThreadPool pool(1);
  return pipeline::BatchScheduler(pool).compress({&spec, 1});
}

/// Sets both extents to `elems` and reseals the footer's index CRC-32.
std::vector<std::uint8_t> inflate(std::vector<std::uint8_t> bytes,
                                  std::uint64_t elems) {
  const std::size_t footer = bytes.size() - pipeline::wire::kFooterBytes;
  util::ByteReader r(std::span<const std::uint8_t>(bytes).subspan(footer));
  const std::uint64_t index_offset = r.u64();
  const std::uint64_t index_bytes = r.u64();
  const std::span<std::uint8_t> index(bytes.data() + index_offset,
                                      index_bytes);
  for (const std::size_t at : {kFieldExtent0, kChunkExtent0}) {
    std::uint64_t extent = 0;
    for (int i = 0; i < 8; ++i) {
      extent |= std::uint64_t{index[at + i]} << (8 * i);
      index[at + i] = static_cast<std::uint8_t>(elems >> (8 * i));
    }
    EXPECT_EQ(extent, 600u);  // pins the layout offsets
  }
  const std::uint32_t crc = util::crc32(index);
  for (int i = 0; i < 4; ++i) {
    bytes[footer + 16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

TEST(ArchiveBudget, InflatedChunkCountStaysWithinBudget) {
  const std::vector<std::uint8_t> bytes =
      inflate(one_chunk_archive(), std::uint64_t{1} << 28);
  pipeline::ThreadPool pool(1);
  const pipeline::BatchScheduler scheduler(pool);
  const HeapMeter meter;
  try {
    const pipeline::MemorySource source(bytes);
    const pipeline::ArchiveReader reader(source);
    (void)scheduler.decompress(reader);
  } catch (const std::invalid_argument&) {
    // Refused: the budget below is what refusing cost.
  }
  EXPECT_LE(meter.peak_bytes(), 64 * bytes.size() + (std::size_t{1} << 20));
}

}  // namespace
}  // namespace ohd::budgets

// Seeded request streams. The workload seed is the only source of
// randomness: each connection's stream comes from its own generator,
// derived from (seed, connection) here in the benchmark, so one seed always
// yields one request list regardless of timing.
//
// The read mix has no free parameters; it follows from the archive layout:
//   - a request targets a uniformly random element of the corpus (uniform
//     access with no locality, YCSB's "uniform" request distribution);
//   - a chunk read fetches the chunk holding that element;
//   - a range read fetches, from that element on, as many elements as the
//     chunk holding it (stopping at the field's end), so it returns as much
//     data as the chunk read would but straddles two chunks unless it starts
//     on a chunk boundary;
//   - the range share is set so that chunk reads and range reads each
//     decode half of the elements the stream decodes, which gives the chunk
//     path and the decode_range path equal weight of decode work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Geometry the read mix draws from: per field, its element count and the
/// element offset of every chunk (the archive index, flattened).
struct FieldLayout {
  std::uint64_t elems = 0;
  std::vector<std::uint64_t> chunk_offsets;  // ascending, first is 0

  std::uint64_t chunk_size(std::size_t c) const;
  /// Index of the chunk holding element `e`.
  std::size_t chunk_of(std::uint64_t e) const;
};

/// One remote_reads request: a whole-chunk read or an element range.
struct ReadRequest {
  bool is_range = false;
  std::uint32_t field = 0;
  std::uint32_t chunk = 0;      // chunk reads
  std::uint64_t elem_begin = 0; // ranges: [elem_begin, elem_end)
  std::uint64_t elem_end = 0;

  bool operator==(const ReadRequest&) const = default;
};

/// The read mix of a layout, derived exactly (every start element is
/// enumerated): the expected elements one chunk read and one range read
/// decode (whole chunks overlapped), and the range share that makes the two
/// classes decode the same number of elements.
struct ReadMix {
  double chunk_decoded_elems = 0.0;
  double range_decoded_elems = 0.0;
  double range_share = 0.0;
};

ReadMix read_mix(const std::vector<FieldLayout>& fields);

/// Elements the decode of `r` touches: every chunk it overlaps, whole.
std::uint64_t decoded_elems(const std::vector<FieldLayout>& fields,
                            const ReadRequest& r);

/// The generator seed of connection `connection` under workload `seed`
/// (SplitMix64 finalizer over both, so neighbouring seeds and connections
/// give unrelated streams).
std::uint64_t connection_seed(std::uint64_t seed, std::size_t connection);

/// `count` read requests for one connection, drawn as the mix above says.
std::vector<ReadRequest> make_read_stream(std::uint64_t seed,
                                          std::size_t connection,
                                          const std::vector<FieldLayout>& fields,
                                          std::size_t count);

/// The first `count` requests a run sends over `connections` connections:
/// request i goes to connection i % connections and is the next request of
/// that connection's stream.
std::vector<ReadRequest> make_read_schedule(
    std::uint64_t seed, const std::vector<FieldLayout>& fields,
    std::size_t connections, std::size_t count);

}  // namespace perfbench

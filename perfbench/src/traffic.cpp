#include "traffic.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

std::uint64_t FieldLayout::chunk_size(std::size_t c) const {
  const std::uint64_t end =
      c + 1 < chunk_offsets.size() ? chunk_offsets[c + 1] : elems;
  return end - chunk_offsets.at(c);
}

std::size_t FieldLayout::chunk_of(std::uint64_t e) const {
  return static_cast<std::size_t>(
      std::upper_bound(chunk_offsets.begin(), chunk_offsets.end(), e) -
      chunk_offsets.begin() - 1);
}

namespace {

/// The range read that starts at element `e` of field `f`.
ReadRequest range_at(const FieldLayout& layout, std::uint32_t f,
                     std::uint64_t e) {
  const std::uint64_t len = layout.chunk_size(layout.chunk_of(e));
  return {true, f, 0, e, std::min(e + len, layout.elems)};
}

}  // namespace

std::uint64_t decoded_elems(const std::vector<FieldLayout>& fields,
                            const ReadRequest& r) {
  const FieldLayout& f = fields.at(r.field);
  if (!r.is_range) return f.chunk_size(r.chunk);
  std::uint64_t n = 0;
  for (std::size_t c = f.chunk_of(r.elem_begin); c <= f.chunk_of(r.elem_end - 1);
       ++c) {
    n += f.chunk_size(c);
  }
  return n;
}

ReadMix read_mix(const std::vector<FieldLayout>& fields) {
  if (fields.empty()) throw std::invalid_argument("no fields to read");
  // Both expectations are over a uniformly random target element.
  double total = 0, chunk_sum = 0, range_sum = 0;
  for (std::uint32_t f = 0; f < fields.size(); ++f) {
    const FieldLayout& layout = fields[f];
    total += static_cast<double>(layout.elems);
    for (std::size_t c = 0; c < layout.chunk_offsets.size(); ++c) {
      const double size = static_cast<double>(layout.chunk_size(c));
      chunk_sum += size * size;
    }
    for (std::uint64_t e = 0; e < layout.elems; ++e) {
      range_sum +=
          static_cast<double>(decoded_elems(fields, range_at(layout, f, e)));
    }
  }
  ReadMix mix;
  mix.chunk_decoded_elems = chunk_sum / total;
  mix.range_decoded_elems = range_sum / total;
  // share * range = (1 - share) * chunk
  mix.range_share = mix.chunk_decoded_elems /
                    (mix.chunk_decoded_elems + mix.range_decoded_elems);
  return mix;
}

std::uint64_t connection_seed(std::uint64_t seed, std::size_t connection) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (connection + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<ReadRequest> make_read_stream(std::uint64_t seed,
                                          std::size_t connection,
                                          const std::vector<FieldLayout>& fields,
                                          std::size_t count) {
  const double range_share = read_mix(fields).range_share;
  std::vector<std::uint64_t> field_end;  // cumulative element counts
  for (const FieldLayout& f : fields) {
    field_end.push_back((field_end.empty() ? 0 : field_end.back()) + f.elems);
  }
  ohd::util::Xoshiro256 rng(connection_seed(seed, connection));
  std::vector<ReadRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t g = rng.bounded(field_end.back());
    const auto f = static_cast<std::uint32_t>(
        std::upper_bound(field_end.begin(), field_end.end(), g) -
        field_end.begin());
    const FieldLayout& layout = fields[f];
    const std::uint64_t e = g - (field_end[f] - layout.elems);
    if (rng.uniform() < range_share) {
      out.push_back(range_at(layout, f, e));
    } else {
      out.push_back({false, f, static_cast<std::uint32_t>(layout.chunk_of(e)),
                     0, 0});
    }
  }
  return out;
}

std::vector<ReadRequest> make_read_schedule(
    std::uint64_t seed, const std::vector<FieldLayout>& fields,
    std::size_t connections, std::size_t count) {
  if (connections == 0) throw std::invalid_argument("no connections");
  std::vector<std::vector<ReadRequest>> streams;
  for (std::size_t c = 0; c < connections; ++c) {
    streams.push_back(make_read_stream(seed, c, fields,
                                       (count + connections - 1) / connections));
  }
  std::vector<ReadRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(streams[i % connections][i / connections]);
  }
  return out;
}

}  // namespace perfbench

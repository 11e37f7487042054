#include "cudasim/algorithms.hpp"

#include <algorithm>
#include <numeric>

namespace ohd::cudasim {

namespace {

// Charges a simple streaming kernel over n elements of `element_bytes` each,
// reading `reads` times and writing `writes` times, with `cycles_per_elem`
// compute. Used to model the cost of library primitives whose internals we
// do not simulate lane-by-lane.
void charge_streaming_kernel(SimContext& ctx, const std::string& name,
                             std::uint64_t n, std::uint32_t element_bytes,
                             std::uint32_t reads, std::uint32_t writes,
                             std::uint32_t cycles_per_elem) {
  constexpr std::uint32_t kBlockDim = 256;
  const std::uint32_t grid = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (n + kBlockDim - 1) / kBlockDim));
  // Dummy contiguous address ranges: perfectly coalesced streaming access.
  const std::uint64_t in_base = ctx.reserve_address(n * element_bytes);
  const std::uint64_t out_base = ctx.reserve_address(n * element_bytes);
  std::vector<StreamAccess> accesses(reads, {in_base, element_bytes, false});
  accesses.resize(reads + writes, {out_base, element_bytes, true});
  ctx.launch(name, {grid, kBlockDim, 0}, [&](BlockCtx& blk) {
    const std::uint64_t first =
        static_cast<std::uint64_t>(blk.block_idx()) * kBlockDim;
    for (StreamAccess& a : accesses) {
      a.base = (a.is_write ? out_base : in_base) + first * element_bytes;
    }
    blk.stream_phase(std::min<std::uint64_t>(kBlockDim, n - first), accesses,
                     cycles_per_elem);
  });
}

}  // namespace

std::vector<std::uint64_t> device_exclusive_prefix_sum(
    SimContext& ctx, std::span<const std::uint32_t> in,
    const std::string& kernel_name) {
  std::vector<std::uint64_t> out(in.size() + 1, 0);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = acc;
    acc += in[i];
  }
  out[in.size()] = acc;
  // Work-efficient device scan: ~2 passes over the data.
  charge_streaming_kernel(ctx, kernel_name, in.size(), sizeof(std::uint32_t),
                          /*reads=*/1, /*writes=*/1, /*cycles_per_elem=*/4);
  return out;
}

std::vector<std::uint32_t> device_histogram(SimContext& ctx,
                                            std::span<const std::uint32_t> keys,
                                            std::uint32_t num_bins,
                                            const std::string& kernel_name) {
  std::vector<std::uint32_t> bins(num_bins, 0);
  for (std::uint32_t k : keys) {
    if (k < num_bins) ++bins[k];
  }
  // Shared-memory privatised histogram: one read per key plus a small
  // per-block merge; atomics charged as extra cycles.
  charge_streaming_kernel(ctx, kernel_name, keys.size(),
                          sizeof(std::uint32_t), /*reads=*/1, /*writes=*/0,
                          /*cycles_per_elem=*/6);
  return bins;
}

void device_radix_sort_pairs(SimContext& ctx, std::vector<std::uint32_t>& keys,
                             std::vector<std::uint32_t>& values,
                             std::uint32_t key_bits,
                             const std::string& kernel_name) {
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return keys[a] < keys[b];
  });
  std::vector<std::uint32_t> sorted_keys(keys.size());
  std::vector<std::uint32_t> sorted_values(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = keys[order[i]];
    sorted_values[i] = values[order[i]];
  }
  keys = std::move(sorted_keys);
  values = std::move(sorted_values);

  // CUB radix-sorts 8 bits per pass; each pass streams keys+values twice
  // (rank + scatter).
  const std::uint32_t passes = std::max(1u, (key_bits + 7) / 8);
  for (std::uint32_t p = 0; p < passes; ++p) {
    charge_streaming_kernel(ctx, kernel_name, keys.size(),
                            2 * sizeof(std::uint32_t), /*reads=*/2,
                            /*writes=*/1, /*cycles_per_elem=*/8);
  }
}

}  // namespace ohd::cudasim

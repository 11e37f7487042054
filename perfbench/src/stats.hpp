// Exact order statistics over raw samples. Every timing the benchmark
// reports goes through here; the library's power-of-two
// obs::LatencyHistogram is only read for the registry-side queue wait.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Latency sample recorded for a failed or refused request: it misses every
/// latency limit.
inline constexpr double kFailedLatencyMs = 1e12;

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// order statistics (the "type 7" rule of R and NumPy's default). Throws
/// std::invalid_argument on an empty sample or q outside [0, 1].
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Throughput from a per-op median: `bytes_per_op` divided by the median of
/// the per-op seconds, in GB/s (1e9 bytes). Using the median op rather than
/// the mean keeps one descheduled op from moving the figure.
double per_op_median_gbps(std::uint64_t bytes_per_op,
                          const std::vector<double>& op_seconds);

/// Seconds between two steady-clock nanosecond stamps.
inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace perfbench

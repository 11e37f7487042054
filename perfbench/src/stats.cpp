#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double per_op_median_gbps(std::uint64_t bytes_per_op,
                          const std::vector<double>& op_seconds) {
  const double s = median(op_seconds);
  if (!(s > 0.0)) throw std::invalid_argument("non-positive median op time");
  return static_cast<double>(bytes_per_op) / s * 1e-9;
}

}  // namespace perfbench

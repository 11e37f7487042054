#include "rounds.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace perfbench {

std::vector<std::size_t> kept_rounds(const std::vector<double>& steal,
                                     std::size_t want) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Rounds within the gate first, in run order; then the rest by steal.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool in_a = steal[a] <= kMaxSteal;
    const bool in_b = steal[b] <= kMaxSteal;
    if (in_a != in_b) return in_a;
    return !in_a && steal[a] < steal[b];
  });
  order.resize(std::min(want, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

void report_rounds(const std::vector<double>& steal, Report& report) {
  std::size_t set_aside = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    report.detail("round." + std::to_string(i) + ".steal", steal[i]);
    if (steal[i] > kMaxSteal) ++set_aside;
  }
  report.detail("rounds.run", static_cast<double>(steal.size()));
  report.detail("rounds.set_aside", static_cast<double>(set_aside));
}

}  // namespace perfbench

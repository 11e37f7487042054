// Steal-gated measurement rounds, shared by the timed workloads.
//
// On a shared VM the hypervisor now and then runs other guests on this VM's
// CPUs for a minute or two: /proc/stat's "steal" rises to 10-20% of CPU
// time. Open-loop latency then doubles or triples and throughput drops, so
// a run in such a spell measures the host, not the program. Each timed
// workload therefore measures in rounds. A round whose steal share exceeds
// kMaxSteal is verified and counted like any other, but its timings are set
// aside and another round runs in its place, at most kMaxExtraRounds times.
#pragma once

#include <cstddef>
#include <vector>

#include "machine.hpp"
#include "report.hpp"

namespace perfbench {

/// Rounds whose timings a run reports; each measures 1/kRounds of --seconds.
inline constexpr std::size_t kRounds = 5;
/// Replacement rounds a run may add: enough to outlast a ~90 s steal spell.
inline constexpr std::size_t kMaxExtraRounds = 10;
/// Outside steal spells a round's steal share stayed below ~3%; inside one
/// it was 9-21%, and at 4-5% p50 latency already rose by a tenth or more.
inline constexpr double kMaxSteal = 0.03;

/// The rounds to report, ascending: every round within kMaxSteal when at
/// least `want` were (the first `want` of them), else those plus the least
/// stolen of the rest up to `want`.
std::vector<std::size_t> kept_rounds(const std::vector<double>& steal,
                                     std::size_t want);

/// Prints the gate's figures (rounds run and set aside, each round's steal
/// share) in `report`'s details.
void report_rounds(const std::vector<double>& steal, Report& report);

/// Runs `round(i)` for i = 0, 1, ... until kRounds rounds stayed within
/// kMaxSteal or kRounds + kMaxExtraRounds rounds ran; returns kept_rounds.
template <typename Round>
std::vector<std::size_t> run_rounds(Round&& round, Report& report) {
  std::vector<double> steal;
  std::size_t within = 0;
  while (within < kRounds && steal.size() < kRounds + kMaxExtraRounds) {
    const CpuTimes before = read_cpu_times();
    round(steal.size());
    steal.push_back(steal_fraction(before, read_cpu_times()));
    if (steal.back() <= kMaxSteal) ++within;
  }
  report_rounds(steal, report);
  return kept_rounds(steal, kRounds);
}

}  // namespace perfbench

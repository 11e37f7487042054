// Entry points of the timed workloads and the traced ladder.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for the Unix socket and
  /// the span dump of the traced run.
  std::string out_dir = ".";
};

/// Timed runs (tracing off): each fills every end-to-end metric.
void run_bulk_roundtrip(const RunArgs& args, Report& report);
void run_remote_reads(const RunArgs& args, Report& report);

/// Traced run: replays the workload's seeded inputs down the layer ladder
/// with obs enabled and fills every per-layer metric.
void run_ladder(const RunArgs& args, Report& report);

}  // namespace perfbench

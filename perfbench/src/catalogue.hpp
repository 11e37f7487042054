// The metric catalogue: every metric the benchmark prints, with its unit.
// BENCHMARK.json at the repository root declares the same names and units,
// with each metric's direction and bound (test_perfbench.py checks that the
// two lists agree), and report.cpp refuses to print a result that misses or
// adds a name.
//
// Units: `model-s` and `model-GB/s` are outputs of the simulated-V100 cost
// model, never host wall-clock; every other time is measured on the host.
#pragma once

#include <span>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed by every timed run (--trace 0), on every workload.
std::span<const MetricSpec> end_to_end_metrics();

/// Printed by every traced run (--trace 1), on every workload.
std::span<const MetricSpec> per_layer_metrics();

/// The workloads, in BENCHMARK.json order.
std::span<const std::string_view> workload_names();

}  // namespace perfbench

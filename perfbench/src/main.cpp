// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --catalogue
//
// A timed run (--trace 0) prints every end-to-end metric; a traced run
// (--trace 1) replays the same seeded inputs down the layer ladder and
// prints every per-layer metric. The last stdout line is the result object;
// the exit code is 1 when any output was wrong, 2 on a usage or set-up error.
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "catalogue.hpp"
#include "machine.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string catalogue_json() {
  auto list = [](std::span<const MetricSpec> specs) {
    std::string out = "[";
    for (const MetricSpec& m : specs) {
      if (out.size() > 1) out += ", ";
      out += "{\"name\": " + json_string(m.name) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "]";
  };
  std::string workloads = "[";
  for (const std::string_view w : workload_names()) {
    if (workloads.size() > 1) workloads += ", ";
    workloads += json_string(w);
  }
  return "{\"workloads\": " + workloads + "], \"end_to_end\": " +
         list(end_to_end_metrics()) + ", \"per_layer\": " +
         list(per_layer_metrics()) + "}";
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  bool known = false;
  for (const std::string_view w : workload_names()) known |= w == a.workload;
  if (!known) throw std::invalid_argument("unknown workload " + a.workload);
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return a;
}

void report_machine(Report& report, const char* when) {
  const MachineSpeed m = measure_machine();
  report.detail(std::string("machine.") + when + ".compute_ns_per_iter",
                m.compute_ns_per_iter);
  report.detail(std::string("machine.") + when + ".memcpy_gbps", m.memcpy_gbps);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--catalogue") == 0) {
    std::cout << catalogue_json() << "\n";
    return 0;
  }
  RunArgs args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << std::endl;

  Report report;
  std::string result;
  try {
    // Timed runs measure with telemetry off; only the ladder turns it on.
    ohd::obs::set_enabled(false);
    report_machine(report, "before");
    if (args.trace) {
      run_ladder(args, report);
    } else if (args.workload == "bulk_roundtrip") {
      run_bulk_roundtrip(args, report);
    } else {
      run_remote_reads(args, report);
    }
    // Read before the diagnostic maps its copy buffers.
    const double rss_mib = peak_rss_mib();
    report_machine(report, "after");
    if (!args.trace) report.set("peak_rss_mb", rss_mib);
    report.detail("peak_rss_mb", rss_mib);
    result = report.result_line(args.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 2;
  }
  std::cout << report.detail_line() << "\n" << result << std::endl;
  return report.correct() ? 0 : 1;
}

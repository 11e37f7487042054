// Per-run machine-speed diagnostic and process memory. The diagnostic is
// printed before and after every run so a slow run can be told apart from a
// slow machine; it never rescales a metric.
#pragma once

namespace perfbench {

struct MachineSpeed {
  double compute_ns_per_iter = 0.0;  // fixed integer mixing loop
  double memcpy_gbps = 0.0;          // 16 MiB buffer copies
};

MachineSpeed measure_machine();

/// Process high-water resident set size, MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// System-wide CPU time from the kernel's /proc/stat, in clock ticks: all
/// of it, and the part the hypervisor ran other guests while this VM's CPUs
/// had work ("steal").
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

/// Zeros when /proc/stat cannot be read.
CpuTimes read_cpu_times();

/// Share of the CPU time between two readings that was stolen; 0 when no
/// time elapsed.
double steal_fraction(const CpuTimes& from, const CpuTimes& to);

}  // namespace perfbench

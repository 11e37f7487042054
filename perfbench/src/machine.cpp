#include "machine.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kComputeIters = 20'000'000;
constexpr std::size_t kCopyBytes = std::size_t{16} << 20;
constexpr int kCopies = 8;

/// Copy buffer mapped straight from the kernel rather than from malloc: a
/// freed 16 MiB malloc block would raise glibc's dynamic mmap threshold
/// (and leave arena memory behind), changing how every later allocation of
/// the measured code is served and what peak_rss_mb reads.
struct MappedBuffer {
  explicit MappedBuffer(std::size_t bytes)
      : size(bytes),
        data(static_cast<char*>(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))) {
    if (data == MAP_FAILED) throw std::runtime_error("mmap failed");
  }
  ~MappedBuffer() { munmap(data, size); }
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;

  std::size_t size;
  char* data;
};

}  // namespace

MachineSpeed measure_machine() {
  MachineSpeed m;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  const std::uint64_t t0 = ohd::obs::now_ns();
  for (std::uint64_t i = 0; i < kComputeIters; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x += i;
  }
  const std::uint64_t t1 = ohd::obs::now_ns();
  // Keep the loop's result observable so it cannot be folded away.
  volatile std::uint64_t sink = x;
  (void)sink;
  m.compute_ns_per_iter =
      static_cast<double>(t1 - t0) / static_cast<double>(kComputeIters);

  const MappedBuffer src(kCopyBytes);
  const MappedBuffer dst(kCopyBytes);
  std::memset(src.data, 1, kCopyBytes);
  std::memcpy(dst.data, src.data, kCopyBytes);  // fault the pages in
  const std::uint64_t c0 = ohd::obs::now_ns();
  for (int i = 0; i < kCopies; ++i) {
    src.data[i] = static_cast<char>(i);
    std::memcpy(dst.data, src.data, kCopyBytes);
  }
  const std::uint64_t c1 = ohd::obs::now_ns();
  volatile char keep = dst.data[kCopyBytes / 2];
  (void)keep;
  m.memcpy_gbps = static_cast<double>(kCopyBytes) * kCopies /
                  static_cast<double>(std::max<std::uint64_t>(c1 - c0, 1));
  return m;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes read_cpu_times() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...";
  // guest time is already counted in user and nice.
  std::ifstream stat("/proc/stat");
  std::string label;
  unsigned long long v[8] = {};
  stat >> label;
  for (unsigned long long& x : v) stat >> x;
  if (!stat || label != "cpu") return {};
  CpuTimes t;
  for (const unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_fraction(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

}  // namespace perfbench

// Peak live heap of a call, for the allocation-budget tests. The budgets
// binary replaces the global operator new/delete (heap_meter.cpp) so that
// every C++ allocation in the process is counted, on every thread, with its
// usable size; a test asserts "peak live heap of this call <= k x input
// bytes + c" through a HeapMeter.
#pragma once

#include <cstddef>

namespace ohd::budgets {

/// Bytes allocated through operator new and not yet freed.
std::size_t live_heap_bytes();

/// Measures the peak of live heap bytes from its construction on, net of
/// what was live then. Meters do not nest: constructing one restarts the
/// process-wide peak.
class HeapMeter {
 public:
  HeapMeter();
  /// Highest live heap seen since construction, minus the live bytes at
  /// construction.
  std::size_t peak_bytes() const;

 private:
  std::size_t start_;
};

}  // namespace ohd::budgets

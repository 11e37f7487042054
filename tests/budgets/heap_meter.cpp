// Replaces every form of the global operator new/delete for this binary.
// Each allocation goes to malloc and is counted by its usable size, so the
// counts need no header and stay exact across threads; a freed block is
// subtracted by the same measure.
#include "heap_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ohd::budgets {
namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (::posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) return nullptr;
  const std::size_t bytes = ::malloc_usable_size(p);
  const std::size_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(::malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::size_t live_heap_bytes() {
  return g_live.load(std::memory_order_relaxed);
}

HeapMeter::HeapMeter() : start_(live_heap_bytes()) {
  g_peak.store(start_, std::memory_order_relaxed);
}

std::size_t HeapMeter::peak_bytes() const {
  const std::size_t peak = g_peak.load(std::memory_order_relaxed);
  return peak > start_ ? peak - start_ : 0;
}

}  // namespace ohd::budgets

using ohd::budgets::counted_alloc;
using ohd::budgets::counted_alloc_or_throw;
using ohd::budgets::counted_free;

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, kDefaultAlign);
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kDefaultAlign);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

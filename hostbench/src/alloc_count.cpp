// Global operator new/delete replacements that count heap allocations
// made on server threads only (the load generator shares the process).
// Aligned new keeps the library's operators; the server does not use it
// on its hot path.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "metered.hpp"

namespace {

std::atomic<uint64_t> g_server_allocs{0};
thread_local bool t_count = false;

inline void* counted_malloc(std::size_t n) {
  if (t_count) g_server_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}

}  // namespace

namespace hostbench {

uint64_t server_allocs() {
  return g_server_allocs.load(std::memory_order_relaxed);
}

void count_allocs_on_this_thread() { t_count = true; }

}  // namespace hostbench

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

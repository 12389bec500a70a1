// Counting replacement for the global operator new/delete, linked into
// the benches that gate allocation counts (M3, M4, M5, M6, M9). Every
// operator-new bumps one process-wide counter; bench::Allocs() (declared
// in bench_common.h) reads it, so a bench can assert exact allocation
// behaviour over a region. The benches are single-threaded, so the
// counter is a plain integer. The nothrow form is replaced too, so
// that every scalar operator new is malloc-based and pairs with the
// free() below even where a sanitizer intercepts the forms left alone.

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

uint64_t g_allocs = 0;

}  // namespace

namespace rainbow::bench {

uint64_t Allocs() { return g_allocs; }

}  // namespace rainbow::bench

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}

// The replacement operator new above is malloc-based, so free() is the
// matching deallocator; GCC cannot see the pairing and misfires
// -Wmismatched-new-delete at call sites inlined into these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

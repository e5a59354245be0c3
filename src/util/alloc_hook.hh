/**
 * @file
 * Global allocation-counting hook shared by the zero-allocation
 * verification harnesses (tests/test_perf_alloc.cc and
 * bench/perf_throughput.cpp): replaces global operator new/delete
 * with malloc/free wrappers that count every allocation and the
 * bytes it requested.
 *
 * Include this from exactly ONE translation unit of a binary — it
 * defines the (deliberately non-inline) replacement operators, so a
 * second inclusion in the same binary is an ODR violation the linker
 * will reject.
 */

#ifndef SFETCH_UTIL_ALLOC_HOOK_HH
#define SFETCH_UTIL_ALLOC_HOOK_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace sfetch
{

/** Allocations observed since process start. */
inline std::atomic<std::uint64_t> g_alloc_count{0};
/** Bytes requested by those allocations. */
inline std::atomic<std::uint64_t> g_alloc_bytes{0};

/** Monotonic allocation counter backing the hook. */
inline std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

/** Monotonic count of bytes requested through the hook. */
inline std::uint64_t
allocBytes()
{
    return g_alloc_bytes.load(std::memory_order_relaxed);
}

} // namespace sfetch

// GCC flags free() inside replacement operator delete as a
// mismatched pair; pairing malloc/free across replacement operators
// is exactly the intent here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    sfetch::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    sfetch::g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    sfetch::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    sfetch::g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // SFETCH_UTIL_ALLOC_HOOK_HH

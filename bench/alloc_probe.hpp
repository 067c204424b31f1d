/// \file alloc_probe.hpp
/// Heap-allocation counter for the micro-benchmarks: replaces the global
/// operator new/delete with counting versions so benchmarks can report
/// allocs/op next to ns/op — the metric the BigInt small-size optimization
/// targets (0 allocs/op for <= 64-bit operands).
///
/// Include this header from exactly ONE translation unit per benchmark
/// binary: replacement operator new definitions have external linkage, so a
/// second including TU in the same binary would be a duplicate definition.
///
/// Behind QADD_OBS like the rest of the telemetry: with QADD_OBS=0 the
/// operators are not replaced and the counter reads 0 (benchmarks then report
/// allocs_per_op = 0, flagged by kProbeActive = false).
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#ifndef QADD_OBS
#define QADD_OBS 1
#endif

namespace qadd::benchprobe {

#if QADD_OBS

inline constexpr bool kProbeActive = true;

/// Number of operator-new calls since process start (relaxed: the benchmarks
/// are single-threaded; the atomic only guards against torn reads if a
/// library thread allocates).
inline std::atomic<std::uint64_t> gAllocations{0};

[[nodiscard]] inline std::uint64_t allocationCount() noexcept {
  return gAllocations.load(std::memory_order_relaxed);
}

#else

inline constexpr bool kProbeActive = false;

[[nodiscard]] inline std::uint64_t allocationCount() noexcept { return 0; }

#endif

/// Attaches allocs/op of a benchmark's timed loop as the `allocs_per_op`
/// counter: construct it right before the loop.
struct AllocScope {
  explicit AllocScope(benchmark::State& state) : state_(state), start_(allocationCount()) {}
  ~AllocScope() {
    const auto total = allocationCount() - start_;
    state_.counters["allocs_per_op"] =
        state_.iterations() == 0
            ? 0.0
            : static_cast<double>(total) / static_cast<double>(state_.iterations());
  }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  benchmark::State& state_;
  std::uint64_t start_;
};

} // namespace qadd::benchprobe

#if QADD_OBS

void* operator new(std::size_t size) {
  qadd::benchprobe::gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  qadd::benchprobe::gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif // QADD_OBS

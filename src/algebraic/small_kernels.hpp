/// \file small_kernels.hpp
/// Shared machinery for the int64/int128 fast-path kernels of the Z[omega] /
/// Q[omega] hot operations (add, sub, mul, norm, Algorithm 1 canonicalization,
/// Euclidean division).
///
/// Each kernel loads the BigInt coefficients into machine words when they are
/// provably small enough that every intermediate fits in a signed 128-bit
/// accumulator, runs the ring formula on hardware integers, and writes the
/// results back through the allocation-free small-value BigInt
/// constructors.  When any coefficient exceeds the per-kernel bit bound the
/// operation falls back to the general BigInt path — results are identical
/// either way, which tests/test_fuzz.cpp checks differentially.
///
/// The kernels can be disabled at runtime via
/// qadd::detail::setSmallFastPaths(false).
#pragma once

#include "bigint/bigint.hpp"

#include <atomic>
#include <cstdint>

namespace qadd::alg::detail {

/// Process-wide tally of fast-path engagements, surfaced through
/// obs::WeightTableStats as `alg.smallPathHit` / `alg.smallPathSpill`.
/// `hits` counts ring operations served entirely by a word kernel; `spills`
/// counts operations that probed the fast path but fell back to BigInt
/// because a coefficient exceeded the kernel's bit bound.  The counters are
/// atomic because the tally is shared by every DD package in the process and
/// the parallel ε-sweep executor (qadd::exec) runs packages on concurrent
/// workers; on x86 the increment is the same `lock xadd` either way, and the
/// algebraic reference of a sweep runs serially, so contention is nil.
struct SmallPathStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> spills{0};
};

[[nodiscard]] inline SmallPathStats& smallPathStats() noexcept {
  static SmallPathStats stats;
  return stats;
}

using I128 = __int128;

/// A Z[omega] value whose four coefficients fit in int64 within a kernel's
/// bit bound.
struct SmallZ {
  std::int64_t a;
  std::int64_t b;
  std::int64_t c;
  std::int64_t d;
};

/// Load `x` into `out` iff |x| < 2^maxBits (maxBits <= 62, so the value also
/// fits int64).  The bound is what makes the caller's int128 accumulation
/// overflow-free; see each kernel for its arithmetic-derived bound.
[[nodiscard]] inline bool load(const BigInt& x, std::int64_t& out,
                               std::size_t maxBits) noexcept {
  if (x.bitLength() > maxBits) {
    return false;
  }
  out = x.toInt64();
  return true;
}

/// Load all four coefficients of a Z[omega] value under a common bound.
template <typename ZOmegaT>
[[nodiscard]] bool load(const ZOmegaT& z, SmallZ& out, std::size_t maxBits) noexcept {
  return load(z.a(), out.a, maxBits) && load(z.b(), out.b, maxBits) &&
         load(z.c(), out.c, maxBits) && load(z.d(), out.d, maxBits);
}

/// Round-to-nearest division with ties away from zero — the int128 mirror of
/// BigInt::divRound.  \pre den != 0 and |num % den| < 2^126 (so doubling the
/// remainder cannot overflow).
[[nodiscard]] inline I128 divRoundI128(I128 num, I128 den) noexcept {
  I128 quotient = num / den;
  const I128 remainder = num % den;
  if (remainder != 0) {
    const I128 absRem = remainder < 0 ? -remainder : remainder;
    const I128 absDen = den < 0 ? -den : den;
    if (absRem * 2 >= absDen) {
      quotient += ((num < 0) == (den < 0)) ? 1 : -1;
    }
  }
  return quotient;
}

} // namespace qadd::alg::detail

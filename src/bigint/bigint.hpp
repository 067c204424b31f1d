/// \file bigint.hpp
/// Arbitrary-precision signed integers.
///
/// This is the repository's replacement for GMP (which the paper uses for the
/// integer coefficients of its algebraic number representation).  The design
/// is a classic sign-magnitude big integer: the magnitude is a little-endian
/// sequence of 64-bit limbs (GMP's limb width on 64-bit hosts), every
/// multi-limb kernel works on 64x64 -> 128-bit products, and multiplication
/// switches to Karatsuba above a threshold.
///
/// Division comes in three forms, each doing no more work than its caller
/// needs, and none of them issues a hardware 128-by-64 divide per limb:
///  - divMod (and /, %, divRound) is Knuth's Algorithm D: normalize so the
///    divisor's top bit is set, estimate each quotient limb from the top two
///    limbs by a 2-by-1 division with a reciprocal of the divisor's top limb
///    computed once per division (Moller-Granlund, "Improved division by
///    invariant integers", IEEE TC 2011), correct it at most twice with the
///    second limb, multiply-and-subtract, add back in the rare overshoot.
///    One-limb divisors, remainders mod a word and the decimal conversion run
///    the same reciprocal step over the limbs.
///  - divExact divides by an odd divisor known to divide the value, right to
///    left (Hensel/Jebelean): each quotient limb is the low limb times the
///    divisor's inverse mod 2^64 (found by Newton's iteration), so there is
///    no normalization shift, no estimate to correct and no remainder.  It
///    works in the value's own limbs.  QOmega's canonicalization uses it to
///    cancel odd content.
///  - gcd reduces with Lehmer's algorithm and, where a window carries no
///    quotient, with remainder-only steps: Algorithm D without the quotient
///    into per-thread scratch, or one reciprocal pass when the smaller
///    operand fits in one limb, after which hardware Euclid finishes.
///
/// Storage is small-size optimized: magnitudes of up to two limbs — i.e.
/// |value| < 2^128, which covers the Q[omega] coefficients of Clifford+T
/// workloads and most intermediate products of wider ones — live inline in
/// the 24-byte object with no heap allocation; larger magnitudes spill to a
/// heap buffer.  The multi-limb algorithms work in place where the result
/// fits (+=, -=, addMul/subMul, divExact) and keep their temporaries
/// (Algorithm D's normalized operands, Lehmer's cofactor outputs, a product)
/// in per-thread scratch buffers that only grow, so a spilled operation
/// allocates at most its result.
///
/// The arithmetic operators take single-word (u64/u128) fast paths for
/// operands below 2^64 and fall back to the general limb-vector algorithms
/// otherwise; that boundary is one of magnitude, not of storage.
/// detail::setSmallFastPaths(false) routes every operand through the general
/// algorithms instead (the differential oracle the fuzzer uses); results are
/// identical either way.
///
/// The class is a regular value type: copyable, movable, totally ordered,
/// hashable, and streamable.  All operations are exact.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qadd {

namespace detail {

/// Differential-testing escape hatch: when false, every small-value fast path
/// (the BigInt word kernels and the Z[omega]/Q[omega] int64 kernels) is
/// skipped and the same operands run through the general limb-vector
/// algorithms.  Storage stays small-size optimized either way.  Not
/// thread-safe; intended for the fuzzer and the allocation benchmarks only.
/// Returns the previous setting.
bool setSmallFastPaths(bool enabled) noexcept;

extern bool gSmallFastPaths; ///< use smallFastPathsEnabled(), not this
[[nodiscard]] inline bool smallFastPathsEnabled() noexcept { return gSmallFastPaths; }

/// Small-size-optimized limb buffer: up to kInlineLimbs 64-bit limbs inline,
/// larger magnitudes in a heap array whose capacity shares the inline bytes.
/// Deliberately minimal — exactly the std::vector surface the BigInt
/// algorithms use.  24 bytes, of which the last three are tail padding that
/// BigInt's sign flag occupies.
class LimbVec {
public:
  using value_type = std::uint64_t;
  static constexpr std::size_t kInlineLimbs = 2;

  LimbVec() noexcept : storage_{} {}
  LimbVec(std::size_t count, value_type value) : storage_{} { assign(count, value); }
  LimbVec(const value_type* first, const value_type* last) : storage_{} { assign(first, last); }
  LimbVec(const LimbVec& other) : storage_{} {
    assign(other.data(), other.data() + other.size_);
  }
  LimbVec(LimbVec&& other) noexcept
      : storage_(other.storage_), size_(other.size_), heap_(other.heap_) {
    other.size_ = 0;
    other.heap_ = false;
  }
  LimbVec& operator=(const LimbVec& other) {
    if (this != &other) {
      assign(other.data(), other.data() + other.size_);
    }
    return *this;
  }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this != &other) {
      release();
      storage_ = other.storage_;
      size_ = other.size_;
      heap_ = other.heap_;
      other.size_ = 0;
      other.heap_ = false;
    }
    return *this;
  }
  ~LimbVec() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_ ? storage_.heap.capacity : kInlineLimbs;
  }
  /// True iff the limbs live inside the object (no heap buffer).
  [[nodiscard]] bool isInline() const noexcept { return !heap_; }

  [[nodiscard]] value_type* data() noexcept {
    return heap_ ? storage_.heap.limbs : storage_.inlineLimbs;
  }
  [[nodiscard]] const value_type* data() const noexcept {
    return heap_ ? storage_.heap.limbs : storage_.inlineLimbs;
  }
  [[nodiscard]] value_type* begin() noexcept { return data(); }
  [[nodiscard]] const value_type* begin() const noexcept { return data(); }
  [[nodiscard]] value_type* end() noexcept { return data() + size_; }
  [[nodiscard]] const value_type* end() const noexcept { return data() + size_; }

  [[nodiscard]] value_type& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] value_type operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] value_type& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] value_type back() const noexcept { return data()[size_ - 1]; }

  void clear() noexcept { size_ = 0; }
  /// Move limbs that fit inline off the heap buffer and free it, so a value
  /// that shrank in place is stored like a freshly built one.
  void inlineIfSmall() noexcept {
    if (heap_ && size_ <= kInlineLimbs) {
      value_type* heap = storage_.heap.limbs;
      std::memcpy(storage_.inlineLimbs, heap, size_ * sizeof(value_type));
      delete[] heap;
      heap_ = false;
    }
  }
  void pop_back() noexcept { --size_; }
  void push_back(value_type value) {
    if (size_ == capacity()) {
      grow(std::size_t{size_} + 1);
    }
    data()[size_++] = value;
  }
  /// Grow capacity to at least `count`, preserving contents.
  void reserve(std::size_t count) {
    if (count > capacity()) {
      grow(count);
    }
  }
  /// Set the size to `count`, preserving the limbs below it; new limbs are 0.
  void resize(std::size_t count) {
    reserve(count);
    value_type* out = data();
    for (std::size_t i = size_; i < count; ++i) {
      out[i] = 0;
    }
    size_ = static_cast<std::uint32_t>(count);
  }
  /// Set the size to `count` with unspecified contents, for an output the
  /// caller overwrites in full.
  void resizeForOverwrite(std::size_t count) {
    if (count > capacity()) {
      replaceBuffer(count);
    }
    size_ = static_cast<std::uint32_t>(count);
  }
  void assign(std::size_t count, value_type value) {
    resizeForOverwrite(count);
    value_type* out = data();
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = value;
    }
  }
  void assign(const value_type* first, const value_type* last) {
    const auto count = static_cast<std::size_t>(last - first);
    if (count <= capacity()) {
      // memmove: the source range may alias this buffer (e.g. self-assign).
      std::memmove(data(), first, count * sizeof(value_type));
      size_ = static_cast<std::uint32_t>(count);
      return;
    }
    auto* fresh = new value_type[count];
    std::memcpy(fresh, first, count * sizeof(value_type));
    adopt(fresh, count);
    size_ = static_cast<std::uint32_t>(count);
  }

  friend bool operator==(const LimbVec& lhs, const LimbVec& rhs) noexcept {
    return lhs.size_ == rhs.size_ &&
           std::memcmp(lhs.data(), rhs.data(), lhs.size_ * sizeof(value_type)) == 0;
  }

private:
  void release() noexcept {
    if (heap_) {
      delete[] storage_.heap.limbs;
    }
  }
  /// Take ownership of `fresh` (capacity `capacity`) in place of the current
  /// buffer; the size is the caller's to set.
  void adopt(value_type* fresh, std::size_t capacity) noexcept {
    release();
    storage_.heap.limbs = fresh;
    storage_.heap.capacity = capacity;
    heap_ = true;
  }
  /// A buffer of `count` limbs without preserving contents.
  void replaceBuffer(std::size_t count) { adopt(new value_type[count], count); }

  void grow(std::size_t minCapacity) {
    std::size_t newCapacity = capacity() * 2;
    if (newCapacity < minCapacity) {
      newCapacity = minCapacity;
    }
    auto* fresh = new value_type[newCapacity];
    std::memcpy(fresh, data(), size_ * sizeof(value_type));
    adopt(fresh, newCapacity);
  }

  union Storage {
    value_type inlineLimbs[kInlineLimbs];
    struct {
      value_type* limbs;
      std::size_t capacity;
    } heap;
  };
  Storage storage_;
  std::uint32_t size_ = 0;
  bool heap_ = false;
};

} // namespace detail

/// Arbitrary-precision signed integer (sign + magnitude, 64-bit limbs).
///
/// Invariants:
///  - `limbs_` has no trailing (most-significant) zero limbs.
///  - zero is represented as an empty limb sequence with `negative_ == false`.
class BigInt {
public:
  /// Zero.
  BigInt() = default;

  /// Construct from a machine integer.
  BigInt(std::int64_t value); // NOLINT(google-explicit-constructor): intended implicit

  /// Construct from a decimal string, optionally signed ("-123", "+7", "0").
  /// \throws std::invalid_argument on malformed input.
  explicit BigInt(std::string_view decimal);

  /// Exact value of a signed 128-bit integer (the widest result the
  /// algebraic small-value kernels produce).
  [[nodiscard]] static BigInt fromInt128(__int128 value);

  // -- observers ------------------------------------------------------------

  [[nodiscard]] bool isZero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool isNegative() const noexcept { return negative_; }
  [[nodiscard]] bool isOne() const noexcept;
  [[nodiscard]] bool isOdd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1U) != 0; }
  [[nodiscard]] bool isEven() const noexcept { return !isOdd(); }

  /// Number of bits in the magnitude (0 for zero).
  [[nodiscard]] std::size_t bitLength() const noexcept;

  /// -1, 0, or +1.
  [[nodiscard]] int sign() const noexcept {
    return isZero() ? 0 : (negative_ ? -1 : 1);
  }

  /// True iff the value fits into int64_t.
  [[nodiscard]] bool fitsInt64() const noexcept;

  /// Value as int64_t. \pre fitsInt64()
  [[nodiscard]] std::int64_t toInt64() const;

  /// True iff the magnitude is stored inline (no heap buffer) — i.e. the
  /// small-size-optimized representation is active for this value.
  /// Exposed for tests and benchmarks.
  [[nodiscard]] bool isInline() const noexcept { return limbs_.isInline(); }

  /// Closest double (may overflow to +-inf for huge magnitudes).
  [[nodiscard]] double toDouble() const noexcept;

  /// Decompose as m * 2^e with m in [0.5, 1) (or m == 0).  Never overflows,
  /// which makes it suitable for forming ratios of huge integers.
  [[nodiscard]] double toDoubleScaled(long& exponent2) const noexcept;

  /// Decimal string ("-123", "0", ...).
  [[nodiscard]] std::string toString() const;

  // -- byte serialization ---------------------------------------------------
  //
  // Self-delimiting binary encoding used by the qadd::io snapshot codecs (and
  // handy for content hashing): one LEB128 varint header
  //   h = (magnitudeByteCount << 1) | (negative ? 1 : 0)
  // followed by the magnitude as `magnitudeByteCount` little-endian bytes with
  // no trailing zero byte.  Zero is the single header byte 0x00.  The encoding
  // depends only on the value, never on the storage representation (inline vs
  // spilled), so QDDS snapshots never depend on where a magnitude lives.

  /// Append the encoding of this value to `out`.
  void toBytes(std::vector<std::uint8_t>& out) const;
  /// The encoding as a fresh buffer.
  [[nodiscard]] std::vector<std::uint8_t> toBytes() const;

  /// Decode one value from `bytes` starting at `offset`; advances `offset`
  /// past the consumed encoding.  \throws std::invalid_argument on truncated
  /// or non-canonical input (trailing zero magnitude byte, negative zero,
  /// runaway varint header).
  [[nodiscard]] static BigInt fromBytes(std::span<const std::uint8_t> bytes, std::size_t& offset);
  /// Decode a value that must occupy the whole buffer.
  [[nodiscard]] static BigInt fromBytes(std::span<const std::uint8_t> bytes);

  // -- arithmetic -----------------------------------------------------------

  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;
  /// Flip the sign in place.
  void negate() noexcept { negative_ = !negative_ && !isZero(); }

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (rounds toward zero, like C++ integer division).
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  BigInt& operator%=(const BigInt& rhs);

  // Returning the by-value parameter moves it; `return lhs op= rhs` would
  // copy-construct from the returned reference.
  friend BigInt operator+(BigInt lhs, const BigInt& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) {
    lhs *= rhs;
    return lhs;
  }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) {
    lhs /= rhs;
    return lhs;
  }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) {
    lhs %= rhs;
    return lhs;
  }

  /// Fused multiply-accumulate: *this += x * y (addMul) or *this -= x * y
  /// (subMul), through one per-thread product buffer; the accumulator grows
  /// only when the sum outgrows it.  x or y may be *this.
  BigInt& addMul(const BigInt& x, const BigInt& y);
  BigInt& subMul(const BigInt& x, const BigInt& y);

  /// Exact division by an odd divisor that divides the value, in place
  /// (right-to-left Hensel division; see the file comment).  Zero stays zero.
  /// Debug builds assert that the division is exact.
  /// \pre divisor is odd and divides *this
  BigInt& divExact(const BigInt& divisor);

  /// Quotient and remainder of truncated division in one pass.
  /// \throws std::domain_error on division by zero.
  static void divMod(const BigInt& numerator, const BigInt& denominator,
                     BigInt& quotient, BigInt& remainder);

  /// Quotient rounded to the *nearest* integer (ties away from zero).
  /// Used by the Euclidean division in Z[omega].
  [[nodiscard]] static BigInt divRound(const BigInt& numerator, const BigInt& denominator);

  /// Left shift by `bits` (multiplication by 2^bits). \pre bits >= 0
  [[nodiscard]] BigInt shiftLeft(std::size_t bits) const;
  /// Arithmetic-magnitude right shift (divides magnitude by 2^bits, keeps sign;
  /// truncates toward zero).
  [[nodiscard]] BigInt shiftRight(std::size_t bits) const {
    BigInt result = *this;
    result >>= bits;
    return result;
  }
  /// shiftRight in place.
  BigInt& operator>>=(std::size_t bits);

  /// Greatest common divisor (always non-negative).  `b` is only read, never
  /// copied: the loop starts from a mod b and b mod (a mod b).
  [[nodiscard]] static BigInt gcd(BigInt a, const BigInt& b);

  /// Largest e such that 2^e divides the value. \pre !isZero()
  [[nodiscard]] std::size_t countTrailingZeroBits() const;

  // -- comparison -----------------------------------------------------------

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) noexcept {
    return lhs.negative_ == rhs.negative_ && lhs.limbs_ == rhs.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept;

  /// FNV-style hash of the canonical representation.  Small values hash
  /// entirely from inline storage — no pointer chase on the unique-table and
  /// computed-table lookups that hash algebraic weights.
  [[nodiscard]] std::size_t hash() const noexcept;

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

private:
  using Limb = std::uint64_t;
  using DoubleLimb = unsigned __int128;
  using LimbVec = detail::LimbVec;

  static constexpr std::size_t kLimbBits = 64;
  static constexpr std::size_t kKaratsubaThreshold = 48; // limbs, measured crossover

  // The sign sits in the limb buffer's tail padding: 24 bytes in all.
  [[no_unique_address]] LimbVec limbs_; // little-endian magnitude
  bool negative_ = false;

  void trim() noexcept;

  // -- word-kernel helpers (fast paths over magnitudes below 2^64) ----------

  /// Magnitude fits in one machine word (|value| < 2^64).
  [[nodiscard]] bool magFitsU64() const noexcept { return limbs_.size() <= 1; }
  /// Magnitude as u64. \pre magFitsU64()
  [[nodiscard]] std::uint64_t magU64() const noexcept;
  /// Overwrite with a one-limb magnitude.
  void setMagU64(std::uint64_t magnitude, bool negative);
  /// Overwrite with a <= 2-limb magnitude; never allocates (inline capacity
  /// is always two limbs).
  void setMagU128(unsigned __int128 magnitude, bool negative);

  /// *this += (negative ? -1 : +1) * |p[0..n)|, in limbs_.  `p` may be
  /// limbs_ itself only as a whole (x += x).
  void addSigned(const Limb* p, std::size_t n, bool negative);
  BigInt& accumulateProduct(const BigInt& x, const BigInt& y, bool subtract);

  // magnitude helpers (ignore signs)
  static int compareMagnitude(const Limb* a, std::size_t an, const Limb* b,
                              std::size_t bn) noexcept;
  static int compareMagnitude(const LimbVec& a, const LimbVec& b) noexcept {
    return compareMagnitude(a.data(), a.size(), b.data(), b.size());
  }
  /// acc += |p|.
  static void addInto(LimbVec& acc, const Limb* p, std::size_t n);
  /// acc -= |p|. \pre |acc| >= |p|
  static void subInto(LimbVec& acc, const Limb* p, std::size_t n);
  /// acc = |p| - acc. \pre |p| >= |acc|
  static void subFrom(LimbVec& acc, const Limb* p, std::size_t n);
  /// out = a * b. \pre out aliases neither operand
  static void mulMagnitude(const LimbVec& a, const LimbVec& b, LimbVec& out);
  static void mulSchoolbook(const LimbVec& a, const LimbVec& b, LimbVec& out);
  static void divModMagnitude(const LimbVec& a, const LimbVec& b,
                              LimbVec& quotient, LimbVec& remainder);
  /// remainder = a mod b with no quotient; `remainder` may be `a`.
  static void remMagnitude(const LimbVec& a, const LimbVec& b, LimbVec& remainder);
};

/// Convenience literal-ish factory: 2^exponent.
[[nodiscard]] BigInt pow2(std::size_t exponent);

static_assert(sizeof(BigInt) == 24, "the sign must share the limb buffer's tail padding");

} // namespace qadd

template <> struct std::hash<qadd::BigInt> {
  std::size_t operator()(const qadd::BigInt& value) const noexcept { return value.hash(); }
};

/// \file bigint.hpp
/// Arbitrary-precision signed integers.
///
/// This is the repository's replacement for GMP (which the paper uses for the
/// integer coefficients of its algebraic number representation).  The design
/// is a classic sign-magnitude big integer: the magnitude is a little-endian
/// sequence of 32-bit limbs, multiplication switches to Karatsuba above a
/// threshold, and division implements Knuth's Algorithm D.
///
/// Storage is small-size optimized: magnitudes of up to two limbs — i.e.
/// |value| < 2^64, the overwhelmingly common case for the Q[omega]
/// coefficients of Clifford+T workloads — live inline in the object with no
/// heap allocation; larger magnitudes spill to a heap buffer.
/// On top of the storage layout, the arithmetic operators take single-word
/// (u64/u128) fast paths for small operands and fall back to the general
/// limb-vector algorithms on overflow.  detail::setSmallFastPaths(false)
/// routes every operand through the general algorithms instead (the
/// differential oracle the fuzzer uses); results are identical either way.
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

/// Small-size-optimized limb buffer: up to kInlineLimbs 32-bit limbs inline,
/// larger magnitudes in a heap array.  Deliberately minimal — exactly the
/// std::vector surface the BigInt algorithms use.
class LimbVec {
public:
  using value_type = std::uint32_t;
  static constexpr std::size_t kInlineLimbs = 2;

  LimbVec() noexcept : storage_{} {}
  LimbVec(std::size_t count, value_type value) : storage_{} { assign(count, value); }
  LimbVec(const value_type* first, const value_type* last) : storage_{} { assign(first, last); }
  LimbVec(const LimbVec& other) : storage_{} {
    assign(other.data(), other.data() + other.size_);
  }
  LimbVec(LimbVec&& other) noexcept
      : storage_(other.storage_), size_(other.size_), capacity_(other.capacity_) {
    other.size_ = 0;
    other.capacity_ = kInlineLimbs;
  }
  LimbVec& operator=(const LimbVec& other) {
    if (this != &other) {
      assign(other.data(), other.data() + other.size_);
    }
    return *this;
  }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this != &other) {
      if (isHeap()) {
        delete[] storage_.heap;
      }
      storage_ = other.storage_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.size_ = 0;
      other.capacity_ = kInlineLimbs;
    }
    return *this;
  }
  ~LimbVec() {
    if (isHeap()) {
      delete[] storage_.heap;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True iff the limbs live inside the object (no heap buffer).
  [[nodiscard]] bool isInline() const noexcept { return !isHeap(); }

  [[nodiscard]] value_type* data() noexcept {
    return isHeap() ? storage_.heap : storage_.inlineLimbs;
  }
  [[nodiscard]] const value_type* data() const noexcept {
    return isHeap() ? storage_.heap : storage_.inlineLimbs;
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
  void pop_back() noexcept { --size_; }
  void push_back(value_type value) {
    if (size_ == capacity_) {
      grow(std::size_t{size_} + 1);
    }
    data()[size_++] = value;
  }
  /// Grow capacity to at least `count`, preserving contents.
  void reserve(std::size_t count) {
    if (count > capacity_) {
      grow(count);
    }
  }
  void assign(std::size_t count, value_type value) {
    discardingReserve(count);
    value_type* out = data();
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = value;
    }
    size_ = static_cast<std::uint32_t>(count);
  }
  void assign(const value_type* first, const value_type* last) {
    const auto count = static_cast<std::size_t>(last - first);
    if (count <= capacity_) {
      // memmove: the source range may alias this buffer (e.g. self-assign).
      std::memmove(data(), first, count * sizeof(value_type));
      size_ = static_cast<std::uint32_t>(count);
      return;
    }
    auto* fresh = new value_type[count];
    std::memcpy(fresh, first, count * sizeof(value_type));
    if (isHeap()) {
      delete[] storage_.heap;
    }
    storage_.heap = fresh;
    capacity_ = static_cast<std::uint32_t>(count);
    size_ = static_cast<std::uint32_t>(count);
  }

  friend bool operator==(const LimbVec& lhs, const LimbVec& rhs) noexcept {
    return lhs.size_ == rhs.size_ &&
           std::memcmp(lhs.data(), rhs.data(), lhs.size_ * sizeof(value_type)) == 0;
  }

private:
  [[nodiscard]] bool isHeap() const noexcept { return capacity_ > kInlineLimbs; }

  /// Ensure capacity >= count without preserving contents (cheaper than
  /// reserve when the caller overwrites everything anyway).
  void discardingReserve(std::size_t count) {
    if (count > capacity_) {
      auto* fresh = new value_type[count];
      if (isHeap()) {
        delete[] storage_.heap;
      }
      storage_.heap = fresh;
      capacity_ = static_cast<std::uint32_t>(count);
    }
  }

  void grow(std::size_t minCapacity) {
    std::size_t newCapacity = std::size_t{capacity_} * 2;
    if (newCapacity < minCapacity) {
      newCapacity = minCapacity;
    }
    auto* fresh = new value_type[newCapacity];
    std::memcpy(fresh, data(), size_ * sizeof(value_type));
    if (isHeap()) {
      delete[] storage_.heap;
    }
    storage_.heap = fresh;
    capacity_ = static_cast<std::uint32_t>(newCapacity);
  }

  union Storage {
    value_type inlineLimbs[kInlineLimbs];
    value_type* heap;
  };
  Storage storage_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineLimbs;
};

} // namespace detail

/// Arbitrary-precision signed integer (sign + magnitude, 32-bit limbs).
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

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (rounds toward zero, like C++ integer division).
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }

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
  [[nodiscard]] BigInt shiftRight(std::size_t bits) const;

  /// Greatest common divisor (always non-negative).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

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
  using Limb = std::uint32_t;
  using DoubleLimb = std::uint64_t;
  using LimbVec = detail::LimbVec;

  static constexpr std::size_t kLimbBits = 32;
  static constexpr std::size_t kKaratsubaThreshold = 32; // limbs

  LimbVec limbs_; // little-endian magnitude
  bool negative_ = false;

  void trim() noexcept;

  // -- word-kernel helpers (fast paths over <= 2-limb magnitudes) -----------

  /// Magnitude fits in one machine word (|value| < 2^64).
  [[nodiscard]] bool magFitsU64() const noexcept { return limbs_.size() <= 2; }
  /// Magnitude as u64. \pre magFitsU64()
  [[nodiscard]] std::uint64_t magU64() const noexcept;
  /// Overwrite with a <= 2-limb magnitude; never allocates (inline capacity
  /// is always two limbs).
  void setMagU64(std::uint64_t magnitude, bool negative);
  /// Overwrite with a <= 4-limb magnitude (allocates only when spilling
  /// past two limbs).
  void setMagU128(unsigned __int128 magnitude, bool negative);

  // magnitude helpers (ignore signs)
  static int compareMagnitude(const LimbVec& a, const LimbVec& b) noexcept;
  static LimbVec addMagnitude(const LimbVec& a, const LimbVec& b);
  /// \pre |a| >= |b|
  static LimbVec subMagnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec mulMagnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec mulSchoolbook(const LimbVec& a, const LimbVec& b);
  static void divModMagnitude(const LimbVec& a, const LimbVec& b,
                              LimbVec& quotient, LimbVec& remainder);
};

/// Convenience literal-ish factory: 2^exponent.
[[nodiscard]] BigInt pow2(std::size_t exponent);

} // namespace qadd

template <> struct std::hash<qadd::BigInt> {
  std::size_t operator()(const qadd::BigInt& value) const noexcept { return value.hash(); }
};

#include "bigint/bigint.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace qadd {

namespace detail {

bool gSmallFastPaths = true;

bool setSmallFastPaths(bool enabled) noexcept {
  return std::exchange(gSmallFastPaths, enabled);
}

} // namespace detail

namespace {

using Limb = std::uint64_t;
using DoubleLimb = unsigned __int128;
using Limbs = detail::LimbVec;

// Number of leading zero bits of a non-zero limb.
int leadingZeros(Limb x) noexcept {
  assert(x != 0);
  return __builtin_clzll(x);
}

int trailingZeros(Limb x) noexcept {
  assert(x != 0);
  return __builtin_ctzll(x);
}

/// Shorthand for "the word kernels may run": not disabled by the
/// differential-testing toggle.
bool fastPath() noexcept { return detail::smallFastPathsEnabled(); }

/// Per-thread working buffers of the multi-limb algorithms: Algorithm D's
/// normalized operands (u, v), Lehmer's cofactor outputs (x, y) and the
/// product of a multiply.  They only grow, so in steady state these
/// temporaries allocate nothing.
struct Scratch {
  Limbs u;
  Limbs v;
  Limbs x;
  Limbs y;
  Limbs product;
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

void trimLimbs(Limbs& limbs) noexcept {
  while (!limbs.empty() && limbs.back() == 0) {
    limbs.pop_back();
  }
}

void assignU64(Limbs& out, Limb value) {
  out.clear();
  if (value != 0) {
    out.push_back(value);
  }
}

/// (|value| >> shift) truncated to 64 bits, read straight from the limbs.
Limb bitsAt(const Limbs& limbs, std::size_t shift) noexcept {
  const std::size_t index = shift / 64;
  const unsigned bit = shift % 64;
  if (index >= limbs.size()) {
    return 0;
  }
  Limb window = limbs[index] >> bit;
  if (bit != 0 && index + 1 < limbs.size()) {
    window |= limbs[index + 1] << (64 - bit);
  }
  return window;
}

/// Reciprocal of a normalized divisor (top bit set) for divide2by1:
/// floor((2^128 - 1) / d) - 2^64.  One wide division per divisor; the
/// per-limb steps then multiply only.
Limb reciprocal(Limb d) noexcept {
  assert((d >> 63) != 0);
  return static_cast<Limb>(((static_cast<DoubleLimb>(~d) << 64) | ~Limb{0}) / d);
}

/// floor((u1 * 2^64 + u0) / d) by the precomputed reciprocal v of d, with
/// the remainder in `remainder` (Moller-Granlund, Algorithm 4).
/// \pre d normalized, u1 < d
Limb divide2by1(Limb u1, Limb u0, Limb d, Limb v, Limb& remainder) noexcept {
  assert(u1 < d);
  const DoubleLimb estimate =
      static_cast<DoubleLimb>(v) * u1 + ((static_cast<DoubleLimb>(u1) << 64) | u0);
  Limb q = static_cast<Limb>(estimate >> 64) + 1;
  Limb r = u0 - q * d;
  if (r > static_cast<Limb>(estimate)) {
    --q;
    r += d;
  }
  if (r >= d) [[unlikely]] {
    ++q;
    r -= d;
  }
  remainder = r;
  return q;
}

/// Divide |a| by the one-limb divisor m: the a.size() quotient limbs go to
/// `quotient` unless it is null (it may be a.data()), the remainder is
/// returned.  \pre m != 0
Limb divModLimb(const Limbs& a, Limb m, Limb* quotient) noexcept {
  const std::size_t n = a.size();
  if (n == 0) {
    return 0;
  }
  // Divide a * 2^shift by m * 2^shift: the same quotient, the remainder
  // scaled by 2^shift.  The shifted limbs are formed on the fly.
  const unsigned shift = static_cast<unsigned>(leadingZeros(m));
  const Limb d = m << shift;
  const Limb v = reciprocal(d);
  Limb r = shift == 0 ? 0 : a[n - 1] >> (64 - shift);
  for (std::size_t i = n; i-- > 0;) {
    const Limb low = shift == 0 || i == 0 ? a[i] << shift
                                          : (a[i] << shift) | (a[i - 1] >> (64 - shift));
    const Limb q = divide2by1(r, low, d, v, r);
    if (quotient != nullptr) {
      quotient[i] = q;
    }
  }
  return r >> shift;
}

/// out = src << shift (shift < 64), with `extra` more zero limbs on top.
void shiftedCopy(const Limbs& src, unsigned shift, std::size_t extra, Limbs& out) {
  out.assign(src.size() + extra, 0);
  if (shift == 0) {
    std::copy(src.begin(), src.end(), out.begin());
    return;
  }
  Limb below = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = (src[i] << shift) | below;
    below = src[i] >> (64 - shift);
  }
  if (extra != 0) {
    out[src.size()] = below;
  }
}

/// out = src[0..n) >> shift (shift < 64), trimmed.
void shiftedDownCopy(const Limb* src, std::size_t n, unsigned shift, Limbs& out) {
  out.assign(src, src + n);
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = (out[i] >> shift) | (i + 1 < n ? out[i + 1] << (64 - shift) : 0);
    }
  }
  trimLimbs(out);
}

/// Knuth's Algorithm D on normalized operands: u has m+n+1 limbs and v has
/// n >= 2 limbs with the top bit set.  Leaves the normalized remainder in
/// u[0..n) and writes the m+1 quotient limbs to `quotient` unless it is null.
void knuthDivide(Limb* u, std::size_t m, const Limb* v, std::size_t n, Limb* quotient) {
  const Limb top = v[n - 1];
  const Limb second = v[n - 2];
  const Limb inverse = reciprocal(top);
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1], then refine it with
    // the second divisor limb so it is at most one too large.  The window
    // u[j..j+n] is below B*v, so u[j+n] <= v[n-1].
    Limb qHat;
    Limb rHat;
    bool rHatOverflow = false; // r_hat >= B: the refinement test cannot hold
    if (u[j + n] == top) {
      qHat = ~Limb{0};
      rHat = u[j + n - 1] + top;
      rHatOverflow = rHat < top;
    } else {
      qHat = divide2by1(u[j + n], u[j + n - 1], top, inverse, rHat);
    }
    while (!rHatOverflow && static_cast<DoubleLimb>(qHat) * second >
                                ((static_cast<DoubleLimb>(rHat) << 64) | u[j + n - 2])) {
      --qHat;
      rHat += top;
      rHatOverflow = rHat < top;
    }
    // Multiply-and-subtract: u[j..j+n] -= qHat * v.  The high half of a
    // product plus the subtraction's borrow never exceeds B - 1.
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const DoubleLimb product = static_cast<DoubleLimb>(qHat) * v[i] + carry;
      const auto low = static_cast<Limb>(product);
      const Limb current = u[j + i];
      u[j + i] = current - low;
      carry = static_cast<Limb>(product >> 64) + (current < low ? 1U : 0U);
    }
    const Limb head = u[j + n];
    u[j + n] = head - carry;
    if (head < carry) [[unlikely]] {
      // q_hat was one too large: add back.
      --qHat;
      Limb addCarry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const DoubleLimb sum = static_cast<DoubleLimb>(u[j + i]) + v[i] + addCarry;
        u[j + i] = static_cast<Limb>(sum);
        addCarry = static_cast<Limb>(sum >> 64);
      }
      u[j + n] += addCarry;
    }
    if (quotient != nullptr) {
      quotient[j] = qHat;
    }
  }
}

/// acc = acc * m + add, in place.
void mulAddLimb(Limbs& acc, Limb m, Limb add) {
  Limb carry = add;
  for (Limb& limb : acc) {
    const DoubleLimb current = static_cast<DoubleLimb>(limb) * m + carry;
    limb = static_cast<Limb>(current);
    carry = static_cast<Limb>(current >> 64);
  }
  if (carry != 0) {
    acc.push_back(carry);
  }
}

std::uint64_t euclidU64(std::uint64_t x, std::uint64_t y) noexcept {
  while (y != 0) {
    x %= y;
    std::swap(x, y);
  }
  return x;
}

/// 10^19, the largest power of ten below 2^64: decimal conversion works in
/// chunks of 19 digits.
constexpr Limb kDecimalChunk = 10000000000000000000ULL;
constexpr int kDecimalChunkDigits = 19;

} // namespace

std::uint64_t BigInt::magU64() const noexcept {
  assert(magFitsU64());
  return limbs_.empty() ? 0 : limbs_[0];
}

void BigInt::setMagU64(std::uint64_t magnitude, bool negative) {
  limbs_.clear();
  limbs_.inlineIfSmall();
  if (magnitude != 0) {
    limbs_.push_back(magnitude);
  }
  negative_ = negative && magnitude != 0;
}

void BigInt::setMagU128(unsigned __int128 magnitude, bool negative) {
  const auto high = static_cast<std::uint64_t>(magnitude >> 64);
  if (high == 0) {
    setMagU64(static_cast<std::uint64_t>(magnitude), negative);
    return;
  }
  limbs_.clear();
  limbs_.inlineIfSmall();
  limbs_.push_back(static_cast<std::uint64_t>(magnitude));
  limbs_.push_back(high);
  negative_ = negative;
}

BigInt::BigInt(std::int64_t value) {
  // Avoid UB on INT64_MIN: negate in unsigned space.
  const auto magnitude = value < 0 ? ~static_cast<std::uint64_t>(value) + 1U
                                   : static_cast<std::uint64_t>(value);
  setMagU64(magnitude, value < 0);
}

BigInt BigInt::fromInt128(__int128 value) {
  const auto magnitude = value < 0 ? ~static_cast<unsigned __int128>(value) + 1U
                                   : static_cast<unsigned __int128>(value);
  BigInt result;
  result.setMagU128(magnitude, value < 0);
  return result;
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t pos = 0;
  bool negative = false;
  if (pos < decimal.size() && (decimal[pos] == '+' || decimal[pos] == '-')) {
    negative = decimal[pos] == '-';
    ++pos;
  }
  if (pos == decimal.size()) {
    throw std::invalid_argument("BigInt: empty decimal string");
  }
  // Chunks of up to 19 digits, the first one short so the rest are full:
  // value = value * 10^digits + chunk.
  std::size_t chunkDigits = (decimal.size() - pos) % kDecimalChunkDigits;
  if (chunkDigits == 0) {
    chunkDigits = kDecimalChunkDigits;
  }
  for (; pos < decimal.size(); pos += chunkDigits, chunkDigits = kDecimalChunkDigits) {
    Limb chunk = 0;
    Limb scale = 1;
    for (std::size_t i = pos; i < pos + chunkDigits; ++i) {
      const char c = decimal[i];
      if (c < '0' || c > '9') {
        throw std::invalid_argument("BigInt: invalid decimal digit");
      }
      chunk = chunk * 10 + static_cast<Limb>(c - '0');
      scale *= 10;
    }
    mulAddLimb(limbs_, scale, chunk);
  }
  limbs_.inlineIfSmall();
  negative_ = negative && !limbs_.empty();
}

bool BigInt::isOne() const noexcept {
  return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
}

std::size_t BigInt::bitLength() const noexcept {
  if (limbs_.empty()) {
    return 0;
  }
  return limbs_.size() * kLimbBits - static_cast<std::size_t>(leadingZeros(limbs_.back()));
}

bool BigInt::fitsInt64() const noexcept {
  const std::size_t bits = bitLength();
  if (bits < 64) {
    return true;
  }
  if (bits > 64) {
    return false;
  }
  // Exactly 64 bits of magnitude: only INT64_MIN fits.
  return negative_ && limbs_[0] == (std::uint64_t{1} << 63);
}

std::int64_t BigInt::toInt64() const {
  assert(fitsInt64());
  const std::uint64_t magnitude = magU64();
  return negative_ ? static_cast<std::int64_t>(~magnitude + 1U)
                   : static_cast<std::int64_t>(magnitude);
}

double BigInt::toDouble() const noexcept {
  long exponent = 0;
  const double mantissa = toDoubleScaled(exponent);
  return std::ldexp(mantissa, static_cast<int>(std::min<long>(exponent, 1 << 24)));
}

double BigInt::toDoubleScaled(long& exponent2) const noexcept {
  exponent2 = 0;
  if (limbs_.empty()) {
    return 0.0;
  }
  const std::size_t bits = bitLength();
  // Keep only the top (up to) 64 bits, truncated: value ~= top * 2^(bits - taken).
  const std::size_t taken = std::min<std::size_t>(bits, 64);
  const std::uint64_t top = bitsAt(limbs_, bits - taken);
  // top < 2^taken, top >= 2^(taken-1)  ->  mantissa in [0.5, 1).  (Rounding of
  // a 64-bit `top` to double can land exactly on 1.0; renormalize then.)
  double mantissa = std::ldexp(static_cast<double>(top), -static_cast<int>(taken));
  exponent2 = static_cast<long>(bits);
  if (mantissa >= 1.0) {
    mantissa *= 0.5;
    ++exponent2;
  }
  return negative_ ? -mantissa : mantissa;
}

std::string BigInt::toString() const {
  if (isZero()) {
    return "0";
  }
  // Repeated division by 10^19 peels off 19 decimal digits at a time.
  LimbVec work = limbs_;
  std::string digits;
  while (!work.empty()) {
    Limb remainder = divModLimb(work, kDecimalChunk, work.data());
    trimLimbs(work);
    for (int d = 0; d < kDecimalChunkDigits; ++d) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') {
    digits.pop_back();
  }
  if (negative_) {
    digits.push_back('-');
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

void BigInt::toBytes(std::vector<std::uint8_t>& out) const {
  constexpr std::size_t kLimbBytes = sizeof(Limb);
  // Magnitude byte count without the trailing zero bytes of the top limb.
  std::size_t byteCount = 0;
  if (!limbs_.empty()) {
    byteCount = (limbs_.size() - 1) * kLimbBytes;
    for (Limb top = limbs_.back(); top != 0; top >>= 8U) {
      ++byteCount;
    }
  }
  // Header varint: (byteCount << 1) | sign.
  std::uint64_t header = (static_cast<std::uint64_t>(byteCount) << 1U) |
                         (negative_ ? 1U : 0U);
  while (header >= 0x80U) {
    out.push_back(static_cast<std::uint8_t>(header) | 0x80U);
    header >>= 7U;
  }
  out.push_back(static_cast<std::uint8_t>(header));
  // Little-endian magnitude bytes straight from the little-endian limbs.
  for (std::size_t i = 0; i < byteCount; ++i) {
    out.push_back(static_cast<std::uint8_t>(limbs_[i / kLimbBytes] >> (8U * (i % kLimbBytes))));
  }
}

std::vector<std::uint8_t> BigInt::toBytes() const {
  std::vector<std::uint8_t> out;
  toBytes(out);
  return out;
}

BigInt BigInt::fromBytes(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  std::uint64_t header = 0;
  unsigned shift = 0;
  for (;; shift += 7) {
    if (shift >= 64 || offset >= bytes.size()) {
      throw std::invalid_argument("BigInt::fromBytes: truncated or runaway header varint");
    }
    const std::uint8_t byte = bytes[offset++];
    header |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
    if ((byte & 0x80U) == 0) {
      break;
    }
  }
  const bool negative = (header & 1U) != 0;
  const auto byteCount = static_cast<std::size_t>(header >> 1U);
  if (byteCount > bytes.size() - offset) {
    throw std::invalid_argument("BigInt::fromBytes: magnitude exceeds buffer");
  }
  if (byteCount == 0 && negative) {
    throw std::invalid_argument("BigInt::fromBytes: negative zero is not canonical");
  }
  if (byteCount != 0 && bytes[offset + byteCount - 1] == 0) {
    throw std::invalid_argument("BigInt::fromBytes: non-minimal magnitude encoding");
  }
  constexpr std::size_t kLimbBytes = sizeof(Limb);
  BigInt result;
  result.limbs_.assign((byteCount + kLimbBytes - 1) / kLimbBytes, 0);
  for (std::size_t i = 0; i < byteCount; ++i) {
    result.limbs_[i / kLimbBytes] |= static_cast<Limb>(bytes[offset + i])
                                     << (8U * (i % kLimbBytes));
  }
  offset += byteCount;
  result.negative_ = negative;
  return result;
}

BigInt BigInt::fromBytes(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  BigInt result = fromBytes(bytes, offset);
  if (offset != bytes.size()) {
    throw std::invalid_argument("BigInt::fromBytes: trailing bytes after value");
  }
  return result;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.isZero()) {
    result.negative_ = !result.negative_;
  }
  return result;
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
  limbs_.inlineIfSmall();
  if (limbs_.empty()) {
    negative_ = false;
  }
}

int BigInt::compareMagnitude(const Limb* a, std::size_t an, const Limb* b,
                             std::size_t bn) noexcept {
  if (an != bn) {
    return an < bn ? -1 : 1;
  }
  for (std::size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? -1 : 1;
    }
  }
  return 0;
}

void BigInt::addInto(LimbVec& acc, const Limb* p, std::size_t n) {
  if (acc.size() < n) {
    if (n > LimbVec::kInlineLimbs) {
      acc.reserve(n + 1); // room for the carry-out
    }
    acc.resize(n);
  }
  Limb* out = acc.data();
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < n; ++i) {
    const DoubleLimb sum = static_cast<DoubleLimb>(out[i]) + p[i] + carry;
    out[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  for (; carry != 0 && i < acc.size(); ++i) {
    out[i] += carry;
    carry = out[i] == 0 ? 1U : 0U;
  }
  if (carry != 0) {
    acc.push_back(carry);
  }
}

void BigInt::subInto(LimbVec& acc, const Limb* p, std::size_t n) {
  assert(compareMagnitude(acc.data(), acc.size(), p, n) >= 0);
  Limb* out = acc.data();
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < n; ++i) {
    const Limb current = out[i];
    const Limb diff = current - p[i];
    out[i] = diff - borrow;
    borrow = (current < p[i] || diff < borrow) ? 1U : 0U;
  }
  for (; borrow != 0; ++i) { // |acc| >= |p| stops the ripple inside acc
    borrow = out[i] == 0 ? 1U : 0U;
    --out[i];
  }
  trimLimbs(acc);
}

void BigInt::subFrom(LimbVec& acc, const Limb* p, std::size_t n) {
  assert(compareMagnitude(p, n, acc.data(), acc.size()) >= 0);
  acc.resize(n);
  Limb* out = acc.data();
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb subtrahend = out[i];
    const Limb diff = p[i] - subtrahend;
    out[i] = diff - borrow;
    borrow = (p[i] < subtrahend || diff < borrow) ? 1U : 0U;
  }
  assert(borrow == 0);
  trimLimbs(acc);
}

void BigInt::mulSchoolbook(const LimbVec& a, const LimbVec& b, LimbVec& out) {
  assert(&out != &a && &out != &b);
  if (a.empty() || b.empty()) {
    out.clear();
    return;
  }
  // Rows over the shorter operand, each a pass over the longer one.
  const LimbVec& rows = a.size() <= b.size() ? a : b;
  const LimbVec& cols = a.size() <= b.size() ? b : a;
  const std::size_t n = cols.size();
  out.resizeForOverwrite(rows.size() + n);
  Limb* result = out.data();
  const Limb* col = cols.data();
  // The first row writes, the others accumulate: a * b + r + carry stays
  // below 2^128.
  Limb carry = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const DoubleLimb current = static_cast<DoubleLimb>(rows[0]) * col[j] + carry;
    result[j] = static_cast<Limb>(current);
    carry = static_cast<Limb>(current >> 64);
  }
  result[n] = carry;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const Limb row = rows[i];
    Limb* acc = result + i;
    carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const DoubleLimb current = static_cast<DoubleLimb>(row) * col[j] + acc[j] + carry;
      acc[j] = static_cast<Limb>(current);
      carry = static_cast<Limb>(current >> 64);
    }
    acc[n] = carry;
  }
  trimLimbs(out);
}

void BigInt::mulMagnitude(const LimbVec& a, const LimbVec& b, LimbVec& out) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    mulSchoolbook(a, b, out);
    return;
  }
  // Karatsuba: split at half of the longer operand.
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto split = [half](const LimbVec& v) {
    const std::size_t cut = std::min(half, v.size());
    LimbVec low(v.data(), v.data() + cut);
    LimbVec high(v.data() + cut, v.data() + v.size());
    trimLimbs(low);
    return std::pair{std::move(low), std::move(high)};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);
  LimbVec z0;
  mulMagnitude(a0, b0, z0);
  LimbVec z2;
  mulMagnitude(a1, b1, z2);
  addInto(a0, a1.data(), a1.size()); // a0 + a1
  addInto(b0, b1.data(), b1.size()); // b0 + b1
  LimbVec z1;
  mulMagnitude(a0, b0, z1);
  subInto(z1, z0.data(), z0.size());
  subInto(z1, z2.data(), z2.size());

  // out = z0 + z1 << (64*half) + z2 << (128*half)
  out.assign(std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1, 0);
  const auto accumulate = [&out](const LimbVec& part, std::size_t offset) {
    Limb* target = out.data() + offset;
    Limb carry = 0;
    std::size_t i = 0;
    for (; i < part.size(); ++i) {
      const DoubleLimb current = static_cast<DoubleLimb>(target[i]) + part[i] + carry;
      target[i] = static_cast<Limb>(current);
      carry = static_cast<Limb>(current >> 64);
    }
    for (; carry != 0; ++i) {
      target[i] += carry;
      carry = target[i] == 0 ? 1U : 0U;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  trimLimbs(out);
}

void BigInt::addSigned(const Limb* p, std::size_t n, bool negative) {
  if (n == 0) {
    return;
  }
  if (limbs_.empty() || negative_ == negative) {
    negative_ = negative; // a zero accumulator takes the addend's sign
    addInto(limbs_, p, n);
    return;
  }
  if (compareMagnitude(limbs_.data(), limbs_.size(), p, n) >= 0) {
    subInto(limbs_, p, n);
  } else {
    subFrom(limbs_, p, n);
    negative_ = negative;
  }
  trim();
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (fastPath() && magFitsU64() && rhs.magFitsU64()) {
    const std::uint64_t x = magU64();
    const std::uint64_t y = rhs.magU64();
    if (negative_ == rhs.negative_) {
      // Same sign: magnitudes add; a 65-bit sum takes the second inline limb.
      setMagU128(static_cast<unsigned __int128>(x) + y, negative_);
    } else if (x >= y) {
      setMagU64(x - y, negative_);
    } else {
      setMagU64(y - x, rhs.negative_);
    }
    return *this;
  }
  addSigned(rhs.limbs_.data(), rhs.limbs_.size(), rhs.negative_);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  if (fastPath() && magFitsU64() && rhs.magFitsU64()) {
    const std::uint64_t x = magU64();
    const std::uint64_t y = rhs.magU64();
    const bool rhsNegated = !rhs.negative_;
    if (negative_ == rhsNegated) {
      setMagU128(static_cast<unsigned __int128>(x) + y, negative_);
    } else if (x >= y) {
      setMagU64(x - y, negative_);
    } else {
      setMagU64(y - x, rhsNegated);
    }
    return *this;
  }
  addSigned(rhs.limbs_.data(), rhs.limbs_.size(), !rhs.negative_);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (fastPath() && magFitsU64() && rhs.magFitsU64()) {
    // One hardware 64x64 -> 128 multiply; a product past 64 bits takes the
    // second inline limb.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(magU64()) * rhs.magU64();
    setMagU128(product, negative_ != rhs.negative_);
    return *this;
  }
  if (isZero() || rhs.isZero()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  LimbVec& product = scratch().product;
  mulMagnitude(limbs_, rhs.limbs_, product);
  limbs_.assign(product.begin(), product.end());
  negative_ = negative_ != rhs.negative_;
  return *this;
}

BigInt& BigInt::addMul(const BigInt& x, const BigInt& y) {
  return accumulateProduct(x, y, false);
}

BigInt& BigInt::subMul(const BigInt& x, const BigInt& y) {
  return accumulateProduct(x, y, true);
}

BigInt& BigInt::accumulateProduct(const BigInt& x, const BigInt& y, bool subtract) {
  if (x.isZero() || y.isZero()) {
    return *this;
  }
  const bool negative = (x.negative_ != y.negative_) != subtract;
  if (fastPath() && x.magFitsU64() && y.magFitsU64()) {
    const DoubleLimb product = static_cast<DoubleLimb>(x.magU64()) * y.magU64();
    const Limb limbs[2] = {static_cast<Limb>(product), static_cast<Limb>(product >> 64)};
    addSigned(limbs, limbs[1] != 0 ? 2 : 1, negative);
    return *this;
  }
  // The product is complete before the accumulator changes, so x or y may be
  // *this.
  LimbVec& product = scratch().product;
  mulMagnitude(x.limbs_, y.limbs_, product);
  addSigned(product.data(), product.size(), negative);
  return *this;
}

void BigInt::divModMagnitude(const LimbVec& a, const LimbVec& b,
                             LimbVec& quotient, LimbVec& remainder) {
  assert(!b.empty());
  quotient.clear();
  remainder.clear();
  if (compareMagnitude(a, b) < 0) {
    remainder = a;
    return;
  }
  if (b.size() == 1) {
    // Short division.
    quotient.resizeForOverwrite(a.size());
    assignU64(remainder, divModLimb(a, b[0], quotient.data()));
    trimLimbs(quotient);
    return;
  }
  const unsigned shift = static_cast<unsigned>(leadingZeros(b.back()));
  const std::size_t n = b.size();
  const std::size_t m = a.size() - n;
  Scratch& s = scratch();
  shiftedCopy(a, shift, 1, s.u);
  shiftedCopy(b, shift, 0, s.v);
  quotient.assign(m + 1, 0);
  knuthDivide(s.u.data(), m, s.v.data(), n, quotient.data());
  trimLimbs(quotient);
  shiftedDownCopy(s.u.data(), n, shift, remainder);
}

void BigInt::remMagnitude(const LimbVec& a, const LimbVec& b, LimbVec& remainder) {
  assert(!b.empty());
  if (compareMagnitude(a, b) < 0) {
    remainder = a;
    return;
  }
  if (b.size() == 1) {
    assignU64(remainder, divModLimb(a, b[0], nullptr));
    return;
  }
  const unsigned shift = static_cast<unsigned>(leadingZeros(b.back()));
  Scratch& s = scratch();
  shiftedCopy(a, shift, 1, s.u);
  shiftedCopy(b, shift, 0, s.v);
  knuthDivide(s.u.data(), a.size() - b.size(), s.v.data(), b.size(), nullptr);
  shiftedDownCopy(s.u.data(), b.size(), shift, remainder);
}

void BigInt::divMod(const BigInt& numerator, const BigInt& denominator,
                    BigInt& quotient, BigInt& remainder) {
  if (denominator.isZero()) {
    throw std::domain_error("BigInt: division by zero");
  }
  if (fastPath() && numerator.magFitsU64() && denominator.magFitsU64()) {
    // Read both operands before writing: quotient/remainder may alias them.
    const std::uint64_t x = numerator.magU64();
    const std::uint64_t y = denominator.magU64();
    const bool quotientNegative = numerator.negative_ != denominator.negative_;
    const bool remainderNegative = numerator.negative_;
    quotient.setMagU64(x / y, quotientNegative);
    remainder.setMagU64(x % y, remainderNegative);
    return;
  }
  LimbVec q;
  LimbVec r;
  divModMagnitude(numerator.limbs_, denominator.limbs_, q, r);
  quotient.limbs_ = std::move(q);
  quotient.negative_ = numerator.negative_ != denominator.negative_;
  quotient.trim();
  remainder.limbs_ = std::move(r);
  remainder.negative_ = numerator.negative_;
  remainder.trim();
}

BigInt& BigInt::divExact(const BigInt& divisor) {
  assert(divisor.isOdd());
  if (isZero()) {
    return *this;
  }
  if (this == &divisor) {
    setMagU64(1, false);
    return *this;
  }
  const bool negative = negative_ != divisor.negative_;
  if (fastPath() && magFitsU64() && divisor.magFitsU64()) {
    assert(magU64() % divisor.magU64() == 0);
    setMagU64(magU64() / divisor.magU64(), negative);
    return *this;
  }
#ifndef NDEBUG
  const BigInt dividend = *this;
#endif
  const std::size_t n = divisor.limbs_.size();
  assert(limbs_.size() >= n);
  const std::size_t quotientSize = limbs_.size() - n + 1;
  const Limb* d = divisor.limbs_.data();
  // Inverse of the odd low limb modulo 2^64 by Newton's iteration: d*d == 1
  // (mod 8) gives 3 correct bits, and each step doubles them.
  Limb inverse = d[0];
  for (int step = 0; step < 5; ++step) {
    inverse *= 2U - d[0] * inverse;
  }
  // Right to left: quotient limb i is the one that clears limb i.  Only the
  // low quotientSize limbs are kept; in an exact division the rest reach 0.
  Limb* u = limbs_.data();
  for (std::size_t i = 0; i < quotientSize; ++i) {
    const Limb q = u[i] * inverse;
    const std::size_t span = std::min(n, quotientSize - i);
    Limb borrow = 0; // high half of q*d plus the subtraction's borrow
    for (std::size_t j = 0; j < span; ++j) {
      const DoubleLimb product = static_cast<DoubleLimb>(q) * d[j] + borrow;
      const auto low = static_cast<Limb>(product);
      const Limb current = u[i + j];
      u[i + j] = current - low;
      borrow = static_cast<Limb>(product >> 64) + (current < low ? 1U : 0U);
    }
    for (std::size_t k = i + span; borrow != 0 && k < quotientSize; ++k) {
      const Limb current = u[k];
      u[k] = current - borrow;
      borrow = current < borrow ? 1U : 0U;
    }
    assert(u[i] == 0);
    u[i] = q;
  }
  limbs_.resize(quotientSize);
  negative_ = negative;
  trim();
  assert(*this * divisor == dividend && "divExact: the division is not exact");
  return *this;
}

BigInt BigInt::divRound(const BigInt& numerator, const BigInt& denominator) {
  if (fastPath() && numerator.magFitsU64() && denominator.magFitsU64() &&
      !denominator.isZero()) {
    const std::uint64_t x = numerator.magU64();
    const std::uint64_t y = denominator.magU64();
    std::uint64_t q = x / y;
    const std::uint64_t r = x % y;
    if (r != 0 && r >= y - r) { // 2r >= y without overflowing: round away
      ++q;
    }
    BigInt result;
    result.setMagU64(q, numerator.negative_ != denominator.negative_);
    return result;
  }
  BigInt quotient;
  BigInt remainder;
  divMod(numerator, denominator, quotient, remainder);
  if (remainder.isZero()) {
    return quotient;
  }
  // |remainder| * 2 >= |denominator| -> round away from zero.
  const BigInt twiceRemainder = remainder.abs().shiftLeft(1);
  if (compareMagnitude(twiceRemainder.limbs_, denominator.limbs_) >= 0) {
    const bool resultNegative = numerator.negative_ != denominator.negative_;
    quotient += resultNegative ? BigInt{-1} : BigInt{1};
  }
  return quotient;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  divMod(*this, rhs, quotient, remainder);
  *this = std::move(quotient);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  divMod(*this, rhs, quotient, remainder);
  *this = std::move(remainder);
  return *this;
}

BigInt BigInt::shiftLeft(std::size_t bits) const {
  if (isZero() || bits == 0) {
    return *this;
  }
  if (fastPath() && magFitsU64() && bits < 64) {
    BigInt result;
    result.setMagU128(static_cast<unsigned __int128>(magU64()) << bits, negative_);
    return result;
  }
  const std::size_t limbShift = bits / kLimbBits;
  const std::size_t bitShift = bits % kLimbBits;
  BigInt result;
  result.negative_ = negative_;
  result.limbs_.assign(limbs_.size() + limbShift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const DoubleLimb shifted = static_cast<DoubleLimb>(limbs_[i]) << bitShift;
    result.limbs_[i + limbShift] |= static_cast<Limb>(shifted);
    result.limbs_[i + limbShift + 1] |= static_cast<Limb>(shifted >> 64);
  }
  result.trim();
  return result;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  if (fastPath() && magFitsU64()) {
    setMagU64(bits >= 64 ? 0 : magU64() >> bits, negative_);
    return *this;
  }
  const std::size_t limbShift = bits / kLimbBits;
  if (limbShift >= limbs_.size()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  const std::size_t bitShift = bits % kLimbBits;
  const std::size_t size = limbs_.size() - limbShift;
  for (std::size_t i = 0; i < size; ++i) {
    const Limb high = bitShift != 0 && i + 1 < size
                          ? limbs_[i + limbShift + 1] << (kLimbBits - bitShift)
                          : 0;
    limbs_[i] = (limbs_[i + limbShift] >> bitShift) | high;
  }
  limbs_.resize(size);
  trim();
  return *this;
}

std::size_t BigInt::countTrailingZeroBits() const {
  assert(!isZero());
  std::size_t count = 0;
  for (const Limb limb : limbs_) {
    if (limb == 0) {
      count += kLimbBits;
    } else {
      count += static_cast<std::size_t>(trailingZeros(limb));
      break;
    }
  }
  return count;
}

namespace {

/// out = |p*a - q*b| in one pass with two carries and a borrow; p, q < 2^63.
/// \pre a.size() >= b.size()
void combineRow(const Limbs& a, const Limbs& b, Limb p, Limb q, Limbs& out) {
  const std::size_t n = a.size();
  out.resizeForOverwrite(n + 1);
  Limb* o = out.data();
  Limb carryP = 0;
  Limb carryQ = 0; // carry of q*b plus the subtraction's borrow
  const auto step = [&](std::size_t i, Limb bi) {
    const DoubleLimb x = static_cast<DoubleLimb>(p) * a[i] + carryP;
    const DoubleLimb y = static_cast<DoubleLimb>(q) * bi + carryQ;
    const auto xLow = static_cast<Limb>(x);
    const auto yLow = static_cast<Limb>(y);
    o[i] = xLow - yLow;
    carryP = static_cast<Limb>(x >> 64);
    carryQ = static_cast<Limb>(y >> 64) + (xLow < yLow ? 1U : 0U);
  };
  std::size_t i = 0;
  for (; i < b.size(); ++i) {
    step(i, b[i]);
  }
  for (; i < n; ++i) {
    step(i, 0);
  }
  // Both carries are below 2^63, so the top limb's sign bit is the sign of
  // the whole two's-complement difference; negate it to the magnitude.
  o[n] = carryP - carryQ;
  if ((o[n] >> 63) != 0) {
    Limb increment = 1;
    for (i = 0; i <= n; ++i) {
      o[i] = ~o[i] + increment;
      increment = increment != 0 && o[i] == 0 ? 1U : 0U;
    }
  }
  trimLimbs(out);
}

/// Lehmer's cofactor step:
///   outX = |mA*a + mB*b|  and  outY = |mC*a + mD*b|.
/// The cofactor rows of Euclid's continuants alternate in sign (mA*mB <= 0,
/// mC*mD <= 0), so each row is a difference of two non-negative products.
/// The outputs are per-thread scratch reused across rounds and calls, so a
/// round allocates nothing once they have grown to the operands' size.
/// \pre a.size() >= b.size(), |cofactors| <= 2^62
void lehmerCombine(const Limbs& a, const Limbs& b, std::int64_t mA, std::int64_t mB,
                   std::int64_t mC, std::int64_t mD, Limbs& outX, Limbs& outY) {
  assert(a.size() >= b.size());
  assert((mA <= 0 || mB <= 0) && (mA >= 0 || mB >= 0));
  assert((mC <= 0 || mD <= 0) && (mC >= 0 || mD >= 0));
  const auto magnitude = [](std::int64_t m) {
    return m < 0 ? ~static_cast<Limb>(m) + 1U : static_cast<Limb>(m);
  };
  combineRow(a, b, magnitude(mA), magnitude(mB), outX);
  combineRow(a, b, magnitude(mC), magnitude(mD), outY);
}

} // namespace

BigInt BigInt::gcd(BigInt a, const BigInt& b) {
  a.negative_ = false;
  if (b.isZero()) {
    return a;
  }
  if (a.isZero()) {
    return b.abs();
  }
  if (fastPath() && a.magFitsU64() && b.magFitsU64()) {
    // Hardware Euclid straight away — no multi-limb setup needed.
    a.setMagU64(euclidU64(a.magU64(), b.magU64()), false);
    return a;
  }
  // Two owned operands without a copy of b: reduce a below b in place, then
  // take c = b mod a, since gcd(a, b) = gcd(a mod b, b) = gcd(a, b mod a).
  if (compareMagnitude(a.limbs_, b.limbs_) >= 0) {
    remMagnitude(a.limbs_, b.limbs_, a.limbs_);
    if (a.isZero()) {
      return b.abs();
    }
  }
  if (a.magFitsU64()) {
    const std::uint64_t x = a.magU64();
    a.setMagU64(euclidU64(x, divModLimb(b.limbs_, x, nullptr)), false);
    return a;
  }
  BigInt c;
  remMagnitude(b.limbs_, a.limbs_, c.limbs_);
  // Lehmer's GCD: run Euclid on the aligned top 62 bits of both operands with
  // int64 cofactors, then apply the accumulated 2x2 matrix (determinant +-1,
  // so the gcd is preserved) to the full values in one O(limbs) pass.  Each
  // round retires ~30 bits, against 1 bit per subtract-and-shift round of the
  // binary GCD this replaces — the difference dominated whole-simulation
  // profiles via the canonicalization content gcd.
  Scratch& s = scratch();
  for (;;) {
    if (compareMagnitude(a.limbs_, c.limbs_) < 0) {
      std::swap(a.limbs_, c.limbs_);
    }
    if (c.isZero()) {
      return a;
    }
    if (c.magFitsU64()) {
      // One reciprocal pass brings a below 2^64; hardware Euclid finishes.
      const std::uint64_t y = c.magU64();
      a.setMagU64(euclidU64(y, divModLimb(a.limbs_, y, nullptr)), false);
      return a;
    }
    const std::size_t bits = a.bitLength();
    // 62 bits, not 63: the window plus a cofactor (|m| <= 2^62) must stay
    // inside int64.
    const std::size_t shift = bits > 62 ? bits - 62 : 0;
    std::int64_t xh = static_cast<std::int64_t>(bitsAt(a.limbs_, shift));
    std::int64_t yh = static_cast<std::int64_t>(bitsAt(c.limbs_, shift));
    std::int64_t mA = 1;
    std::int64_t mB = 0;
    std::int64_t mC = 0;
    std::int64_t mD = 1;
    // Simulate Euclid while the quotient is provably independent of the bits
    // truncated away (Knuth 4.5.2 L: the quotients computed from the two
    // extreme completions of the window must agree).
    while (yh + mC != 0 && yh + mD != 0) {
      const std::int64_t q = (xh + mA) / (yh + mC);
      if (q != (xh + mB) / (yh + mD)) {
        break;
      }
      // 128-bit intermediates: the continuant recurrences can brush past
      // int64 at the very end of a window.
      const auto nextC = static_cast<__int128>(mA) - static_cast<__int128>(q) * mC;
      const auto nextD = static_cast<__int128>(mB) - static_cast<__int128>(q) * mD;
      const auto nextY = static_cast<__int128>(xh) - static_cast<__int128>(q) * yh;
      constexpr auto kBound = static_cast<__int128>(1) << 62;
      if (nextC > kBound || nextC < -kBound || nextD > kBound || nextD < -kBound) {
        break;
      }
      mA = mC;
      mB = mD;
      mC = static_cast<std::int64_t>(nextC);
      mD = static_cast<std::int64_t>(nextD);
      xh = yh;
      yh = static_cast<std::int64_t>(nextY);
    }
    if (mB != 0) {
      lehmerCombine(a.limbs_, c.limbs_, mA, mB, mC, mD, s.x, s.y);
      if (compareMagnitude(s.y, c.limbs_) < 0) {
        // Copy back rather than swap buffers: the remainders never outgrow
        // the operands they replace, so this stays allocation-free.
        a.limbs_.assign(s.x.begin(), s.x.end());
        c.limbs_.assign(s.y.begin(), s.y.end());
        continue;
      }
    }
    // The window carried no usable quotient (e.g. |a| >> |c|), or the step
    // did not reduce (a pathological window): take one remainder step, in
    // place, with no quotient.
    remMagnitude(a.limbs_, c.limbs_, a.limbs_);
    std::swap(a.limbs_, c.limbs_);
  }
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept {
  if (lhs.negative_ != rhs.negative_) {
    return lhs.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int magnitude = BigInt::compareMagnitude(lhs.limbs_, rhs.limbs_);
  const int signed_ = lhs.negative_ ? -magnitude : magnitude;
  if (signed_ < 0) {
    return std::strong_ordering::less;
  }
  if (signed_ > 0) {
    return std::strong_ordering::greater;
  }
  return std::strong_ordering::equal;
}

std::size_t BigInt::hash() const noexcept {
  std::size_t h = negative_ ? 0x9e3779b97f4a7c15ULL : 0x2545f4914f6cdd1dULL;
  for (const Limb limb : limbs_) {
    h = (h ^ limb) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.toString();
}

BigInt pow2(std::size_t exponent) {
  return BigInt{1}.shiftLeft(exponent);
}

} // namespace qadd

/// \file handle.hpp
/// 32-bit handles into the append-only weight tables of both planes
/// (num::BasicComplexTable and dd::AlgebraicSystem's intern pool).  A handle
/// is the index of its entry; the all-ones value is reserved as "no entry"
/// (the complex table's empty slot and end of chain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace qadd::num {

/// Reserved handle value: never minted.
inline constexpr std::uint32_t kNoHandle = ~std::uint32_t{0};
/// The largest handle mintHandle() hands out (2^32 - 2).
inline constexpr std::size_t kMaxHandle = kNoHandle - 1;

/// Handle for the entry about to be appended at `index`.
/// \throws std::length_error past kMaxHandle instead of wrapping.
[[nodiscard]] inline std::uint32_t mintHandle(std::size_t index) {
  if (index > kMaxHandle) [[unlikely]] {
    throw std::length_error("weight table: handle space (2^32 - 1 entries) exhausted");
  }
  return static_cast<std::uint32_t>(index);
}

} // namespace qadd::num

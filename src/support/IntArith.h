//===- support/IntArith.h - Wrap-around int64 arithmetic -------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClightX and LAsm integers are 64-bit two's complement and wrap on
/// overflow, as CompCert's Int64 does.  The reference interpreter, the VM
/// and the optimizer's constant folder all compute through these helpers,
/// so an overflowing program means the same to all three, and none of them
/// executes C++ signed overflow, which is undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_INTARITH_H
#define CCAL_SUPPORT_INTARITH_H

#include <cstdint>

namespace ccal {

/// +, -, * and unary minus on the unsigned representation, where overflow
/// wraps, converted back to int64 (modular since C++20).
inline std::int64_t wrapAdd(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(std::uint64_t(A) + std::uint64_t(B));
}
inline std::int64_t wrapSub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(std::uint64_t(A) - std::uint64_t(B));
}
inline std::int64_t wrapMul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(std::uint64_t(A) * std::uint64_t(B));
}
inline std::int64_t wrapNeg(std::int64_t A) { return wrapSub(0, A); }

/// Quotient and remainder for \p B != 0 (callers trap on zero); the one
/// overflowing case, INT64_MIN / -1, wraps to INT64_MIN with remainder 0.
inline std::int64_t wrapDiv(std::int64_t A, std::int64_t B) {
  return B == -1 ? wrapNeg(A) : A / B;
}
inline std::int64_t wrapRem(std::int64_t A, std::int64_t B) {
  return B == -1 ? 0 : A % B;
}

} // namespace ccal

#endif // CCAL_SUPPORT_INTARITH_H

//===- support/APInt.h - Arbitrary-width integer arithmetic ----*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity reimplementation of LLVM's APInt supporting bit widths
/// from 1 to 128. Values are stored in two's-complement form in two 64-bit
/// words; all arithmetic is performed modulo 2^width. This is the numeric
/// substrate for the IR interpreter, the constant folder, and the SMT
/// bit-blaster's constant handling.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_APINT_H
#define SUPPORT_APINT_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

namespace alive {

/// An arbitrary-width (1..128 bit) two's-complement integer.
///
/// Semantics follow llvm::APInt: operations wrap modulo 2^BitWidth, widths of
/// both operands of a binary operation must match, and explicit trunc/zext/
/// sext conversions change the width. Overflow-detecting variants are
/// provided for the nsw/nuw/exact poison-flag checks the IR needs.
class APInt {
public:
  static constexpr unsigned MaxBits = 128;

  /// Constructs the value \p Val zero-extended/truncated to \p NumBits bits.
  APInt(unsigned NumBits, uint64_t Val, bool IsSigned = false)
      : BitWidth(NumBits) {
    assert(NumBits >= 1 && NumBits <= MaxBits && "unsupported bit width");
    Lo = Val;
    Hi = IsSigned && (int64_t)Val < 0 ? ~0ULL : 0;
    clearUnusedBits();
  }

  /// Constructs a zero of width 1. Exists so containers can hold APInt;
  /// prefer the explicit-width constructor.
  APInt() : BitWidth(1), Lo(0), Hi(0) {}

  /// Builds an APInt from both 64-bit halves.
  static APInt fromParts(unsigned NumBits, uint64_t LoPart, uint64_t HiPart) {
    APInt R(NumBits, 0);
    R.Lo = LoPart;
    R.Hi = HiPart;
    R.clearUnusedBits();
    return R;
  }

  static APInt getZero(unsigned NumBits) { return APInt(NumBits, 0); }
  static APInt getOne(unsigned NumBits) { return APInt(NumBits, 1); }
  /// All-ones value (unsigned max, signed -1).
  static APInt getAllOnes(unsigned NumBits) {
    return fromParts(NumBits, ~0ULL, ~0ULL);
  }
  static APInt getMaxValue(unsigned NumBits) { return getAllOnes(NumBits); }
  static APInt getMinValue(unsigned NumBits) { return getZero(NumBits); }
  /// 2^(w-1) - 1.
  static APInt getSignedMaxValue(unsigned NumBits) {
    APInt R = getAllOnes(NumBits);
    R.clearBit(NumBits - 1);
    return R;
  }
  /// -2^(w-1).
  static APInt getSignedMinValue(unsigned NumBits) {
    APInt R = getZero(NumBits);
    R.setBit(NumBits - 1);
    return R;
  }
  /// Value with exactly bit \p BitNo set.
  static APInt getOneBitSet(unsigned NumBits, unsigned BitNo) {
    APInt R = getZero(NumBits);
    R.setBit(BitNo);
    return R;
  }
  /// Low \p LoBits bits set, rest clear.
  static APInt getLowBitsSet(unsigned NumBits, unsigned LoBits) {
    assert(LoBits <= NumBits);
    if (LoBits == 0)
      return getZero(NumBits);
    return getAllOnes(NumBits).lshr(NumBits - LoBits);
  }
  /// High \p HiBits bits set, rest clear.
  static APInt getHighBitsSet(unsigned NumBits, unsigned HiBits) {
    assert(HiBits <= NumBits);
    if (HiBits == 0)
      return getZero(NumBits);
    return getAllOnes(NumBits).shl(NumBits - HiBits);
  }

  unsigned getBitWidth() const { return BitWidth; }

  /// \returns the low 64 bits. Asserts nothing: callers that need the whole
  /// value at widths > 64 must use both parts.
  uint64_t getLoBits64() const { return Lo; }
  uint64_t getHiBits64() const { return Hi; }

  /// Zero-extended value; asserts that it fits in 64 bits.
  uint64_t getZExtValue() const {
    assert((BitWidth <= 64 || Hi == 0) && "value does not fit in 64 bits");
    return Lo;
  }
  /// Sign-extended value; asserts that it fits in a signed 64-bit integer.
  int64_t getSExtValue() const {
    if (BitWidth <= 64) {
      unsigned Shift = 64 - BitWidth;
      return (int64_t)(Lo << Shift) >> Shift;
    }
    assert(((Hi == 0 && !(Lo >> 63)) || (Hi == ~0ULL && (Lo >> 63))) &&
           "value does not fit in 64 bits");
    return (int64_t)Lo;
  }

  bool isZero() const { return Lo == 0 && Hi == 0; }
  bool isOne() const { return Lo == 1 && Hi == 0; }
  bool isAllOnes() const { return *this == getAllOnes(BitWidth); }
  bool isNegative() const { return testBit(BitWidth - 1); }
  bool isNonNegative() const { return !isNegative(); }
  bool isSignedMinValue() const { return *this == getSignedMinValue(BitWidth); }
  bool isSignedMaxValue() const { return *this == getSignedMaxValue(BitWidth); }
  /// True if exactly one bit is set.
  bool isPowerOf2() const { return !isZero() && (*this & (*this - getOne(BitWidth))).isZero(); }

  bool testBit(unsigned BitNo) const {
    assert(BitNo < BitWidth && "bit index out of range");
    return BitNo < 64 ? (Lo >> BitNo) & 1 : (Hi >> (BitNo - 64)) & 1;
  }
  void setBit(unsigned BitNo) {
    assert(BitNo < BitWidth && "bit index out of range");
    if (BitNo < 64)
      Lo |= 1ULL << BitNo;
    else
      Hi |= 1ULL << (BitNo - 64);
  }
  void clearBit(unsigned BitNo) {
    assert(BitNo < BitWidth && "bit index out of range");
    if (BitNo < 64)
      Lo &= ~(1ULL << BitNo);
    else
      Hi &= ~(1ULL << (BitNo - 64));
  }

  unsigned countLeadingZeros() const;
  unsigned countTrailingZeros() const;
  unsigned countLeadingOnes() const { return (~*this).countLeadingZeros(); }
  unsigned popcount() const;
  /// Bits needed to represent this as an unsigned number.
  unsigned getActiveBits() const { return BitWidth - countLeadingZeros(); }
  /// log2 if this is a power of two; asserts otherwise.
  unsigned logBase2() const {
    assert(isPowerOf2() && "logBase2 on non-power-of-2");
    return BitWidth - 1 - countLeadingZeros();
  }

  // Bitwise operators.
  APInt operator~() const { return fromParts(BitWidth, ~Lo, ~Hi); }
  APInt operator&(const APInt &RHS) const {
    assertSameWidth(RHS);
    return fromParts(BitWidth, Lo & RHS.Lo, Hi & RHS.Hi);
  }
  APInt operator|(const APInt &RHS) const {
    assertSameWidth(RHS);
    return fromParts(BitWidth, Lo | RHS.Lo, Hi | RHS.Hi);
  }
  APInt operator^(const APInt &RHS) const {
    assertSameWidth(RHS);
    return fromParts(BitWidth, Lo ^ RHS.Lo, Hi ^ RHS.Hi);
  }

  // Arithmetic (modulo 2^width).
  APInt operator+(const APInt &RHS) const;
  APInt operator-(const APInt &RHS) const;
  APInt operator*(const APInt &RHS) const;
  APInt operator-() const { return getZero(BitWidth) - *this; }

  /// Unsigned division; asserts RHS != 0 (IR-level division by zero is UB and
  /// must be caught before reaching here).
  APInt udiv(const APInt &RHS) const;
  APInt urem(const APInt &RHS) const;
  /// Signed division with C semantics (truncation toward zero). Asserts
  /// RHS != 0; INT_MIN / -1 wraps (caller detects overflow with sdiv_ov).
  APInt sdiv(const APInt &RHS) const;
  APInt srem(const APInt &RHS) const;

  /// Shifts. Asserts Amt < width; IR-level oversized shifts are poison and
  /// must be caught before reaching here.
  APInt shl(unsigned Amt) const;
  APInt lshr(unsigned Amt) const;
  APInt ashr(unsigned Amt) const;
  APInt shl(const APInt &Amt) const { return shl(shiftAmount(Amt)); }
  APInt lshr(const APInt &Amt) const { return lshr(shiftAmount(Amt)); }
  APInt ashr(const APInt &Amt) const { return ashr(shiftAmount(Amt)); }

  /// Rotates (total width modulo semantics; Amt may be any value).
  APInt rotl(unsigned Amt) const;
  APInt rotr(unsigned Amt) const;

  // Overflow-detecting arithmetic, used for nsw/nuw/exact poison checks.
  // Each returns the wrapped result and sets \p Overflow.
  APInt uadd_ov(const APInt &RHS, bool &Overflow) const;
  APInt sadd_ov(const APInt &RHS, bool &Overflow) const;
  APInt usub_ov(const APInt &RHS, bool &Overflow) const;
  APInt ssub_ov(const APInt &RHS, bool &Overflow) const;
  APInt umul_ov(const APInt &RHS, bool &Overflow) const;
  APInt smul_ov(const APInt &RHS, bool &Overflow) const;
  APInt sdiv_ov(const APInt &RHS, bool &Overflow) const;
  APInt ushl_ov(const APInt &Amt, bool &Overflow) const;
  APInt sshl_ov(const APInt &Amt, bool &Overflow) const;

  // Saturating arithmetic (for the *.sat intrinsics).
  APInt uadd_sat(const APInt &RHS) const;
  APInt sadd_sat(const APInt &RHS) const;
  APInt usub_sat(const APInt &RHS) const;
  APInt ssub_sat(const APInt &RHS) const;

  // Comparisons.
  bool operator==(const APInt &RHS) const {
    assertSameWidth(RHS);
    return Lo == RHS.Lo && Hi == RHS.Hi;
  }
  bool operator!=(const APInt &RHS) const { return !(*this == RHS); }
  bool ult(const APInt &RHS) const {
    assertSameWidth(RHS);
    return Hi != RHS.Hi ? Hi < RHS.Hi : Lo < RHS.Lo;
  }
  bool ule(const APInt &RHS) const { return !RHS.ult(*this); }
  bool ugt(const APInt &RHS) const { return RHS.ult(*this); }
  bool uge(const APInt &RHS) const { return !ult(RHS); }
  bool slt(const APInt &RHS) const {
    assertSameWidth(RHS);
    bool LN = isNegative(), RN = RHS.isNegative();
    if (LN != RN)
      return LN;
    return ult(RHS);
  }
  bool sle(const APInt &RHS) const { return !RHS.slt(*this); }
  bool sgt(const APInt &RHS) const { return RHS.slt(*this); }
  bool sge(const APInt &RHS) const { return !slt(RHS); }

  // Width conversions.
  APInt trunc(unsigned NewWidth) const {
    assert(NewWidth <= BitWidth && "trunc must narrow");
    return fromParts(NewWidth, Lo, Hi);
  }
  APInt zext(unsigned NewWidth) const {
    assert(NewWidth >= BitWidth && "zext must widen");
    return fromParts(NewWidth, Lo, Hi);
  }
  APInt sext(unsigned NewWidth) const;
  /// zext, sext or trunc as needed to reach \p NewWidth.
  APInt zextOrTrunc(unsigned NewWidth) const {
    return NewWidth >= BitWidth ? zext(NewWidth) : trunc(NewWidth);
  }
  APInt sextOrTrunc(unsigned NewWidth) const {
    return NewWidth >= BitWidth ? sext(NewWidth) : trunc(NewWidth);
  }

  /// Reverses the bytes; asserts the width is a multiple of 16 bits (the
  /// bswap intrinsic's constraint).
  APInt byteSwap() const;
  /// Reverses all bits.
  APInt bitReverse() const;
  /// |x| as an unsigned value of the same width (INT_MIN stays INT_MIN).
  APInt abs() const { return isNegative() ? -*this : *this; }

  APInt smax(const APInt &RHS) const { return sgt(RHS) ? *this : RHS; }
  APInt smin(const APInt &RHS) const { return slt(RHS) ? *this : RHS; }
  APInt umax(const APInt &RHS) const { return ugt(RHS) ? *this : RHS; }
  APInt umin(const APInt &RHS) const { return ult(RHS) ? *this : RHS; }

  /// Renders as decimal, signed or unsigned.
  std::string toString(bool Signed = true) const;

  /// Parses a decimal literal (optionally with a leading '-') into an APInt
  /// of width \p NumBits, wrapping modulo 2^NumBits. \returns false on
  /// malformed input.
  static bool fromString(unsigned NumBits, const std::string &Str,
                         APInt &Result);

  /// Stable 64-bit hash for hash-consing and value numbering.
  uint64_t hash() const {
    uint64_t H = BitWidth;
    H = H * 0x9E3779B97F4A7C15ULL + Lo;
    H = H * 0x9E3779B97F4A7C15ULL + Hi;
    return H;
  }

private:
  void clearUnusedBits() {
    if (BitWidth <= 64) {
      if (BitWidth < 64)
        Lo &= (~0ULL >> (64 - BitWidth));
      Hi = 0;
    } else if (BitWidth < 128) {
      Hi &= (~0ULL >> (128 - BitWidth));
    }
  }
  void assertSameWidth(const APInt &RHS) const {
    assert(BitWidth == RHS.BitWidth && "bit widths must match");
    (void)RHS;
  }
  /// Clamps a shift-amount operand; asserts it is in range.
  unsigned shiftAmount(const APInt &Amt) const {
    assert(Amt.getBitWidth() == BitWidth && "shift amount width mismatch");
    assert((Amt.Hi == 0 && Amt.Lo < BitWidth) && "oversized shift is poison");
    return (unsigned)Amt.Lo;
  }

  unsigned BitWidth;
  uint64_t Lo, Hi;
};

} // namespace alive

#endif // SUPPORT_APINT_H

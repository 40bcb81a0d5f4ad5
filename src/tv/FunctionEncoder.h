//===- tv/FunctionEncoder.h - IR -> bit-vector terms -----------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes a loop-free, memory-free integer function as bit-vector terms:
/// every SSA value becomes a (value, poison) term pair, every block gets a
/// path condition, and undefined behavior accumulates into a single UB
/// wire. This is the symbolic half of the Alive2-substitute checker.
///
/// Pointer arguments are opaque: the function may compare them but not
/// access memory through them. They follow the concrete trials' pointer
/// model (see argBufferBytes), so that a solver model replays in the
/// interpreter the way a concrete trial would build it.
///
//===----------------------------------------------------------------------===//

#ifndef TV_FUNCTIONENCODER_H
#define TV_FUNCTIONENCODER_H

#include "ir/Module.h"
#include "smt/Term.h"

#include <map>
#include <string>
#include <vector>

namespace alive {

/// Bytes of the buffer a refinement trial gives a pointer argument marked
/// dereferenceable(\p Deref): at least one 8-byte word.
///
/// This is the pointer model shared by the concrete trials and the
/// symbolic encoding. A pointer argument is never poison. It is null only
/// when the source function does not mark it nonnull. Otherwise it points
/// at its own buffer: the buffers of the non-null pointer arguments are
/// allocated from a fresh Memory in argument order with ArgBufferAlign
/// alignment, so the first one starts at Memory::FirstValidAddr.
/// Arguments never alias one another.
inline uint64_t argBufferBytes(uint64_t Deref) {
  return Deref > 8 ? Deref : 8;
}

/// Alignment of the pointer arguments' trial buffers.
constexpr uint64_t ArgBufferAlign = 8;

/// A symbolic SSA value: its bits plus a 1-bit poison indicator.
struct EncodedValue {
  TermRef Val = nullptr;
  TermRef Poison = nullptr;
};

/// The symbolic summary of one function execution.
struct EncodedFunction {
  /// 1 when this input triggers undefined behavior.
  TermRef UB = nullptr;
  /// Return value terms; RetVal is null for void functions.
  TermRef RetVal = nullptr;
  TermRef RetPoison = nullptr;
};

/// Encodes functions over a shared TermBuilder (source and target must
/// share argument variables, hence one encoder context).
class FunctionEncoder {
public:
  explicit FunctionEncoder(TermBuilder &B) : B(B) {}

  /// True if \p F lies in the symbolic fragment: defined, loop-free CFG,
  /// integer or opaque pointer arguments, integer or void return, scalar
  /// integer values, no memory operations or external calls. \p Why
  /// receives the first violated constraint otherwise.
  static bool isSymbolicallySupported(const Function &F, std::string &Why);

  /// Builds shared argument encodings for \p F: fresh value and poison
  /// variables per integer argument; per pointer argument, a fresh null
  /// bit (unless nonnull) selecting between null and the address the
  /// pointer model gives it.
  std::vector<EncodedValue> makeArguments(const Function &F);

  /// The null bit of pointer argument \p ArgNo from the last
  /// makeArguments, or null when that argument is not a pointer or is
  /// marked nonnull.
  TermRef nullBit(unsigned ArgNo) const {
    return ArgNo < NullBits.size() ? NullBits[ArgNo] : nullptr;
  }

  /// Encodes \p F applied to \p Args. Requires isSymbolicallySupported.
  EncodedFunction encode(const Function &F,
                         const std::vector<EncodedValue> &Args);

private:
  EncodedValue getValue(const Value *V);
  EncodedValue encodeInstruction(const Instruction *I, TermRef PathCond,
                                 TermRef &UB);
  EncodedValue encodeBinary(const BinaryInst *B2, TermRef PathCond,
                            TermRef &UB);
  EncodedValue encodeIntrinsic(const CallInst *C, TermRef PathCond,
                               TermRef &UB);

  TermBuilder &B;
  std::map<const Value *, EncodedValue> Values;
  /// Per argument of the last makeArguments: its null bit, see nullBit.
  std::vector<TermRef> NullBits;
  /// Freeze results keyed by the frozen value's encoding: freezing the same
  /// symbolic value yields the same fixed result on both sides of a
  /// refinement query (the deterministic-freeze policy; matches the
  /// interpreter's zero resolution in spirit and makes identical functions
  /// provably equivalent).
  std::map<std::pair<TermRef, TermRef>, TermRef> FreezeVars;
};

/// The refinement miter over one encoder's \p Src and \p Tgt (shared
/// arguments): a width-1 term that is true exactly on the inputs where the
/// target fails to refine the source,
///
///   not Src.UB and (Tgt.UB or (not Src.RetPoison and
///                              (Tgt.RetPoison or Tgt.RetVal != Src.RetVal)))
///
/// built without the disjuncts of Tgt.UB that are OR-disjuncts of Src.UB,
/// and without those of Tgt.RetPoison that are OR-disjuncts of Src.UB or
/// Src.RetPoison: the context makes them false. Disjuncts are matched by
/// term identity.
TermRef refinementViolation(TermBuilder &B, const EncodedFunction &Src,
                            const EncodedFunction &Tgt);

} // namespace alive

#endif // TV_FUNCTIONENCODER_H

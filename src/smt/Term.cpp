//===- smt/Term.cpp - Bit-vector term DAG ----------------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Term.h"

#include <cassert>
#include <cstdint>
#include <utility>

using namespace alive;

size_t TermBuilder::KeyHash::operator()(const Key &K) const {
  uint64_t H = (uint64_t)K.Kind << 32 | K.Width;
  auto Mix = [&H](uint64_t V) {
    H = (H ^ V) * 0x9E3779B97F4A7C15ULL;
    H ^= H >> 29;
  };
  for (TermRef Op : K.Ops)
    Mix((uint64_t)(uintptr_t)Op);
  Mix(K.ConstParts.first);
  Mix(K.ConstParts.second);
  Mix(K.VarId);
  return (size_t)H;
}

TermRef TermBuilder::intern(Term &&T) {
  Key K{T.Kind, T.Width, T.Ops,
        {T.ConstVal.getLoBits64(), T.ConstVal.getHiBits64()},
        T.VarId};
  // Constants of different widths share (lo,hi) keys only within a width,
  // which Key::Width already distinguishes.
  auto &Slot = Pool[K];
  if (!Slot)
    Slot = std::make_unique<Term>(std::move(T));
  return Slot.get();
}

TermRef TermBuilder::mkVar(unsigned Width, const std::string &Name) {
  Term T;
  T.Kind = TermKind::Var;
  T.Width = Width;
  T.ConstVal = APInt::getZero(1);
  T.VarId = NextVarId++;
  T.VarName = Name;
  return intern(std::move(T));
}

TermRef TermBuilder::mkConst(const APInt &V) {
  Term T;
  T.Kind = TermKind::Const;
  T.Width = V.getBitWidth();
  T.ConstVal = V;
  return intern(std::move(T));
}

APInt alive::evaluateKind(TermKind Kind, unsigned Width,
                          std::span<const APInt> V) {
  assert(Kind != TermKind::Var && Kind != TermKind::Const &&
         "leaves have no operator");
  auto ShiftOut = [&] { return V[1].uge(APInt(Width, Width)); };
  switch (Kind) {
  case TermKind::And:
    return V[0] & V[1];
  case TermKind::Or:
    return V[0] | V[1];
  case TermKind::Xor:
    return V[0] ^ V[1];
  case TermKind::Not:
    return ~V[0];
  case TermKind::Add:
    return V[0] + V[1];
  case TermKind::Sub:
    return V[0] - V[1];
  case TermKind::Mul:
    return V[0] * V[1];
  case TermKind::UDiv:
    return V[1].isZero() ? APInt::getZero(Width) : V[0].udiv(V[1]);
  case TermKind::URem:
    return V[1].isZero() ? V[0] : V[0].urem(V[1]);
  case TermKind::SDiv:
    // APInt::sdiv wraps INT_MIN / -1 back to INT_MIN, as the circuit does.
    return V[1].isZero() ? APInt::getZero(Width) : V[0].sdiv(V[1]);
  case TermKind::SRem:
    return V[1].isZero() ? V[0] : V[0].srem(V[1]);
  case TermKind::Shl:
    return ShiftOut() ? APInt::getZero(Width) : V[0].shl(V[1]);
  case TermKind::LShr:
    return ShiftOut() ? APInt::getZero(Width) : V[0].lshr(V[1]);
  case TermKind::AShr:
    if (ShiftOut())
      return V[0].isNegative() ? APInt::getAllOnes(Width)
                               : APInt::getZero(Width);
    return V[0].ashr(V[1]);
  case TermKind::Eq:
    return APInt(1, V[0] == V[1]);
  case TermKind::Ult:
    return APInt(1, V[0].ult(V[1]));
  case TermKind::Slt:
    return APInt(1, V[0].slt(V[1]));
  case TermKind::Ite:
    return V[0].isZero() ? V[2] : V[1];
  case TermKind::ZExt:
    return V[0].zext(Width);
  case TermKind::SExt:
    return V[0].sext(Width);
  case TermKind::Trunc:
    return V[0].trunc(Width);
  case TermKind::Var:
  case TermKind::Const:
    break;
  }
  return APInt::getZero(Width);
}

TermRef TermBuilder::mkNode(TermKind Kind, unsigned Width,
                            std::initializer_list<TermRef> Ops) {
  // Constant operands fold through the evaluator itself, so a folded term
  // and an evaluated one can never disagree.
  bool AllConst = true;
  for (TermRef Op : Ops)
    AllConst &= Op->isConst();
  if (AllConst) {
    APInt Vals[3];
    unsigned N = 0;
    for (TermRef Op : Ops)
      Vals[N++] = Op->ConstVal;
    return mkConst(evaluateKind(Kind, Width, {Vals, N}));
  }
  Term T;
  T.Kind = Kind;
  T.Width = Width;
  T.Ops = Ops;
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkBinary(TermKind Kind, TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  return mkNode(Kind, A->Width, {A, B});
}

namespace {
/// True when \p A is ~\p B or \p B is ~\p A, by term identity.
bool complementary(TermRef A, TermRef B) {
  return (A->Kind == TermKind::Not && A->Ops[0] == B) ||
         (B->Kind == TermKind::Not && B->Ops[0] == A);
}
} // namespace

// Bitwise identities, bit by bit and so at every width. Each checks both
// operand positions instead of ordering the operands, so the term built
// (and with it the CNF) never depends on where a term was allocated.

TermRef TermBuilder::mkAnd(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConstZero() || B->isConstOnes() || A == B)
    return A;
  if (B->isConstZero() || A->isConstOnes())
    return B;
  if (complementary(A, B))
    return mkConst(APInt::getZero(A->Width));
  return mkBinary(TermKind::And, A, B);
}

TermRef TermBuilder::mkOr(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConstOnes() || B->isConstZero() || A == B)
    return A;
  if (B->isConstOnes() || A->isConstZero())
    return B;
  if (complementary(A, B))
    return mkConst(APInt::getAllOnes(A->Width));
  return mkBinary(TermKind::Or, A, B);
}

TermRef TermBuilder::mkXor(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (B->isConstZero())
    return A;
  if (A->isConstZero())
    return B;
  if (B->isConstOnes())
    return mkNot(A);
  if (A->isConstOnes())
    return mkNot(B);
  if (A == B)
    return mkConst(APInt::getZero(A->Width));
  if (complementary(A, B))
    return mkConst(APInt::getAllOnes(A->Width));
  return mkBinary(TermKind::Xor, A, B);
}

// Division-by-divisor rewrites. A lowering of a - (a/b)*b to a % b leaves
// the solver to prove a restoring divider and a multiplier consistent,
// which no conflict budget covers. Rewritten at the word level, source and
// target hash-cons to one term and the query folds before bit-blasting.
// The rules match on term identity alone and never consult the optimizer
// or analysis/KnownBits, so a bug there cannot hide the miscompile it
// enables. Each holds modulo 2^W under the total convention: b == 0 gives
// quotient 0 and remainder a, and INT_MIN sdiv -1 wraps with srem 0.

TermRef TermBuilder::mkAdd(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  // (a - c) + c == a, in either operand order.
  if (A->Kind == TermKind::Sub && A->Ops[1] == B)
    return A->Ops[0];
  if (B->Kind == TermKind::Sub && B->Ops[1] == A)
    return B->Ops[0];
  return mkBinary(TermKind::Add, A, B);
}

TermRef TermBuilder::mkSub(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  // a - (a - c) == c.
  if (B->Kind == TermKind::Sub && B->Ops[0] == A)
    return B->Ops[1];
  return mkBinary(TermKind::Sub, A, B);
}

TermRef TermBuilder::mkMul(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  // (a udiv b) * b == a - (a urem b), and the sdiv/srem mirror, with the
  // quotient on either side.
  for (auto [Q, D] : {std::pair{A, B}, std::pair{B, A}}) {
    bool Unsigned = Q->Kind == TermKind::UDiv;
    if ((Unsigned || Q->Kind == TermKind::SDiv) && Q->Ops[1] == D) {
      TermRef X = Q->Ops[0];
      return mkSub(X, Unsigned ? mkURem(X, D) : mkSRem(X, D));
    }
  }
  return mkBinary(TermKind::Mul, A, B);
}

TermRef TermBuilder::mkUDiv(TermRef A, TermRef B) {
  return mkBinary(TermKind::UDiv, A, B);
}
TermRef TermBuilder::mkURem(TermRef A, TermRef B) {
  return mkBinary(TermKind::URem, A, B);
}
TermRef TermBuilder::mkSDiv(TermRef A, TermRef B) {
  return mkBinary(TermKind::SDiv, A, B);
}
TermRef TermBuilder::mkSRem(TermRef A, TermRef B) {
  return mkBinary(TermKind::SRem, A, B);
}
TermRef TermBuilder::mkShl(TermRef A, TermRef B) {
  return mkBinary(TermKind::Shl, A, B);
}
TermRef TermBuilder::mkLShr(TermRef A, TermRef B) {
  return mkBinary(TermKind::LShr, A, B);
}
TermRef TermBuilder::mkAShr(TermRef A, TermRef B) {
  return mkBinary(TermKind::AShr, A, B);
}

TermRef TermBuilder::mkNot(TermRef A) {
  // Involution: not(not(x)) == x.
  if (A->Kind == TermKind::Not)
    return A->Ops[0];
  return mkNode(TermKind::Not, A->Width, {A});
}

TermRef TermBuilder::mkEq(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return mkTrue();
  return mkNode(TermKind::Eq, 1, {A, B});
}

// Strict orders are irreflexive: x < x is false, signed or not.

TermRef TermBuilder::mkUlt(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return mkFalse();
  return mkNode(TermKind::Ult, 1, {A, B});
}

TermRef TermBuilder::mkSlt(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return mkFalse();
  return mkNode(TermKind::Slt, 1, {A, B});
}

TermRef TermBuilder::mkIte(TermRef C, TermRef T, TermRef E) {
  assert(C->Width == 1 && "ite condition must be width 1");
  assert(T->Width == E->Width && "ite arm width mismatch");
  if (C->isConst())
    return C->ConstVal.isZero() ? E : T;
  if (T == E)
    return T;
  return mkNode(TermKind::Ite, T->Width, {C, T, E});
}

TermRef TermBuilder::mkZExt(TermRef A, unsigned Width) {
  assert(Width >= A->Width);
  return Width == A->Width ? A : mkNode(TermKind::ZExt, Width, {A});
}

TermRef TermBuilder::mkSExt(TermRef A, unsigned Width) {
  assert(Width >= A->Width);
  return Width == A->Width ? A : mkNode(TermKind::SExt, Width, {A});
}

TermRef TermBuilder::mkTrunc(TermRef A, unsigned Width) {
  assert(Width <= A->Width);
  return Width == A->Width ? A : mkNode(TermKind::Trunc, Width, {A});
}

unsigned alive::knownLeadingZeros(TermRef T) {
  switch (T->Kind) {
  case TermKind::Const:
    return T->ConstVal.countLeadingZeros();
  case TermKind::ZExt:
    return T->Width - T->Ops[0]->Width + knownLeadingZeros(T->Ops[0]);
  case TermKind::SExt: {
    // The copied sign bit is a known zero only if the operand's is.
    unsigned LZ = knownLeadingZeros(T->Ops[0]);
    return LZ ? T->Width - T->Ops[0]->Width + LZ : 0;
  }
  default:
    return 0;
  }
}

unsigned alive::knownSignBits(TermRef T) {
  switch (T->Kind) {
  case TermKind::Const:
    return T->ConstVal.isNegative() ? T->ConstVal.countLeadingOnes()
                                    : T->ConstVal.countLeadingZeros();
  case TermKind::ZExt:
    // A zero sign bit: the sign-bit copies are the leading zeros.
    return knownLeadingZeros(T);
  case TermKind::SExt:
    return T->Width - T->Ops[0]->Width + knownSignBits(T->Ops[0]);
  default:
    return 1;
  }
}

bool alive::mulNeverOverflowsUnsigned(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  return knownLeadingZeros(A) + knownLeadingZeros(B) >= A->Width;
}

bool alive::mulNeverOverflowsSigned(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  return knownSignBits(A) + knownSignBits(B) > A->Width + 1;
}

APInt TermBuilder::evaluate(TermRef Root,
                            const std::map<unsigned, APInt> &VarAssign) const {
  std::map<TermRef, APInt> Memo;

  // Post-order evaluation with an explicit stack (terms can be deep).
  std::vector<TermRef> Stack{Root};
  while (!Stack.empty()) {
    TermRef T = Stack.back();
    if (Memo.count(T)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (TermRef Op : T->Ops)
      if (!Memo.count(Op)) {
        Stack.push_back(Op);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();

    APInt R;
    if (T->Kind == TermKind::Var) {
      auto It = VarAssign.find(T->VarId);
      R = It != VarAssign.end() ? It->second : APInt::getZero(T->Width);
      assert(R.getBitWidth() == T->Width && "assignment width mismatch");
    } else if (T->Kind == TermKind::Const) {
      R = T->ConstVal;
    } else {
      APInt Vals[3];
      for (size_t I = 0; I != T->Ops.size(); ++I)
        Vals[I] = Memo.at(T->Ops[I]);
      R = evaluateKind(T->Kind, T->Width, {Vals, T->Ops.size()});
    }
    Memo.emplace(T, R);
  }
  return Memo.at(Root);
}

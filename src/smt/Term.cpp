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

TermRef TermBuilder::mkBinary(TermKind Kind, TermRef A, TermRef B) {
  Term T;
  T.Kind = Kind;
  T.Width = A->Width;
  T.Ops = {A, B};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

namespace {
bool bothConst(TermRef A, TermRef B) { return A->isConst() && B->isConst(); }
} // namespace

#define MK_BIN(NAME, KIND, FOLD)                                              \
  TermRef TermBuilder::NAME(TermRef A, TermRef B) {                           \
    assert(A->Width == B->Width && "width mismatch");                         \
    if (bothConst(A, B))                                                      \
      return mkConst(FOLD);                                                   \
    return mkBinary(TermKind::KIND, A, B);                                    \
  }

MK_BIN(mkAnd, And, A->ConstVal & B->ConstVal)
MK_BIN(mkOr, Or, A->ConstVal | B->ConstVal)
MK_BIN(mkXor, Xor, A->ConstVal ^ B->ConstVal)
#undef MK_BIN

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
  if (bothConst(A, B))
    return mkConst(A->ConstVal + B->ConstVal);
  // (a - c) + c == a, in either operand order.
  if (A->Kind == TermKind::Sub && A->Ops[1] == B)
    return A->Ops[0];
  if (B->Kind == TermKind::Sub && B->Ops[1] == A)
    return B->Ops[0];
  return mkBinary(TermKind::Add, A, B);
}

TermRef TermBuilder::mkSub(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B))
    return mkConst(A->ConstVal - B->ConstVal);
  // a - (a - c) == c.
  if (B->Kind == TermKind::Sub && B->Ops[0] == A)
    return B->Ops[1];
  return mkBinary(TermKind::Sub, A, B);
}

TermRef TermBuilder::mkMul(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B))
    return mkConst(A->ConstVal * B->ConstVal);
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

#define MK_BIN_NOFOLD(NAME, KIND)                                             \
  TermRef TermBuilder::NAME(TermRef A, TermRef B) {                           \
    assert(A->Width == B->Width && "width mismatch");                         \
    return mkBinary(TermKind::KIND, A, B);                                    \
  }

TermRef TermBuilder::mkUDiv(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B) && !B->ConstVal.isZero())
    return mkConst(A->ConstVal.udiv(B->ConstVal));
  return mkBinary(TermKind::UDiv, A, B);
}

TermRef TermBuilder::mkURem(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B) && !B->ConstVal.isZero())
    return mkConst(A->ConstVal.urem(B->ConstVal));
  return mkBinary(TermKind::URem, A, B);
}

MK_BIN_NOFOLD(mkSDiv, SDiv)
MK_BIN_NOFOLD(mkSRem, SRem)
MK_BIN_NOFOLD(mkShl, Shl)
MK_BIN_NOFOLD(mkLShr, LShr)
MK_BIN_NOFOLD(mkAShr, AShr)
#undef MK_BIN_NOFOLD

TermRef TermBuilder::mkNot(TermRef A) {
  if (A->isConst())
    return mkConst(~A->ConstVal);
  // Involution: not(not(x)) == x.
  if (A->Kind == TermKind::Not)
    return A->Ops[0];
  Term T;
  T.Kind = TermKind::Not;
  T.Width = A->Width;
  T.Ops = {A};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkEq(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return mkTrue();
  if (bothConst(A, B))
    return mkBool(A->ConstVal == B->ConstVal);
  Term T;
  T.Kind = TermKind::Eq;
  T.Width = 1;
  T.Ops = {A, B};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkUlt(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B))
    return mkBool(A->ConstVal.ult(B->ConstVal));
  Term T;
  T.Kind = TermKind::Ult;
  T.Width = 1;
  T.Ops = {A, B};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkSlt(TermRef A, TermRef B) {
  assert(A->Width == B->Width && "width mismatch");
  if (bothConst(A, B))
    return mkBool(A->ConstVal.slt(B->ConstVal));
  Term T;
  T.Kind = TermKind::Slt;
  T.Width = 1;
  T.Ops = {A, B};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkIte(TermRef C, TermRef T, TermRef E) {
  assert(C->Width == 1 && "ite condition must be width 1");
  assert(T->Width == E->Width && "ite arm width mismatch");
  if (C->isConst())
    return C->ConstVal.isZero() ? E : T;
  if (T == E)
    return T;
  Term N;
  N.Kind = TermKind::Ite;
  N.Width = T->Width;
  N.Ops = {C, T, E};
  N.ConstVal = APInt::getZero(1);
  return intern(std::move(N));
}

TermRef TermBuilder::mkZExt(TermRef A, unsigned Width) {
  assert(Width >= A->Width);
  if (Width == A->Width)
    return A;
  if (A->isConst())
    return mkConst(A->ConstVal.zext(Width));
  Term T;
  T.Kind = TermKind::ZExt;
  T.Width = Width;
  T.Ops = {A};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkSExt(TermRef A, unsigned Width) {
  assert(Width >= A->Width);
  if (Width == A->Width)
    return A;
  if (A->isConst())
    return mkConst(A->ConstVal.sext(Width));
  Term T;
  T.Kind = TermKind::SExt;
  T.Width = Width;
  T.Ops = {A};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
}

TermRef TermBuilder::mkTrunc(TermRef A, unsigned Width) {
  assert(Width <= A->Width);
  if (Width == A->Width)
    return A;
  if (A->isConst())
    return mkConst(A->ConstVal.trunc(Width));
  Term T;
  T.Kind = TermKind::Trunc;
  T.Width = Width;
  T.Ops = {A};
  T.ConstVal = APInt::getZero(1);
  return intern(std::move(T));
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

    auto Val = [&](unsigned I) { return Memo.at(T->Ops[I]); };
    APInt R = APInt::getZero(T->Width);
    switch (T->Kind) {
    case TermKind::Var: {
      auto It = VarAssign.find(T->VarId);
      R = It != VarAssign.end() ? It->second : APInt::getZero(T->Width);
      assert(R.getBitWidth() == T->Width && "assignment width mismatch");
      break;
    }
    case TermKind::Const:
      R = T->ConstVal;
      break;
    case TermKind::And:
      R = Val(0) & Val(1);
      break;
    case TermKind::Or:
      R = Val(0) | Val(1);
      break;
    case TermKind::Xor:
      R = Val(0) ^ Val(1);
      break;
    case TermKind::Not:
      R = ~Val(0);
      break;
    case TermKind::Add:
      R = Val(0) + Val(1);
      break;
    case TermKind::Sub:
      R = Val(0) - Val(1);
      break;
    case TermKind::Mul:
      R = Val(0) * Val(1);
      break;
    case TermKind::UDiv:
      R = Val(1).isZero() ? APInt::getZero(T->Width) : Val(0).udiv(Val(1));
      break;
    case TermKind::URem:
      R = Val(1).isZero() ? Val(0) : Val(0).urem(Val(1));
      break;
    case TermKind::SDiv:
      R = Val(1).isZero() ? APInt::getZero(T->Width) : Val(0).sdiv(Val(1));
      break;
    case TermKind::SRem:
      R = Val(1).isZero() ? Val(0) : Val(0).srem(Val(1));
      break;
    case TermKind::Shl:
      R = Val(1).uge(APInt(T->Width, T->Width)) ? APInt::getZero(T->Width)
                                                : Val(0).shl(Val(1));
      break;
    case TermKind::LShr:
      R = Val(1).uge(APInt(T->Width, T->Width)) ? APInt::getZero(T->Width)
                                                : Val(0).lshr(Val(1));
      break;
    case TermKind::AShr: {
      if (Val(1).uge(APInt(T->Width, T->Width)))
        R = Val(0).isNegative() ? APInt::getAllOnes(T->Width)
                                : APInt::getZero(T->Width);
      else
        R = Val(0).ashr(Val(1));
      break;
    }
    case TermKind::Eq:
      R = APInt(1, Val(0) == Val(1));
      break;
    case TermKind::Ult:
      R = APInt(1, Val(0).ult(Val(1)));
      break;
    case TermKind::Slt:
      R = APInt(1, Val(0).slt(Val(1)));
      break;
    case TermKind::Ite:
      R = Val(0).isZero() ? Val(2) : Val(1);
      break;
    case TermKind::ZExt:
      R = Val(0).zext(T->Width);
      break;
    case TermKind::SExt:
      R = Val(0).sext(T->Width);
      break;
    case TermKind::Trunc:
      R = Val(0).trunc(T->Width);
      break;
    }
    Memo.emplace(T, R);
  }
  return Memo.at(Root);
}

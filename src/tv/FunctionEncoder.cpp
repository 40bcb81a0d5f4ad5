//===- tv/FunctionEncoder.cpp - IR -> bit-vector terms ---------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tv/FunctionEncoder.h"

#include "analysis/DominatorTree.h"
#include "ir/Interpreter.h"

#include <set>

using namespace alive;

namespace {

/// Bits of a scalar integer or pointer value.
unsigned scalarBits(const Type *T) {
  return T->isPointerTy() ? PtrBits : T->getIntegerBitWidth();
}

/// \p N rounded up to ArgBufferAlign.
uint64_t alignToBuffer(uint64_t N) {
  return (N + ArgBufferAlign - 1) / ArgBufferAlign * ArgBufferAlign;
}

} // namespace

bool FunctionEncoder::isSymbolicallySupported(const Function &F,
                                              std::string &Why) {
  if (F.isDeclaration()) {
    Why = "declaration";
    return false;
  }
  Type *RetTy = F.getReturnType();
  if (!RetTy->isVoidTy() && !RetTy->isIntegerTy()) {
    Why = "non-integer return type";
    return false;
  }
  // Every pointer argument's buffer must fit the trial address space, or
  // the concrete allocator would hand it the null address instead.
  uint64_t BufferEnd = Memory::FirstValidAddr;
  for (unsigned I = 0; I != F.getNumArgs(); ++I) {
    Type *T = F.getArg(I)->getType();
    if (T->isIntegerTy())
      continue;
    if (!T->isPointerTy()) {
      Why = "non-integer, non-pointer argument type";
      return false;
    }
    uint64_t Bytes = argBufferBytes(F.paramAttrs(I).Dereferenceable);
    if (Bytes > Memory::Size - BufferEnd) {
      Why = "pointer argument buffers exceed the trial address space";
      return false;
    }
    BufferEnd = alignToBuffer(BufferEnd + Bytes);
  }

  for (BasicBlock *BB : F.blocks()) {
    for (Instruction *I : BB->insts()) {
      switch (I->getKind()) {
      case Value::VK_LoadInst:
      case Value::VK_StoreInst:
      case Value::VK_AllocaInst:
      case Value::VK_GEPInst:
        Why = "memory operation";
        return false;
      case Value::VK_ExtractElementInst:
      case Value::VK_InsertElementInst:
      case Value::VK_ShuffleVectorInst:
        Why = "vector operation";
        return false;
      case Value::VK_CallInst: {
        const Function *Callee = cast<CallInst>(I)->getCallee();
        if (!Callee->isIntrinsic()) {
          Why = "call to non-intrinsic function";
          return false;
        }
        break;
      }
      default:
        if (I->getType()->isVectorTy() || I->getType()->isPointerTy()) {
          Why = "non-scalar-integer value";
          return false;
        }
        break;
      }
    }
  }

  // Loop-free check: DFS from entry looking for a back edge.
  std::map<const BasicBlock *, int> Color; // 0 white, 1 grey, 2 black
  struct Frame {
    const BasicBlock *BB;
    unsigned Next;
  };
  std::vector<Frame> Stack{{F.getEntryBlock(), 0}};
  Color[F.getEntryBlock()] = 1;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    std::vector<BasicBlock *> Succs = Top.BB->successors();
    if (Top.Next < Succs.size()) {
      const BasicBlock *S = Succs[Top.Next++];
      if (Color[S] == 1) {
        Why = "loop in CFG";
        return false;
      }
      if (Color[S] == 0) {
        Color[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    Color[Top.BB] = 2;
    Stack.pop_back();
  }
  return true;
}

std::vector<EncodedValue> FunctionEncoder::makeArguments(const Function &F) {
  std::vector<EncodedValue> Args;
  NullBits.assign(F.getNumArgs(), nullptr);
  // Where the next non-null pointer argument's buffer starts.
  TermRef NextBuffer = B.mkConst(PtrBits, Memory::FirstValidAddr);
  for (unsigned I = 0; I != F.getNumArgs(); ++I) {
    Type *T = F.getArg(I)->getType();
    std::string Name =
        F.getArg(I)->hasName() ? F.getArg(I)->getName() : std::to_string(I);
    EncodedValue EV;
    if (!T->isPointerTy()) {
      EV.Val = B.mkVar(T->getIntegerBitWidth(), "arg." + Name);
      EV.Poison = B.mkVar(1, "arg.poison." + Name);
      Args.push_back(EV);
      continue;
    }
    TermRef Stride = B.mkConst(
        PtrBits,
        alignToBuffer(argBufferBytes(F.paramAttrs(I).Dereferenceable)));
    EV.Val = NextBuffer;
    EV.Poison = B.mkFalse();
    if (!F.paramAttrs(I).NonNull) {
      TermRef Null = NullBits[I] = B.mkVar(1, "arg.null." + Name);
      TermRef Zero = B.mkConst(PtrBits, 0);
      EV.Val = B.mkIte(Null, Zero, NextBuffer);
      Stride = B.mkIte(Null, Zero, Stride);
    }
    NextBuffer = B.mkAdd(NextBuffer, Stride);
    Args.push_back(EV);
  }
  return Args;
}

EncodedValue FunctionEncoder::getValue(const Value *V) {
  if (const auto *CI = dyn_cast<ConstantInt>(V))
    return {B.mkConst(CI->getValue()), B.mkFalse()};
  if (isa<ConstantPoison>(V))
    return {B.mkConst(scalarBits(V->getType()), 0), B.mkTrue()};
  // Undef is modeled as the concrete value zero throughout this toolchain
  // (documented semantic narrowing; see DESIGN.md); an undef pointer is
  // therefore null.
  if (isa<ConstantUndef>(V) || isa<ConstantNullPtr>(V))
    return {B.mkConst(scalarBits(V->getType()), 0), B.mkFalse()};
  auto It = Values.find(V);
  assert(It != Values.end() && "value not yet encoded");
  return It->second;
}

EncodedValue FunctionEncoder::encodeBinary(const BinaryInst *Bin,
                                           TermRef PathCond, TermRef &UB) {
  EncodedValue L = getValue(Bin->getLHS());
  EncodedValue R = getValue(Bin->getRHS());
  unsigned W = L.Val->Width;
  TermRef Val = nullptr;
  TermRef Poison = B.mkOr(L.Poison, R.Poison);

  auto signBitOf = [&](TermRef T) {
    return B.mkTrunc(B.mkLShr(T, B.mkConst(W, W - 1)), 1);
  };

  switch (Bin->getBinOp()) {
  case BinaryInst::Add: {
    Val = B.mkAdd(L.Val, R.Val);
    if (Bin->hasNUW())
      Poison = B.mkOr(Poison, B.mkUlt(Val, L.Val));
    if (Bin->hasNSW()) {
      TermRef SameSign = B.mkEq(signBitOf(L.Val), signBitOf(R.Val));
      TermRef Flipped = B.mkNe(signBitOf(Val), signBitOf(L.Val));
      Poison = B.mkOr(Poison, B.mkAnd(SameSign, Flipped));
    }
    break;
  }
  case BinaryInst::Sub: {
    Val = B.mkSub(L.Val, R.Val);
    if (Bin->hasNUW())
      Poison = B.mkOr(Poison, B.mkUlt(L.Val, R.Val));
    if (Bin->hasNSW()) {
      TermRef DiffSign = B.mkNe(signBitOf(L.Val), signBitOf(R.Val));
      TermRef Flipped = B.mkNe(signBitOf(Val), signBitOf(L.Val));
      Poison = B.mkOr(Poison, B.mkAnd(DiffSign, Flipped));
    }
    break;
  }
  case BinaryInst::Mul: {
    Val = B.mkMul(L.Val, R.Val);
    // The flags' poison is a 2W-bit multiplier compared against the W-bit
    // one: multiplier equivalence, the worst case for CDCL. Drop it
    // before blasting where the operands' structure already rules the
    // overflow out.
    if (Bin->hasNUW() && !mulNeverOverflowsUnsigned(L.Val, R.Val)) {
      TermRef Wide =
          B.mkMul(B.mkZExt(L.Val, 2 * W), B.mkZExt(R.Val, 2 * W));
      Poison = B.mkOr(Poison, B.mkNe(Wide, B.mkZExt(Val, 2 * W)));
    }
    if (Bin->hasNSW() && !mulNeverOverflowsSigned(L.Val, R.Val)) {
      TermRef Wide =
          B.mkMul(B.mkSExt(L.Val, 2 * W), B.mkSExt(R.Val, 2 * W));
      Poison = B.mkOr(Poison, B.mkNe(Wide, B.mkSExt(Val, 2 * W)));
    }
    break;
  }
  case BinaryInst::UDiv:
  case BinaryInst::URem:
  case BinaryInst::SDiv:
  case BinaryInst::SRem: {
    // Poison or zero divisor is immediate UB; signed overflow too.
    TermRef DivUB =
        B.mkOr(R.Poison, B.mkEq(R.Val, B.mkConst(W, 0)));
    bool Signed = Bin->getBinOp() == BinaryInst::SDiv ||
                  Bin->getBinOp() == BinaryInst::SRem;
    if (Signed) {
      TermRef MinOverNeg1 = B.mkAnd(
          B.mkAnd(B.mkEq(L.Val, B.mkConst(APInt::getSignedMinValue(W))),
                  B.mkEq(R.Val, B.mkConst(APInt::getAllOnes(W)))),
          B.mkNot(L.Poison));
      DivUB = B.mkOr(DivUB, MinOverNeg1);
    }
    UB = B.mkOr(UB, B.mkAnd(PathCond, DivUB));
    Poison = L.Poison;
    switch (Bin->getBinOp()) {
    case BinaryInst::UDiv:
      Val = B.mkUDiv(L.Val, R.Val);
      if (Bin->isExact())
        Poison = B.mkOr(
            Poison, B.mkNe(B.mkURem(L.Val, R.Val), B.mkConst(W, 0)));
      break;
    case BinaryInst::URem:
      Val = B.mkURem(L.Val, R.Val);
      break;
    case BinaryInst::SDiv:
      Val = B.mkSDiv(L.Val, R.Val);
      if (Bin->isExact())
        Poison = B.mkOr(
            Poison, B.mkNe(B.mkSRem(L.Val, R.Val), B.mkConst(W, 0)));
      break;
    case BinaryInst::SRem:
      Val = B.mkSRem(L.Val, R.Val);
      break;
    default:
      break;
    }
    break;
  }
  case BinaryInst::Shl:
  case BinaryInst::LShr:
  case BinaryInst::AShr: {
    TermRef Oversize = B.mkNot(B.mkUlt(R.Val, B.mkConst(W, W)));
    Poison = B.mkOr(Poison, Oversize);
    switch (Bin->getBinOp()) {
    case BinaryInst::Shl:
      Val = B.mkShl(L.Val, R.Val);
      if (Bin->hasNUW())
        Poison = B.mkOr(Poison, B.mkNe(B.mkLShr(Val, R.Val), L.Val));
      if (Bin->hasNSW())
        Poison = B.mkOr(Poison, B.mkNe(B.mkAShr(Val, R.Val), L.Val));
      break;
    case BinaryInst::LShr:
      Val = B.mkLShr(L.Val, R.Val);
      if (Bin->isExact())
        Poison = B.mkOr(Poison, B.mkNe(B.mkShl(Val, R.Val), L.Val));
      break;
    case BinaryInst::AShr:
      Val = B.mkAShr(L.Val, R.Val);
      if (Bin->isExact())
        Poison = B.mkOr(Poison, B.mkNe(B.mkShl(Val, R.Val), L.Val));
      break;
    default:
      break;
    }
    break;
  }
  case BinaryInst::And:
    Val = B.mkAnd(L.Val, R.Val);
    break;
  case BinaryInst::Or:
    Val = B.mkOr(L.Val, R.Val);
    break;
  case BinaryInst::Xor:
    Val = B.mkXor(L.Val, R.Val);
    break;
  case BinaryInst::NumBinOps:
    assert(false);
  }
  return {Val, Poison};
}

EncodedValue FunctionEncoder::encodeIntrinsic(const CallInst *C,
                                              TermRef PathCond, TermRef &UB) {
  IntrinsicID ID = C->getCallee()->getIntrinsicID();
  std::vector<EncodedValue> A;
  for (unsigned I = 0; I != C->getNumArgs(); ++I)
    A.push_back(getValue(C->getArg(I)));

  if (ID == IntrinsicID::Assume) {
    // assume(false) and assume(poison) are UB.
    UB = B.mkOr(UB, B.mkAnd(PathCond,
                            B.mkOr(A[0].Poison, B.mkNot(A[0].Val))));
    return {B.mkConst(1, 0), B.mkFalse()};
  }

  unsigned W = C->getType()->getIntegerBitWidth();
  TermRef Poison = B.mkFalse();
  for (const EncodedValue &E : A)
    Poison = B.mkOr(Poison, E.Poison);
  TermRef X = A[0].Val;
  TermRef Val = nullptr;

  switch (ID) {
  case IntrinsicID::SMin:
    Val = B.mkIte(B.mkSlt(X, A[1].Val), X, A[1].Val);
    break;
  case IntrinsicID::SMax:
    Val = B.mkIte(B.mkSlt(X, A[1].Val), A[1].Val, X);
    break;
  case IntrinsicID::UMin:
    Val = B.mkIte(B.mkUlt(X, A[1].Val), X, A[1].Val);
    break;
  case IntrinsicID::UMax:
    Val = B.mkIte(B.mkUlt(X, A[1].Val), A[1].Val, X);
    break;
  case IntrinsicID::Abs: {
    TermRef IsMin = B.mkEq(X, B.mkConst(APInt::getSignedMinValue(W)));
    Poison = B.mkOr(Poison, B.mkAnd(IsMin, B.mkNe(A[1].Val,
                                                  B.mkConst(1, 0))));
    Val = B.mkIte(B.mkSlt(X, B.mkConst(W, 0)),
                  B.mkSub(B.mkConst(W, 0), X), X);
    break;
  }
  case IntrinsicID::BSwap: {
    unsigned Bytes = W / 8;
    Val = B.mkConst(W, 0);
    for (unsigned I = 0; I != Bytes; ++I) {
      TermRef Byte = B.mkAnd(B.mkLShr(X, B.mkConst(W, I * 8)),
                             B.mkConst(W, 0xFF));
      Val = B.mkOr(Val, B.mkShl(Byte, B.mkConst(W, (Bytes - 1 - I) * 8)));
    }
    break;
  }
  case IntrinsicID::CtPop: {
    Val = B.mkConst(W, 0);
    for (unsigned I = 0; I != W; ++I)
      Val = B.mkAdd(Val, B.mkAnd(B.mkLShr(X, B.mkConst(W, I)),
                                 B.mkConst(W, 1)));
    break;
  }
  case IntrinsicID::Ctlz:
  case IntrinsicID::Cttz: {
    TermRef IsZero = B.mkEq(X, B.mkConst(W, 0));
    Poison =
        B.mkOr(Poison, B.mkAnd(IsZero, B.mkNe(A[1].Val, B.mkConst(1, 0))));
    Val = B.mkConst(W, W);
    if (ID == IntrinsicID::Ctlz) {
      // Highest set bit wins: iterate LSB->MSB so later (higher) bits
      // override earlier ones.
      for (unsigned I = 0; I != W; ++I) {
        TermRef Bit = B.mkTrunc(B.mkLShr(X, B.mkConst(W, I)), 1);
        Val = B.mkIte(Bit, B.mkConst(W, W - 1 - I), Val);
      }
    } else {
      // Lowest set bit wins: iterate MSB->LSB.
      for (unsigned I = W; I-- > 0;) {
        TermRef Bit = B.mkTrunc(B.mkLShr(X, B.mkConst(W, I)), 1);
        Val = B.mkIte(Bit, B.mkConst(W, I), Val);
      }
    }
    break;
  }
  case IntrinsicID::UAddSat: {
    TermRef Sum = B.mkAdd(X, A[1].Val);
    Val = B.mkIte(B.mkUlt(Sum, X), B.mkConst(APInt::getAllOnes(W)), Sum);
    break;
  }
  case IntrinsicID::USubSat:
    Val = B.mkIte(B.mkUlt(X, A[1].Val), B.mkConst(W, 0),
                  B.mkSub(X, A[1].Val));
    break;
  case IntrinsicID::SAddSat:
  case IntrinsicID::SSubSat: {
    TermRef Wide = ID == IntrinsicID::SAddSat
                       ? B.mkAdd(B.mkSExt(X, W + 1), B.mkSExt(A[1].Val, W + 1))
                       : B.mkSub(B.mkSExt(X, W + 1), B.mkSExt(A[1].Val, W + 1));
    TermRef Max = B.mkConst(APInt::getSignedMaxValue(W).sext(W + 1));
    TermRef Min = B.mkConst(APInt::getSignedMinValue(W).sext(W + 1));
    TermRef Clamped = B.mkIte(B.mkSlt(Max, Wide), Max,
                              B.mkIte(B.mkSlt(Wide, Min), Min, Wide));
    Val = B.mkTrunc(Clamped, W);
    break;
  }
  case IntrinsicID::Fshl:
  case IntrinsicID::Fshr: {
    TermRef Sm = B.mkURem(A[2].Val, B.mkConst(W, W));
    TermRef IsZero = B.mkEq(Sm, B.mkConst(W, 0));
    TermRef WminusS = B.mkSub(B.mkConst(W, W), Sm);
    if (ID == IntrinsicID::Fshl) {
      TermRef Rot =
          B.mkOr(B.mkShl(X, Sm), B.mkLShr(A[1].Val, WminusS));
      Val = B.mkIte(IsZero, X, Rot);
    } else {
      TermRef Rot =
          B.mkOr(B.mkShl(X, WminusS), B.mkLShr(A[1].Val, Sm));
      Val = B.mkIte(IsZero, A[1].Val, Rot);
    }
    break;
  }
  case IntrinsicID::Assume:
  case IntrinsicID::NotIntrinsic:
    assert(false);
  }
  return {Val, Poison};
}

EncodedValue FunctionEncoder::encodeInstruction(const Instruction *I,
                                                TermRef PathCond,
                                                TermRef &UB) {
  switch (I->getKind()) {
  case Value::VK_BinaryInst:
    return encodeBinary(cast<BinaryInst>(I), PathCond, UB);
  case Value::VK_ICmpInst: {
    const auto *C = cast<ICmpInst>(I);
    EncodedValue L = getValue(C->getLHS()), R = getValue(C->getRHS());
    TermRef V = nullptr;
    switch (C->getPredicate()) {
    case ICmpInst::EQ:
      V = B.mkEq(L.Val, R.Val);
      break;
    case ICmpInst::NE:
      V = B.mkNe(L.Val, R.Val);
      break;
    case ICmpInst::UGT:
      V = B.mkUlt(R.Val, L.Val);
      break;
    case ICmpInst::UGE:
      V = B.mkNot(B.mkUlt(L.Val, R.Val));
      break;
    case ICmpInst::ULT:
      V = B.mkUlt(L.Val, R.Val);
      break;
    case ICmpInst::ULE:
      V = B.mkNot(B.mkUlt(R.Val, L.Val));
      break;
    case ICmpInst::SGT:
      V = B.mkSlt(R.Val, L.Val);
      break;
    case ICmpInst::SGE:
      V = B.mkNot(B.mkSlt(L.Val, R.Val));
      break;
    case ICmpInst::SLT:
      V = B.mkSlt(L.Val, R.Val);
      break;
    case ICmpInst::SLE:
      V = B.mkNot(B.mkSlt(R.Val, L.Val));
      break;
    case ICmpInst::NumPreds:
      assert(false);
    }
    return {V, B.mkOr(L.Poison, R.Poison)};
  }
  case Value::VK_SelectInst: {
    const auto *S = cast<SelectInst>(I);
    EncodedValue C = getValue(S->getCondition());
    EncodedValue T = getValue(S->getTrueValue());
    EncodedValue E = getValue(S->getFalseValue());
    TermRef Val = B.mkIte(C.Val, T.Val, E.Val);
    TermRef Poison =
        B.mkOr(C.Poison, B.mkIte(C.Val, T.Poison, E.Poison));
    return {Val, Poison};
  }
  case Value::VK_CastInst: {
    const auto *C = cast<CastInst>(I);
    EncodedValue S = getValue(C->getSrc());
    unsigned W = C->getType()->getIntegerBitWidth();
    TermRef V = nullptr;
    switch (C->getCastOp()) {
    case CastInst::Trunc:
      V = B.mkTrunc(S.Val, W);
      break;
    case CastInst::ZExt:
      V = B.mkZExt(S.Val, W);
      break;
    case CastInst::SExt:
      V = B.mkSExt(S.Val, W);
      break;
    }
    return {V, S.Poison};
  }
  case Value::VK_FreezeInst: {
    const auto *Fr = cast<FreezeInst>(I);
    EncodedValue S = getValue(Fr->getSrc());
    // Frozen poison becomes an unconstrained-but-fixed value. The fresh
    // variable is keyed by the frozen value's encoding so both sides of a
    // refinement query agree on it (deterministic freeze). A SAT model
    // relying on it is still confirmed concretely before being reported.
    TermRef &Fresh = FreezeVars[{S.Val, S.Poison}];
    if (!Fresh)
      Fresh = B.mkVar(S.Val->Width, "freeze");
    return {B.mkIte(S.Poison, Fresh, S.Val), B.mkFalse()};
  }
  case Value::VK_CallInst:
    return encodeIntrinsic(cast<CallInst>(I), PathCond, UB);
  default:
    assert(false && "instruction outside symbolic fragment");
    return {};
  }
}

EncodedFunction FunctionEncoder::encode(const Function &F,
                                        const std::vector<EncodedValue> &Args) {
  assert(Args.size() == F.getNumArgs());
  Values.clear();
  for (unsigned I = 0; I != F.getNumArgs(); ++I)
    Values[F.getArg(I)] = Args[I];

  EncodedFunction Out;
  Out.UB = B.mkFalse();

  // Passing poison to a noundef parameter is UB.
  for (unsigned I = 0; I != F.getNumArgs(); ++I)
    if (F.paramAttrs(I).NoUndef)
      Out.UB = B.mkOr(Out.UB, Args[I].Poison);

  // Path conditions. RPO over the loop-free CFG is a topological order.
  DominatorTree DT(F);
  std::map<const BasicBlock *, TermRef> PathCond;
  // Edge conditions, filled as terminators are encoded.
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, TermRef> Edge;

  TermRef RetVal = nullptr, RetPoison = nullptr, AnyRet = B.mkFalse();
  bool IsVoid = F.getReturnType()->isVoidTy();
  if (!IsVoid) {
    unsigned W = F.getReturnType()->getIntegerBitWidth();
    RetVal = B.mkConst(W, 0);
    RetPoison = B.mkFalse();
  }

  for (const BasicBlock *BB : DT.rpo()) {
    TermRef PC;
    if (BB == F.getEntryBlock()) {
      PC = B.mkTrue();
    } else {
      PC = B.mkFalse();
      for (const BasicBlock *Pred : F.predecessors(BB)) {
        auto It = Edge.find({Pred, BB});
        if (It != Edge.end())
          PC = B.mkOr(PC, It->second);
      }
    }
    PathCond[BB] = PC;

    // Phis first: select by incoming edge condition.
    for (Instruction *I : BB->insts()) {
      const auto *Phi = dyn_cast<PhiNode>(I);
      if (!Phi)
        break;
      unsigned W = Phi->getType()->getIntegerBitWidth();
      TermRef Val = B.mkConst(W, 0), Poison = B.mkFalse();
      for (unsigned K = 0; K != Phi->getNumIncoming(); ++K) {
        auto It = Edge.find({Phi->getIncomingBlock(K), BB});
        TermRef Cond = It != Edge.end() ? It->second : B.mkFalse();
        EncodedValue In = getValue(Phi->getIncomingValue(K));
        Val = B.mkIte(Cond, In.Val, Val);
        Poison = B.mkIte(Cond, In.Poison, Poison);
      }
      Values[Phi] = {Val, Poison};
    }

    for (Instruction *I : BB->insts()) {
      if (isa<PhiNode>(I))
        continue;
      if (I->isTerminator())
        break;
      Values[I] = encodeInstruction(I, PC, Out.UB);
    }

    const Instruction *Term = BB->getTerminator();
    switch (Term->getKind()) {
    case Value::VK_ReturnInst: {
      const auto *R = cast<ReturnInst>(Term);
      if (!IsVoid) {
        EncodedValue V = getValue(R->getReturnValue());
        RetVal = B.mkIte(PC, V.Val, RetVal);
        RetPoison = B.mkIte(PC, V.Poison, RetPoison);
      }
      AnyRet = B.mkOr(AnyRet, PC);
      break;
    }
    case Value::VK_BranchInst: {
      const auto *Br = cast<BranchInst>(Term);
      if (!Br->isConditional()) {
        auto Key = std::make_pair(BB, (const BasicBlock *)Br->getSuccessor(0));
        TermRef &E = Edge[Key];
        E = E ? B.mkOr(E, PC) : PC;
        break;
      }
      EncodedValue C = getValue(Br->getCondition());
      // Branch on poison is UB.
      Out.UB = B.mkOr(Out.UB, B.mkAnd(PC, C.Poison));
      auto KeyT = std::make_pair(BB, (const BasicBlock *)Br->getSuccessor(0));
      auto KeyF = std::make_pair(BB, (const BasicBlock *)Br->getSuccessor(1));
      TermRef CondT = B.mkAnd(PC, C.Val);
      TermRef CondF = B.mkAnd(PC, B.mkNot(C.Val));
      TermRef &ET = Edge[KeyT];
      ET = ET ? B.mkOr(ET, CondT) : CondT;
      TermRef &EF = Edge[KeyF];
      EF = EF ? B.mkOr(EF, CondF) : CondF;
      break;
    }
    case Value::VK_SwitchInst: {
      const auto *Sw = cast<SwitchInst>(Term);
      EncodedValue C = getValue(Sw->getCondition());
      Out.UB = B.mkOr(Out.UB, B.mkAnd(PC, C.Poison));
      TermRef NoneMatched = B.mkTrue();
      for (unsigned K = 0; K != Sw->getNumCases(); ++K) {
        TermRef Match = B.mkEq(C.Val, B.mkConst(Sw->getCaseValue(K)));
        TermRef Cond = B.mkAnd(PC, B.mkAnd(NoneMatched, Match));
        auto Key = std::make_pair(BB, (const BasicBlock *)Sw->getCaseDest(K));
        TermRef &E = Edge[Key];
        E = E ? B.mkOr(E, Cond) : Cond;
        NoneMatched = B.mkAnd(NoneMatched, B.mkNot(Match));
      }
      TermRef DefCond = B.mkAnd(PC, NoneMatched);
      auto Key = std::make_pair(BB, (const BasicBlock *)Sw->getDefaultDest());
      TermRef &E = Edge[Key];
      E = E ? B.mkOr(E, DefCond) : DefCond;
      break;
    }
    case Value::VK_UnreachableInst:
      // Reaching unreachable is UB.
      Out.UB = B.mkOr(Out.UB, PC);
      break;
    default:
      assert(false && "unknown terminator");
    }
  }

  // Loop-free functions always either return or hit UB; paths that never
  // return are UB (unreachable) so the default RetVal on them is benign.
  Out.RetVal = IsVoid ? nullptr : RetVal;
  Out.RetPoison = IsVoid ? nullptr : RetPoison;
  return Out;
}

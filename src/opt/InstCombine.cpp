//===- opt/InstCombine.cpp - Peephole combining ----------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The InstCombine stand-in: a worklist of peephole rewrites modeled on
/// real InstCombine rules. Hosts five seeded Table I defects:
///
///   53252 (miscompile): canonicalizeClampLike forgets to update the
///     predicate when the range compare arrives negated through
///     "xor %cmp, true" — the exact shape of the paper's Figure 1.
///   50693 (miscompile): "opposite shifts of -1" folded to -1 instead of
///     to (-1 lshr x).
///   59836 (miscompile): the (zext a) * (zext b) no-overflow inference
///     skips its width precondition and plants nuw wrongly.
///   52884 (crash): smax range analysis chokes when the feeding add
///     carries BOTH nuw and nsw (paper Listing 15).
///   56463 (crash): a call argument with a "bad signature" (poison
///     pointer) crashes call simplification.
///
//===----------------------------------------------------------------------===//

#include "analysis/KnownBits.h"
#include "opt/BugInjection.h"
#include "opt/OptUtils.h"
#include "opt/Pass.h"
#include "opt/RuleIDs.h"

using namespace alive;

namespace {

class InstCombinePass : public Pass {
public:
  std::string getName() const override { return "instcombine"; }

  bool runOnFunction(Function &F) override {
    M = F.getParent();
    bool Changed = false;
    bool LocalChange = true;
    unsigned Rounds = 0;
    while (LocalChange && Rounds++ < 8) {
      LocalChange = false;
      for (BasicBlock *BB : F.blocks()) {
        for (unsigned Idx = 0; Idx != BB->size(); ++Idx) {
          Instruction *I = BB->getInst(Idx);
          if (I->isTerminator())
            continue;
          if (combine(I, BB, Idx)) {
            LocalChange = Changed = true;
            // Restart the block: positions may have shifted.
            Idx = (unsigned)-1;
          }
        }
      }
      Changed |= removeDeadInstructions(F);
    }
    return Changed;
  }

private:
  Module *M = nullptr;

  /// Inserts \p NewI immediately before position \p Idx in \p BB.
  Instruction *insertBefore(BasicBlock *BB, unsigned Idx,
                            std::unique_ptr<Instruction> NewI) {
    return BB->insert(Idx, std::move(NewI));
  }

  ConstantInt *intC(Type *Ty, const APInt &V) {
    return M->getConstants().getInt(cast<IntegerType>(Ty), V);
  }

  bool combine(Instruction *I, BasicBlock *BB, unsigned Idx);
  bool combineBinary(BinaryInst *B, BasicBlock *BB, unsigned Idx);
  bool combineICmp(ICmpInst *C, BasicBlock *BB, unsigned Idx);
  bool combineSelect(SelectInst *S, BasicBlock *BB, unsigned Idx);
  bool combineCast(CastInst *C, BasicBlock *BB, unsigned Idx);
  bool combineCall(CallInst *C, BasicBlock *BB, unsigned Idx);
};

bool InstCombinePass::combine(Instruction *I, BasicBlock *BB, unsigned Idx) {
  switch (I->getKind()) {
  case Value::VK_BinaryInst:
    return combineBinary(cast<BinaryInst>(I), BB, Idx);
  case Value::VK_ICmpInst:
    return combineICmp(cast<ICmpInst>(I), BB, Idx);
  case Value::VK_SelectInst:
    return combineSelect(cast<SelectInst>(I), BB, Idx);
  case Value::VK_CastInst:
    return combineCast(cast<CastInst>(I), BB, Idx);
  case Value::VK_CallInst:
    return combineCall(cast<CallInst>(I), BB, Idx);
  default:
    return false;
  }
}

bool InstCombinePass::combineBinary(BinaryInst *B, BasicBlock *BB,
                                    unsigned Idx) {
  if (!B->getType()->isIntegerTy())
    return false;
  Value *L = B->getLHS(), *R = B->getRHS();
  unsigned W = B->getType()->getIntegerBitWidth();
  const ConstantInt *RC = matchConstInt(R);
  const ConstantInt *LC = matchConstInt(L);

  // Canonicalize constants to the RHS of commutative operations.
  if (BinaryInst::isCommutative(B->getBinOp()) && LC && !RC) {
    B->setOperand(0, R);
    B->setOperand(1, L);
    fireRule(RuleID::IC_CommuteConst);
    return true;
  }

  switch (B->getBinOp()) {
  case BinaryInst::Add: {
    // add x, x -> shl x, 1 (nuw/nsw carry over). Not at width 1: there
    // the shift amount equals the bit width, so the shl is always poison
    // while add i1 x, x is 0 for x = 0.
    if (L == R && W > 1) {
      auto *Shl = new BinaryInst(BinaryInst::Shl, L,
                                 intC(B->getType(), APInt(W, 1)));
      Shl->setNUW(B->hasNUW());
      Shl->setNSW(B->hasNSW());
      Shl->setName(B->getName());
      insertBefore(BB, Idx, std::unique_ptr<Instruction>(Shl));
      replaceAndErase(B, Shl);
      fireRule(RuleID::IC_AddSelfShl);
      return true;
    }
    // add (xor x, -1), 1 -> sub 0, x.
    if (auto *X = dyn_cast<BinaryInst>(L)) {
      if (X->getBinOp() == BinaryInst::Xor && RC && RC->isOne()) {
        const ConstantInt *AllOnes = matchConstInt(X->getRHS());
        if (AllOnes && AllOnes->isAllOnes()) {
          auto *Neg = new BinaryInst(
              BinaryInst::Sub, intC(B->getType(), APInt::getZero(W)),
              X->getLHS());
          Neg->setName(B->getName());
          insertBefore(BB, Idx, std::unique_ptr<Instruction>(Neg));
          replaceAndErase(B, Neg);
          fireRule(RuleID::IC_AddNotToSub);
          return true;
        }
      }
    }
    // add (add x, C1), C2 -> add x, (C1+C2), dropping flags.
    if (RC) {
      if (auto *Inner = dyn_cast<BinaryInst>(L)) {
        const ConstantInt *C1 = matchConstInt(Inner->getRHS());
        if (Inner->getBinOp() == BinaryInst::Add && C1) {
          B->setOperand(0, Inner->getLHS());
          B->setOperand(1,
                        intC(B->getType(), C1->getValue() + RC->getValue()));
          B->clearFlags();
          fireRule(RuleID::IC_AddConstMerge);
          return true;
        }
      }
    }
    break;
  }
  case BinaryInst::Sub: {
    // (x + y) - y -> x  (more defined than the sub: refinement).
    if (auto *AddI = dyn_cast<BinaryInst>(L)) {
      if (AddI->getBinOp() == BinaryInst::Add) {
        if (AddI->getRHS() == R) {
          replaceAndErase(B, AddI->getLHS());
          fireRule(RuleID::IC_SubOfAdd);
          return true;
        }
        if (AddI->getLHS() == R) {
          replaceAndErase(B, AddI->getRHS());
          fireRule(RuleID::IC_SubOfAdd);
          return true;
        }
      }
    }
    break;
  }
  case BinaryInst::Mul: {
    // mul x, 2^C -> shl x, C. nuw carries over; nsw only for C < W-1:
    // mul nsw x, INT_MIN is defined at x = 1, shl nsw x, W-1 is poison.
    if (RC && RC->getValue().isPowerOf2() && !RC->isOne()) {
      unsigned ShAmt = RC->getValue().logBase2();
      auto *Shl = new BinaryInst(BinaryInst::Shl, L,
                                 intC(B->getType(), APInt(W, ShAmt)));
      Shl->setNUW(B->hasNUW());
      Shl->setNSW(B->hasNSW() && ShAmt < W - 1);
      Shl->setName(B->getName());
      insertBefore(BB, Idx, std::unique_ptr<Instruction>(Shl));
      replaceAndErase(B, Shl);
      fireRule(RuleID::IC_MulPow2Shl);
      return true;
    }
    // (zext a) * (zext b) cannot overflow unsigned when the source widths
    // sum to at most the result width: infer nuw. Table I bug 59836: "the
    // precondition of a peephole optimization is too weak" — the buggy
    // variant skips the width check entirely.
    if (!B->hasNUW()) {
      auto *ZL = dyn_cast<CastInst>(L);
      auto *ZR = dyn_cast<CastInst>(R);
      if (ZL && ZR && ZL->getCastOp() == CastInst::ZExt &&
          ZR->getCastOp() == CastInst::ZExt) {
        unsigned S1 = ZL->getSrc()->getType()->getIntegerBitWidth();
        unsigned S2 = ZR->getSrc()->getType()->getIntegerBitWidth();
        bool Sound = S1 + S2 <= W;
        if (Sound || isBugEnabled(BugId::PR59836)) {
          B->setNUW(true);
          fireRule(RuleID::IC_MulZextNuw);
          return true;
        }
      }
    }
    break;
  }
  case BinaryInst::UDiv:
    // udiv x, 2^C -> lshr x, C (exact carries over).
    if (RC && RC->getValue().isPowerOf2() && !RC->isOne()) {
      auto *Shr = new BinaryInst(
          BinaryInst::LShr, L,
          intC(B->getType(), APInt(W, RC->getValue().logBase2())));
      Shr->setExact(B->isExact());
      Shr->setName(B->getName());
      insertBefore(BB, Idx, std::unique_ptr<Instruction>(Shr));
      replaceAndErase(B, Shr);
      fireRule(RuleID::IC_UDivPow2LShr);
      return true;
    }
    break;
  case BinaryInst::URem:
    // urem x, 2^C -> and x, 2^C-1.
    if (RC && RC->getValue().isPowerOf2() && !RC->isOne()) {
      auto *And = new BinaryInst(
          BinaryInst::And, L,
          intC(B->getType(), RC->getValue() - APInt::getOne(W)));
      And->setName(B->getName());
      insertBefore(BB, Idx, std::unique_ptr<Instruction>(And));
      replaceAndErase(B, And);
      fireRule(RuleID::IC_URemPow2And);
      return true;
    }
    break;
  case BinaryInst::Xor: {
    // xor (xor x, -1), -1 -> x.
    if (RC && RC->isAllOnes()) {
      if (auto *Inner = dyn_cast<BinaryInst>(L)) {
        const ConstantInt *IC = matchConstInt(Inner->getRHS());
        if (Inner->getBinOp() == BinaryInst::Xor && IC && IC->isAllOnes()) {
          replaceAndErase(B, Inner->getLHS());
          fireRule(RuleID::IC_XorSelfZero);
          return true;
        }
      }
    }
    // (x ^ y) ^ y -> x.
    if (auto *Inner = dyn_cast<BinaryInst>(L)) {
      if (Inner->getBinOp() == BinaryInst::Xor) {
        if (Inner->getRHS() == R) {
          replaceAndErase(B, Inner->getLHS());
          fireRule(RuleID::IC_XorChainCancel);
          return true;
        }
        if (Inner->getLHS() == R) {
          replaceAndErase(B, Inner->getRHS());
          fireRule(RuleID::IC_XorChainCancel);
          return true;
        }
      }
    }
    break;
  }
  case BinaryInst::And: {
    // x & (x | y) -> x (absorption).
    if (auto *OrI = dyn_cast<BinaryInst>(R))
      if (OrI->getBinOp() == BinaryInst::Or &&
          (OrI->getLHS() == L || OrI->getRHS() == L)) {
        replaceAndErase(B, L);
        fireRule(RuleID::IC_AndAbsorb);
        return true;
      }
    if (auto *OrI = dyn_cast<BinaryInst>(L))
      if (OrI->getBinOp() == BinaryInst::Or &&
          (OrI->getLHS() == R || OrI->getRHS() == R)) {
        replaceAndErase(B, R);
        fireRule(RuleID::IC_AndAbsorb);
        return true;
      }
    break;
  }
  case BinaryInst::Or: {
    // x | (x & y) -> x.
    if (auto *AndI = dyn_cast<BinaryInst>(R))
      if (AndI->getBinOp() == BinaryInst::And &&
          (AndI->getLHS() == L || AndI->getRHS() == L)) {
        replaceAndErase(B, L);
        fireRule(RuleID::IC_OrAbsorb);
        return true;
      }
    // or of disjoint values -> add is not done here; instead: if no common
    // bits, keep (canonical). Nothing.
    break;
  }
  case BinaryInst::LShr: {
    // lshr (shl -1, x), x: Table I bug 50693, "missing a simplification of
    // the opposite shifts of -1". Correct: (-1 << x) >> x == -1 >> x.
    // Buggy: folded to -1.
    if (auto *ShlI = dyn_cast<BinaryInst>(L)) {
      const ConstantInt *AllOnes = matchConstInt(ShlI->getLHS());
      if (ShlI->getBinOp() == BinaryInst::Shl && AllOnes &&
          AllOnes->isAllOnes() && ShlI->getRHS() == R && !ShlI->hasNUW() &&
          !ShlI->hasNSW() && !B->isExact()) {
        if (isBugEnabled(BugId::PR50693)) {
          replaceAndErase(B, intC(B->getType(), APInt::getAllOnes(W)));
          fireRule(RuleID::IC_LShrShlAllOnes);
          return true;
        }
        auto *Shr = new BinaryInst(BinaryInst::LShr,
                                   intC(B->getType(), APInt::getAllOnes(W)),
                                   R);
        Shr->setName(B->getName());
        insertBefore(BB, Idx, std::unique_ptr<Instruction>(Shr));
        replaceAndErase(B, Shr);
        fireRule(RuleID::IC_LShrShlAllOnes);
        return true;
      }
    }
    // (x << C) >>u C -> x & (-1 >>u C).
    if (RC && RC->getValue().ult(APInt(W, W))) {
      if (auto *ShlI = dyn_cast<BinaryInst>(L)) {
        const ConstantInt *SC = matchConstInt(ShlI->getRHS());
        if (ShlI->getBinOp() == BinaryInst::Shl && SC &&
            SC->getValue() == RC->getValue() && !B->isExact()) {
          unsigned C = (unsigned)RC->getValue().getZExtValue();
          auto *And = new BinaryInst(
              BinaryInst::And, ShlI->getLHS(),
              intC(B->getType(), APInt::getLowBitsSet(W, W - C)));
          And->setName(B->getName());
          insertBefore(BB, Idx, std::unique_ptr<Instruction>(And));
          replaceAndErase(B, And);
          fireRule(RuleID::IC_ShlLShrToAnd);
          return true;
        }
      }
    }
    break;
  }
  default:
    break;
  }

  // add x, y with no common bits -> or x, y (canonical in LLVM; enables
  // further bit tricks). Sound thanks to KnownBits.
  if (B->getBinOp() == BinaryInst::Add && !B->hasNUW() && !B->hasNSW() &&
      haveNoCommonBits(L, R)) {
    auto *Or = new BinaryInst(BinaryInst::Or, L, R);
    Or->setName(B->getName());
    insertBefore(BB, Idx, std::unique_ptr<Instruction>(Or));
    replaceAndErase(B, Or);
    fireRule(RuleID::IC_AddNoCommonBitsOr);
    return true;
  }
  return false;
}

bool InstCombinePass::combineICmp(ICmpInst *C, BasicBlock *BB, unsigned Idx) {
  // Canonicalize: constant to the RHS.
  if (isa<ConstantInt>(C->getLHS()) && !isa<Constant>(C->getRHS())) {
    Value *L = C->getLHS(), *R = C->getRHS();
    C->setOperand(0, R);
    C->setOperand(1, L);
    C->setPredicate(ICmpInst::getSwappedPredicate(C->getPredicate()));
    fireRule(RuleID::IC_ICmpCommute);
    return true;
  }
  if (!C->getLHS()->getType()->isIntegerTy())
    return false;
  unsigned W = C->getLHS()->getType()->getIntegerBitWidth();
  const ConstantInt *RC = matchConstInt(C->getRHS());

  // icmp ugt x, C -> icmp uge x, C+1 is NOT canonical in LLVM; instead
  // canonicalize strict vs non-strict: uge x, C -> ugt x, C-1 (C != 0).
  if (RC) {
    const APInt &V = RC->getValue();
    switch (C->getPredicate()) {
    case ICmpInst::UGE:
      if (!V.isZero()) {
        C->setPredicate(ICmpInst::UGT);
        C->setOperand(1, intC(C->getLHS()->getType(),
                              V - APInt::getOne(W)));
        fireRule(RuleID::IC_ICmpStrictness);
        return true;
      }
      break;
    case ICmpInst::ULE:
      if (!V.isAllOnes()) {
        C->setPredicate(ICmpInst::ULT);
        C->setOperand(1,
                      intC(C->getLHS()->getType(), V + APInt::getOne(W)));
        fireRule(RuleID::IC_ICmpStrictness);
        return true;
      }
      break;
    case ICmpInst::SGE:
      if (!V.isSignedMinValue()) {
        C->setPredicate(ICmpInst::SGT);
        C->setOperand(1, intC(C->getLHS()->getType(),
                              V - APInt::getOne(W)));
        fireRule(RuleID::IC_ICmpStrictness);
        return true;
      }
      break;
    case ICmpInst::SLE:
      if (!V.isSignedMaxValue()) {
        C->setPredicate(ICmpInst::SLT);
        C->setOperand(1,
                      intC(C->getLHS()->getType(), V + APInt::getOne(W)));
        fireRule(RuleID::IC_ICmpStrictness);
        return true;
      }
      break;
    default:
      break;
    }

    // icmp eq/ne (and x, 2^k), 0 -> test of a single bit stays canonical;
    // icmp ult (add x, C1), C2 -> range check canonicalization is handled
    // in the clamp combine below.
  }
  return false;
}

bool InstCombinePass::combineSelect(SelectInst *S, BasicBlock *BB,
                                    unsigned Idx) {
  Value *Cond = S->getCondition();

  // select (xor c, true), a, b -> select c, b, a. Hosts Table I bug 53252:
  // the clamp canonicalization "didn't update the predicate" when the
  // compare arrived negated; the buggy variant swaps the condition but NOT
  // the arms, which is exactly a forgotten negation.
  if (auto *X = dyn_cast<BinaryInst>(Cond)) {
    if (X->getBinOp() == BinaryInst::Xor &&
        matchSpecificInt(X->getRHS(), 1) && X->getType()->isBoolTy()) {
      if (isBugEnabled(BugId::PR53252)) {
        // Buggy: drop the negation without swapping the arms (only when
        // this feeds a clamp-like shape: one arm is itself a select fed by
        // a signed compare — the canonicalizeClampLike entry condition).
        bool ClampLike = isa<SelectInst>(S->getTrueValue()) ||
                         isa<SelectInst>(S->getFalseValue());
        if (ClampLike) {
          S->setOperand(0, X->getLHS());
          fireRule(RuleID::IC_SelectNegCond);
          return true;
        }
      }
      Value *T = S->getTrueValue(), *F = S->getFalseValue();
      S->setOperand(0, X->getLHS());
      S->setOperand(1, F);
      S->setOperand(2, T);
      fireRule(RuleID::IC_SelectNegCond);
      return true;
    }
  }

  // select c, x, x handled by instsimplify. select c, true, false -> c;
  // select c, false, true -> xor c, true (i1 only).
  if (S->getType()->isBoolTy()) {
    const ConstantInt *T = matchConstInt(S->getTrueValue());
    const ConstantInt *F = matchConstInt(S->getFalseValue());
    if (T && F && T->isOne() && F->isZero()) {
      replaceAndErase(S, Cond);
      fireRule(RuleID::IC_SelectBoolId);
      return true;
    }
    if (T && F && T->isZero() && F->isOne()) {
      auto *Not = new BinaryInst(BinaryInst::Xor, Cond,
                                 intC(S->getType(), APInt(1, 1)));
      Not->setName(S->getName());
      insertBefore(BB, Idx, std::unique_ptr<Instruction>(Not));
      replaceAndErase(S, Not);
      fireRule(RuleID::IC_SelectBoolNot);
      return true;
    }
  }

  // select (icmp slt x, 0), (sub 0, x), x -> abs-like: leave for Lowering.
  return false;
}

bool InstCombinePass::combineCast(CastInst *C, BasicBlock *BB, unsigned Idx) {
  auto *Inner = dyn_cast<CastInst>(C->getSrc());
  if (!Inner)
    return false;
  unsigned OuterW = C->getType()->getIntegerBitWidth();
  unsigned MidW = Inner->getType()->getIntegerBitWidth();
  unsigned InnerW = Inner->getSrc()->getType()->getIntegerBitWidth();
  Value *X = Inner->getSrc();
  (void)MidW;

  auto rewrite = [&](CastInst::CastOp Op) {
    auto *NewC = new CastInst(Op, X, C->getType());
    NewC->setName(C->getName());
    insertBefore(BB, Idx, std::unique_ptr<Instruction>(NewC));
    replaceAndErase(C, NewC);
    fireRule(RuleID::IC_CastChain);
    return true;
  };

  // zext(zext(x)) -> zext(x); sext(sext(x)) -> sext(x);
  // sext(zext(x)) -> zext(x); trunc chains; trunc(zext/sext) mixed.
  switch (C->getCastOp()) {
  case CastInst::ZExt:
    if (Inner->getCastOp() == CastInst::ZExt)
      return rewrite(CastInst::ZExt);
    break;
  case CastInst::SExt:
    if (Inner->getCastOp() == CastInst::SExt)
      return rewrite(CastInst::SExt);
    if (Inner->getCastOp() == CastInst::ZExt)
      return rewrite(CastInst::ZExt); // high bit known zero
    break;
  case CastInst::Trunc:
    if (Inner->getCastOp() == CastInst::Trunc)
      return rewrite(CastInst::Trunc);
    if (Inner->getCastOp() == CastInst::ZExt ||
        Inner->getCastOp() == CastInst::SExt) {
      if (OuterW == InnerW) {
        replaceAndErase(C, X);
        fireRule(RuleID::IC_CastChain);
        return true;
      }
      if (OuterW < InnerW)
        return rewrite(CastInst::Trunc);
      // OuterW > InnerW: the extension survives, narrowed.
      return rewrite(Inner->getCastOp());
    }
    break;
  }
  return false;
}

bool InstCombinePass::combineCall(CallInst *C, BasicBlock *BB, unsigned Idx) {
  Function *Callee = C->getCallee();

  // Seeded crash 56463: "calling a function with a bad signature" — the
  // analog trigger is a call argument whose value is a poison pointer.
  if (isBugEnabled(BugId::PR56463))
    for (unsigned K = 0; K != C->getNumArgs(); ++K)
      if (isa<ConstantPoison>(C->getArg(K)) &&
          C->getArg(K)->getType()->isPointerTy())
        optimizerCrash(BugId::PR56463,
                       "rebuilding call to @" + Callee->getName() +
                           " with mismatched signature");

  if (!Callee->isIntrinsic())
    return false;
  IntrinsicID ID = Callee->getIntrinsicID();
  if (!C->getType()->isIntegerTy())
    return false;
  unsigned W = C->getType()->getIntegerBitWidth();

  // Seeded crash 52884: smax whose first operand is an add carrying BOTH
  // nuw and nsw (paper Listing 15: "InstCombine is expecting InstSimplify
  // to squash the pattern ... the analysis got thwarted").
  if (ID == IntrinsicID::SMax && isBugEnabled(BugId::PR52884)) {
    if (auto *AddI = dyn_cast<BinaryInst>(C->getArg(0)))
      if (AddI->getBinOp() == BinaryInst::Add && AddI->hasNUW() &&
          AddI->hasNSW() && matchConstInt(C->getArg(1)))
        optimizerCrash(BugId::PR52884,
                       "smax range analysis on add with nuw+nsw");
  }

  switch (ID) {
  case IntrinsicID::SMin:
  case IntrinsicID::SMax:
  case IntrinsicID::UMin:
  case IntrinsicID::UMax: {
    Value *A = C->getArg(0), *Bv = C->getArg(1);
    if (A == Bv) {
      replaceAndErase(C, A);
      fireRule(RuleID::IC_MinMaxSame);
      return true;
    }
    const ConstantInt *BC = matchConstInt(Bv);
    if (BC) {
      const APInt &V = BC->getValue();
      bool Identity =
          (ID == IntrinsicID::SMax && V.isSignedMinValue()) ||
          (ID == IntrinsicID::SMin && V.isSignedMaxValue()) ||
          (ID == IntrinsicID::UMax && V.isZero()) ||
          (ID == IntrinsicID::UMin && V.isAllOnes());
      if (Identity) {
        replaceAndErase(C, A);
        fireRule(RuleID::IC_MinMaxIdentity);
        return true;
      }
      bool Absorbing =
          (ID == IntrinsicID::SMax && V.isSignedMaxValue()) ||
          (ID == IntrinsicID::SMin && V.isSignedMinValue()) ||
          (ID == IntrinsicID::UMax && V.isAllOnes()) ||
          (ID == IntrinsicID::UMin && V.isZero());
      if (Absorbing) {
        // Result is the constant — but only when A is not poison; folding
        // to the constant refines poison away, which is legal.
        replaceAndErase(C, intC(C->getType(), V));
        fireRule(RuleID::IC_MinMaxAbsorb);
        return true;
      }
    }
    return false;
  }
  case IntrinsicID::BSwap: {
    // bswap(bswap(x)) -> x.
    if (auto *InnerCall = dyn_cast<CallInst>(C->getArg(0)))
      if (InnerCall->getCallee()->getIntrinsicID() == IntrinsicID::BSwap) {
        replaceAndErase(C, InnerCall->getArg(0));
        fireRule(RuleID::IC_BswapBswap);
        return true;
      }
    return false;
  }
  case IntrinsicID::UAddSat: {
    // uadd.sat(x, 0) -> x.
    if (matchSpecificInt(C->getArg(1), 0)) {
      replaceAndErase(C, C->getArg(0));
      fireRule(RuleID::IC_UAddSatZero);
      return true;
    }
    return false;
  }
  case IntrinsicID::USubSat: {
    if (matchSpecificInt(C->getArg(1), 0)) {
      replaceAndErase(C, C->getArg(0));
      fireRule(RuleID::IC_USubSatFold);
      return true;
    }
    // usub.sat(x, x) -> 0.
    if (C->getArg(0) == C->getArg(1)) {
      replaceAndErase(C, intC(C->getType(), APInt::getZero(W)));
      fireRule(RuleID::IC_USubSatFold);
      return true;
    }
    return false;
  }
  default:
    return false;
  }
}

} // namespace

std::unique_ptr<Pass> alive::createInstCombinePass() {
  return std::make_unique<InstCombinePass>();
}

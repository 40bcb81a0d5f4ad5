//===- tests/encoder_test.cpp - Symbolic encoder cross-validation -----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property suite pinning the symbolic encoder to the interpreter: for
/// random loop-free integer functions and random concrete inputs, the
/// term-level evaluation of the encoding (UB wire, poison wire, return
/// value) must agree exactly with concrete interpretation. This is the
/// same cross-check the refinement checker relies on when it confirms SAT
/// counterexamples by replay.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "ir/Interpreter.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/RandomGenerator.h"
#include "tv/FunctionEncoder.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Cross-checks one function on N random inputs. \returns the number of
/// inputs actually compared (skips freeze-bearing executions where the
/// encoder's fresh variables legitimately diverge).
unsigned crossCheck(const Function &F, unsigned Trials, uint64_t Seed) {
  TermBuilder B;
  FunctionEncoder Enc(B);
  std::vector<EncodedValue> Args = Enc.makeArguments(F);
  EncodedFunction E = Enc.encode(F, Args);

  bool HasFreeze = false;
  for (BasicBlock *BB : F.blocks())
    for (Instruction *I : BB->insts())
      HasFreeze |= isa<FreezeInst>(I);

  RandomGenerator RNG(Seed);
  unsigned Compared = 0;
  for (unsigned T = 0; T != Trials; ++T) {
    std::map<unsigned, APInt> Assign;
    std::vector<ConcVal> CArgs;
    for (unsigned I = 0; I != F.getNumArgs(); ++I) {
      unsigned W = F.getArg(I)->getType()->getIntegerBitWidth();
      APInt V = RNG.nextAPInt(W);
      Assign[Args[I].Val->VarId] = V;
      Assign[Args[I].Poison->VarId] = APInt(1, 0); // non-poison inputs
      CArgs.push_back(ConcVal::scalar(V));
    }

    ExecOptions Opts;
    Memory Mem;
    Interpreter Interp(Mem, Opts);
    ExecResult R = Interp.run(F, CArgs);

    bool SymUB = !B.evaluate(E.UB, Assign).isZero();
    EXPECT_EQ(R.Status == ExecStatus::UB, SymUB)
        << printFunction(F) << "input trial " << T;
    if (R.Status != ExecStatus::Ok || SymUB)
      continue;
    if (F.getReturnType()->isVoidTy())
      continue;

    bool SymPoison = !B.evaluate(E.RetPoison, Assign).isZero();
    bool ConcPoison = R.Ret.lane().Poison;
    if (HasFreeze && (SymPoison || ConcPoison))
      continue; // freeze fresh-variable divergence is expected
    EXPECT_EQ(ConcPoison, SymPoison) << printFunction(F);
    if (ConcPoison || SymPoison)
      continue;
    if (HasFreeze)
      continue; // values may pass through unbound freeze variables
    APInt SymVal = B.evaluate(E.RetVal, Assign);
    EXPECT_EQ(R.Ret.lane().Val, SymVal) << printFunction(F);
    ++Compared;
  }
  return Compared;
}

/// One operand shape the mul-overflow fold reasons about, with every value
/// (as a W-bit pattern) it takes over all assignments.
struct OperandShape {
  TermRef T;
  std::vector<uint64_t> Values;
};

/// Every operand shape of width \p W the fold's helpers recognize: each
/// constant, a free variable, and one- and two-level zext/sext chains over
/// narrower variables.
std::vector<OperandShape> operandShapes(TermBuilder &B, unsigned W) {
  std::vector<OperandShape> Out;
  for (uint64_t C = 0; C != (1u << W); ++C)
    Out.push_back({B.mkConst(W, C), {C}});
  auto Ext = [&](TermRef X, unsigned To, bool Zero) {
    return Zero ? B.mkZExt(X, To) : B.mkSExt(X, To);
  };
  std::vector<TermRef> Chains{B.mkVar(W, "x")};
  for (unsigned K = 1; K < W; ++K) {
    TermRef X = B.mkVar(K, "x");
    for (bool Inner : {false, true}) {
      Chains.push_back(Ext(X, W, Inner));
      for (unsigned J = K + 1; J < W; ++J)
        for (bool Outer : {false, true})
          Chains.push_back(Ext(Ext(X, J, Inner), W, Outer));
    }
  }
  for (TermRef T : Chains) {
    TermRef Var = T;
    while (!Var->Ops.empty())
      Var = Var->Ops[0];
    OperandShape S{T, {}};
    for (uint64_t V = 0; V != (1u << Var->Width); ++V)
      S.Values.push_back(
          B.evaluate(T, {{Var->VarId, APInt(Var->Width, V)}})
              .getZExtValue());
    Out.push_back(std::move(S));
  }
  return Out;
}

/// \p V as a signed W-bit number.
int64_t signedValue(uint64_t V, unsigned W) {
  return V >> (W - 1) ? (int64_t)V - ((int64_t)1 << W) : (int64_t)V;
}

} // namespace

// The encoder drops the 2W-bit overflow check of mul nuw/nsw when the
// operands' known leading zeros or sign bits rule overflow out. A wrong
// "cannot overflow" would make the checker accept a target that adds
// poison, so check the helpers and the fold by brute force: for every
// width up to 8, every shape they recognize, and every value of it.
TEST(EncoderTest, MulOverflowFoldIsSoundExhaustively) {
  unsigned Folds = 0;
  for (unsigned W = 1; W <= 8; ++W) {
    TermBuilder B;
    std::vector<OperandShape> Shapes = operandShapes(B, W);
    for (const OperandShape &S : Shapes) {
      unsigned LZ = knownLeadingZeros(S.T), SB = knownSignBits(S.T);
      ASSERT_GE(SB, 1u);
      for (uint64_t V : S.Values) {
        // Every claimed leading zero and sign bit is really there.
        for (unsigned I = 0; I != LZ; ++I)
          ASSERT_EQ(V >> (W - 1 - I) & 1, 0u) << "width " << W;
        for (unsigned I = 1; I < SB; ++I)
          ASSERT_EQ(V >> (W - 1 - I) & 1, V >> (W - 1)) << "width " << W;
      }
    }
    const int64_t Min = -((int64_t)1 << (W - 1)), Max = -Min - 1;
    for (const OperandShape &L : Shapes)
      for (const OperandShape &R : Shapes) {
        bool NoUnsigned = mulNeverOverflowsUnsigned(L.T, R.T);
        bool NoSigned = mulNeverOverflowsSigned(L.T, R.T);
        Folds += NoUnsigned + NoSigned;
        if (!NoUnsigned && !NoSigned)
          continue;
        for (uint64_t X : L.Values)
          for (uint64_t Y : R.Values) {
            if (NoUnsigned) {
              ASSERT_LT(X * Y, (uint64_t)1 << W)
                  << "width " << W << ": " << X << " * " << Y;
            }
            int64_t P = signedValue(X, W) * signedValue(Y, W);
            if (NoSigned) {
              ASSERT_TRUE(P >= Min && P <= Max)
                  << "width " << W << ": " << signedValue(X, W) << " * "
                  << signedValue(Y, W);
            }
          }
      }
  }
  // The fold must not be vacuous.
  EXPECT_GT(Folds, 0u);
}

TEST(EncoderTest, HandWrittenShapes) {
  const char *Shapes[] = {
      R"(define i8 @f(i8 %x, i8 %y) {
  %a = add nsw i8 %x, %y
  %b = xor i8 %a, %y
  %c = icmp slt i8 %b, %x
  %r = select i1 %c, i8 %a, i8 %b
  ret i8 %r
})",
      R"(define i8 @f(i8 %x, i8 %y) {
  %d = udiv i8 %x, %y
  %m = mul i8 %d, %y
  ret i8 %m
})",
      R"(define i16 @f(i8 %x) {
  %z = sext i8 %x to i16
  %t = shl i16 %z, 3
  %u = ashr exact i16 %t, 1
  ret i16 %u
})",
      R"(define i8 @f(i1 %c, i8 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %v1 = add i8 %x, 1
  br label %join
b:
  %v2 = sub i8 %x, 1
  br label %join
join:
  %p = phi i8 [ %v1, %a ], [ %v2, %b ]
  ret i8 %p
})",
      R"(define i8 @f(i8 %x) {
entry:
  switch i8 %x, label %d [
    i8 0, label %a
    i8 1, label %b
  ]
a:
  ret i8 10
b:
  ret i8 20
d:
  %m = call i8 @llvm.smax.i8(i8 %x, i8 7)
  ret i8 %m
})",
      R"(define i8 @f(i8 %x) {
  %a = call i8 @llvm.ctpop.i8(i8 %x)
  %b = call i8 @llvm.bswap.i8(i8 %x)
  %c = add i8 %a, %b
  ret i8 %c
})",
  };
  for (const char *IR : Shapes) {
    std::string Err;
    auto M = parseModule(IR, Err);
    ASSERT_NE(M, nullptr) << Err;
    Function *F = M->getFunction("f");
    std::string Why;
    if (strstr(IR, "bswap.i8")) {
      // i8 bswap is invalid (needs multiples of 16); expect rejection by
      // the interpreter path instead — skip it here.
      continue;
    }
    ASSERT_TRUE(FunctionEncoder::isSymbolicallySupported(*F, Why)) << Why;
    crossCheck(*F, 64, 42);
  }
}

class EncoderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderPropertyTest, RandomFunctionsAgreeWithInterpreter) {
  uint64_t Seed = GetParam();
  unsigned Checked = 0;
  for (unsigned FileIdx = 0; FileIdx != 12; ++FileIdx) {
    auto M = generateRandomModule(Seed * 131 + FileIdx, 2);
    for (Function *F : M->functions()) {
      if (F->isDeclaration() || F->isIntrinsic())
        continue;
      std::string Why;
      if (!FunctionEncoder::isSymbolicallySupported(*F, Why))
        continue;
      crossCheck(*F, 24, Seed * 977 + FileIdx);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 4u) << "generator produced too few symbolic functions";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(EncoderTest, UnsupportedShapesAreReported) {
  struct Case {
    const char *IR;
    const char *WhySubstr;
  };
  const Case Cases[] = {
      {R"(define i32 @f(ptr %p) {
  %v = load i32, ptr %p
  ret i32 %v
})",
       "argument"},
      {R"(define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %j, %loop ]
  %j = add i32 %i, 1
  %c = icmp ult i32 %j, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %i
})",
       "loop"},
      {R"(declare i32 @ext(i32)
define i32 @f(i32 %x) {
  %v = call i32 @ext(i32 %x)
  ret i32 %v
})",
       "non-intrinsic"},
      {R"(define <2 x i8> @f(<2 x i8> %v) {
  %r = add <2 x i8> %v, %v
  ret <2 x i8> %r
})",
       ""},
  };
  for (const Case &C : Cases) {
    std::string Err;
    auto M = parseModule(C.IR, Err);
    ASSERT_NE(M, nullptr) << Err;
    std::string Why;
    EXPECT_FALSE(
        FunctionEncoder::isSymbolicallySupported(*M->getFunction("f"), Why))
        << C.IR;
    if (*C.WhySubstr)
      EXPECT_NE(Why.find(C.WhySubstr), std::string::npos) << Why;
  }
}

//===- tests/bugs_test.cpp - Seeded Table I defect tests --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// One test per seeded Table I defect: a crafted trigger function that,
/// with the bug ENABLED, either produces a translation-validation failure
/// (miscompilation rows) or a simulated optimizer crash (crash rows) — and
/// with the bug DISABLED optimizes soundly. This validates the campaign
/// machinery end to end: every row of the paper's Table I is reachable.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "opt/BugInjection.h"
#include "opt/Pass.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

struct RunOutcome {
  bool Crashed = false;
  BugId CrashBug = BugId::PR53252;
  TVVerdict Verdict = TVVerdict::Unsupported;
  std::string Detail;
};

/// Optimizes @f of \p IR with \p Passes, TV-checking the result.
RunOutcome runPipeline(const std::string &IR, const std::string &Passes) {
  RunOutcome Out;
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return Out;
  auto Original = cloneModule(*M);

  PassManager PM;
  EXPECT_TRUE(buildPipeline(Passes, PM, Err)) << Err;
  try {
    PM.runToFixpoint(*M);
  } catch (const OptimizerCrash &C) {
    Out.Crashed = true;
    Out.CrashBug = C.Id;
    Out.Detail = C.What;
    return Out;
  }

  std::vector<std::string> VErrs;
  EXPECT_TRUE(verifyModule(*M, VErrs))
      << (VErrs.empty() ? "" : VErrs.front()) << printModule(*M);

  Function *Src = Original->getFunction("f");
  Function *Tgt = M->getFunction("f");
  EXPECT_NE(Src, nullptr);
  EXPECT_NE(Tgt, nullptr);
  if (!Src || !Tgt)
    return Out;
  TVResult R = checkRefinement(*Src, *Tgt);
  Out.Verdict = R.Verdict;
  Out.Detail = R.Detail + "\noptimized:\n" + printFunction(*Tgt);
  return Out;
}

/// Expects: bug ON -> miscompilation caught by TV; bug OFF -> sound.
void expectMiscompile(BugId Id, const std::string &IR,
                      const std::string &Passes) {
  RunOutcome Clean = runPipeline(IR, Passes);
  EXPECT_FALSE(Clean.Crashed) << "crash with bug disabled";
  EXPECT_EQ(Clean.Verdict, TVVerdict::Correct)
      << "not sound with bug disabled: " << Clean.Detail;

  ScopedBug Guard(Id);
  RunOutcome Buggy = runPipeline(IR, Passes);
  EXPECT_FALSE(Buggy.Crashed) << "unexpected crash";
  EXPECT_EQ(Buggy.Verdict, TVVerdict::Incorrect)
      << "miscompilation not caught: " << Buggy.Detail;
}

/// Expects: bug ON -> simulated optimizer crash; bug OFF -> sound.
void expectCrash(BugId Id, const std::string &IR, const std::string &Passes) {
  RunOutcome Clean = runPipeline(IR, Passes);
  EXPECT_FALSE(Clean.Crashed) << "crash with bug disabled";
  EXPECT_NE(Clean.Verdict, TVVerdict::Incorrect)
      << "not sound with bug disabled: " << Clean.Detail;

  ScopedBug Guard(Id);
  RunOutcome Buggy = runPipeline(IR, Passes);
  EXPECT_TRUE(Buggy.Crashed) << "crash not triggered";
  if (Buggy.Crashed) {
    EXPECT_EQ((unsigned)Buggy.CrashBug, (unsigned)Id);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Miscompilation rows.
//===----------------------------------------------------------------------===//

TEST(BugTest, PR53252_ClampPredicate) {
  // Figure 1 of the paper: the negated range compare must swap the arms.
  expectMiscompile(BugId::PR53252, R"(
define i32 @f(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %neg = xor i1 %t2, true
  %r = select i1 %neg, i32 %x, i32 %t1
  ret i32 %r
}
)",
                   "instcombine");
}

TEST(BugTest, PR50693_OppositeShiftsOfMinusOne) {
  expectMiscompile(BugId::PR50693, R"(
define i8 @f(i8 %x) {
  %a = shl i8 -1, %x
  %b = lshr i8 %a, %x
  ret i8 %b
}
)",
                   "instcombine");
}

TEST(BugTest, PR53218_GVNFlagMerge) {
  // The no-flags copy is the one kept alive; if GVN keeps the leader's nsw,
  // INT_MAX+1 becomes poison where the source was defined.
  expectMiscompile(BugId::PR53218, R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add nsw i32 %x, %y
  %b = add i32 %x, %y
  ret i32 %b
}
)",
                   "gvn");
}

TEST(BugTest, PR55003_SextInRegFold) {
  expectMiscompile(BugId::PR55003, R"(
define i8 @f(i8 %x) {
  %a = shl i8 %x, 3
  %b = ashr i8 %a, 3
  ret i8 %b
}
)",
                   "lowering");
}

TEST(BugTest, PR55201_DisguisedRotateMasks) {
  // The mask keeps only some of the rotated bits; folding to fshl is wrong.
  expectMiscompile(BugId::PR55201, R"(
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 8
  %himask = and i32 %hi, 65280
  %lo = lshr i32 %x, 24
  %r = or i32 %himask, %lo
  ret i32 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR55129_ZeroWidthBitfieldExtract) {
  // Paper Listing 18.
  expectMiscompile(BugId::PR55129, R"(
define i64 @f(i1 %b) {
  %1 = zext i1 %b to i64
  %2 = lshr i64 %1, 1
  ret i64 %2
}
)",
                   "lowering");
}

TEST(BugTest, PR55271_AbsExpansionPoison) {
  // abs with is_int_min_poison == false must NOT gain nsw on the negate.
  expectMiscompile(BugId::PR55271, R"(
define i8 @f(i8 %x) {
  %r = call i8 @llvm.abs.i8(i8 %x, i1 false)
  ret i8 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR55284_OrAndCondition) {
  // C1 = 12 is a subset of C2 = 15: the buggy condition folds, wrongly.
  expectMiscompile(BugId::PR55284, R"(
define i8 @f(i8 %x) {
  %o = or i8 %x, 12
  %a = and i8 %o, 15
  ret i8 %a
}
)",
                   "lowering");
}

TEST(BugTest, PR55287_URemUDivRecompose) {
  // mul uses a different value than the divisor: must not fold to urem.
  expectMiscompile(BugId::PR55287, R"(
define i8 @f(i8 %x, i8 %y, i8 %z) {
  %d = udiv i8 %x, %y
  %m = mul i8 %d, %z
  %r = sub i8 %x, %m
  ret i8 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR55296_PromotedURemBits) {
  // The divisor 300 does not fit i8; narrowing must be rejected.
  expectMiscompile(BugId::PR55296, R"(
define i8 @f(i8 %x) {
  %z = zext i8 %x to i32
  %r = urem i32 %z, 300
  %t = trunc i32 %r to i8
  ret i8 %t
}
)",
                   "lowering");
}

TEST(BugTest, PR55342_PromotedConstantUGT) {
  // Paper Listing 19 shape: unsigned compare with a negative constant.
  expectMiscompile(BugId::PR55342, R"(
define i32 @f(i8 %v) {
  %1 = sub i8 -66, 0
  %2 = add i8 %1, %v
  %3 = icmp ugt i8 %2, -31
  %4 = select i1 %3, i32 1, i32 0
  ret i32 %4
}
)",
                   "lowering");
}

TEST(BugTest, PR55490_PromotedConstantULT) {
  expectMiscompile(BugId::PR55490, R"(
define i32 @f(i8 %v) {
  %1 = icmp ult i8 %v, -10
  %2 = select i1 %1, i32 1, i32 0
  ret i32 %2
}
)",
                   "lowering");
}

TEST(BugTest, PR55627_PromotedConstantEQ) {
  expectMiscompile(BugId::PR55627, R"(
define i32 @f(i8 %v) {
  %1 = icmp eq i8 %v, -3
  %2 = select i1 %1, i32 1, i32 0
  ret i32 %2
}
)",
                   "lowering");
}

TEST(BugTest, PR55484_BSwapHWordLow) {
  // Same shift pair at i32: only the low half-word swaps; bswap is wrong.
  expectMiscompile(BugId::PR55484, R"(
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 8
  %lo = lshr i32 %x, 8
  %r = or i32 %hi, %lo
  ret i32 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR55833_BitfieldExtractBoundary) {
  // C1 + n == W - 1: lshr 2, mask 0x1F (n=5) at i8.
  expectMiscompile(BugId::PR55833, R"(
define i8 @f(i8 %x) {
  %s = lshr i8 %x, 2
  %r = and i8 %s, 31
  ret i8 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR58109_USubSatExpansion) {
  expectMiscompile(BugId::PR58109, R"(
define i8 @f(i8 %x, i8 %y) {
  %r = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %r
}
)",
                   "lowering");
}

TEST(BugTest, PR58321_FrozenPoisonDropped) {
  // Dropping the freeze makes the function return poison where the source
  // returned a frozen (concrete) value.
  expectMiscompile(BugId::PR58321, R"(
define i8 @f(i8 %x) {
  %a = add nsw i8 %x, 100
  %fr = freeze i8 %a
  ret i8 %fr
}
)",
                   "lowering");
}

TEST(BugTest, PR58431_ZExtSelectionMask) {
  expectMiscompile(BugId::PR58431, R"(
define i16 @f(i16 %x) {
  %t = trunc i16 %x to i8
  %z = zext i8 %t to i16
  ret i16 %z
}
)",
                   "lowering");
}

TEST(BugTest, PR59836_ZextMulPrecondition) {
  // i8 zext * i8 zext into i12: sums to 16 > 12 — nuw would be wrong.
  expectMiscompile(BugId::PR59836, R"(
define i12 @f(i8 %a, i8 %b) {
  %za = zext i8 %a to i12
  %zb = zext i8 %b to i12
  %m = mul i12 %za, %zb
  ret i12 %m
}
)",
                   "instcombine");
}

//===----------------------------------------------------------------------===//
// Crash rows.
//===----------------------------------------------------------------------===//

TEST(BugTest, PR52884_SMaxNuwNsw) {
  // Paper Listing 15, verbatim.
  expectCrash(BugId::PR52884, R"(
define i8 @f(i8 %x) {
  %1 = add nuw nsw i8 50, %x
  %m = call i8 @llvm.smax.i8(i8 %1, i8 -124)
  ret i8 %m
}
)",
              "instcombine");
}

TEST(BugTest, PR51618_GVNPhiUndef) {
  expectCrash(BugId::PR51618, R"(
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ undef, %b ]
  ret i32 %p
}
)",
              "gvn");
}

TEST(BugTest, PR56377_ExtractExtractShuffle) {
  expectCrash(BugId::PR56377, R"(
define i8 @f(<4 x i8> %v, <4 x i8> %w) {
  %s = shufflevector <4 x i8> %v, <4 x i8> %w, <4 x i32> <i32 0, i32 5, i32 2, i32 7>
  %r = extractelement <4 x i8> %s, i32 9
  ret i8 %r
}
)",
              "vector-combine");
}

TEST(BugTest, PR56463_CallBadSignature) {
  expectCrash(BugId::PR56463, R"(
declare void @ext(ptr)

define void @f() {
  call void @ext(ptr poison)
  ret void
}
)",
              "instcombine");
}

TEST(BugTest, PR56945_ConstantFoldPoison) {
  expectCrash(BugId::PR56945, R"(
define i8 @f() {
  %m = call i8 @llvm.smax.i8(i8 poison, i8 3)
  ret i8 %m
}
)",
              "constfold");
}

TEST(BugTest, PR56968_PoisonShiftDetection) {
  // Shift amount EQUAL to the bit width: the uncovered condition.
  expectCrash(BugId::PR56968, R"(
define i8 @f(i8 %x) {
  %r = shl i8 %x, 8
  ret i8 %r
}
)",
              "instsimplify");
}

TEST(BugTest, PR56981_CtlzAssertion) {
  expectCrash(BugId::PR56981, R"(
define i8 @f() {
  %r = call i8 @llvm.ctlz.i8(i8 0, i1 true)
  ret i8 %r
}
)",
              "constfold");
}

TEST(BugTest, PR58423_CSEBuilderReuse) {
  // The rotate's shifts have extra uses.
  expectCrash(BugId::PR58423, R"(
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 5
  %lo = lshr i32 %x, 27
  %r = or i32 %hi, %lo
  %extra = add i32 %hi, %r
  ret i32 %extra
}
)",
              "lowering");
}

TEST(BugTest, PR58425_UDivLegalizer) {
  expectCrash(BugId::PR58425, R"(
define i50 @f(i50 %x, i50 %y) {
  %nz = icmp ne i50 %y, 0
  call void @llvm.assume(i1 %nz)
  %r = udiv i50 %x, %y
  ret i50 %r
}
)",
              "lowering");
}

TEST(BugTest, PR59757_PrintfSignature) {
  expectCrash(BugId::PR59757, R"(
declare i32 @printf(ptr)

define i32 @f() {
  %r = call i32 @printf(ptr null)
  ret i32 %r
}
)",
              "lowering");
}

TEST(BugTest, PR64687_NonPow2Alignment) {
  // Paper Listing 16's 123-byte alignment, as a load annotation.
  expectCrash(BugId::PR64687, R"(
define i8 @f(ptr dereferenceable(246) %p) {
  %v = load i8, ptr %p, align 123
  ret i8 %v
}
)",
              "infer-alignment");
}

TEST(BugTest, PR64661_MoveAutoInitAssert) {
  expectCrash(BugId::PR64661, R"(
declare void @use(ptr)

define void @f() {
  %p = alloca i32, align 4
  store i32 0, ptr %p, align 4
  store i32 7, ptr %p, align 4
  call void @use(ptr %p)
  ret void
}
)",
              "move-auto-init");
}

TEST(BugTest, PR72035_SROASliceRewriter) {
  expectCrash(BugId::PR72035, R"(
define i32 @f(i32 %x) {
  %p = alloca i32, align 4
  %q = getelementptr i8, ptr %p, i64 1
  store i32 %x, ptr %p, align 4
  %v = load i32, ptr %p, align 4
  ret i32 %v
}
)",
              "sroa");
}

TEST(BugTest, PR72034_ScalarizePoisonLane) {
  expectCrash(BugId::PR72034, R"(
define i8 @f(<2 x i8> %v) {
  %s = add <2 x i8> %v, <i8 3, i8 poison>
  %r = extractelement <2 x i8> %s, i32 0
  ret i8 %r
}
)",
              "vector-combine");
}

//===----------------------------------------------------------------------===//
// Registry sanity.
//===----------------------------------------------------------------------===//

TEST(BugTest, TableHas33Rows) {
  EXPECT_EQ(bugTable().size(), 33u);
  unsigned Crashes = 0, Miscompiles = 0;
  for (const BugInfo &B : bugTable())
    (B.IsCrash ? Crashes : Miscompiles)++;
  EXPECT_EQ(Miscompiles, 19u);
  EXPECT_EQ(Crashes, 14u);
}

TEST(BugTest, EnableDisable) {
  BugInjectionContext Ctx;
  EXPECT_FALSE(Ctx.isEnabled(BugId::PR53252));
  Ctx.enable(BugId::PR53252);
  EXPECT_TRUE(Ctx.isEnabled(BugId::PR53252));
  Ctx.enableAll();
  for (const BugInfo &B : bugTable())
    EXPECT_TRUE(Ctx.isEnabled(B.Id));
  Ctx.disableAll();
  EXPECT_FALSE(Ctx.isEnabled(BugId::PR53252));
  EXPECT_TRUE(Ctx.empty());
}

TEST(BugTest, AmbientContextScopes) {
  // No ambient context: every defect reads as disabled.
  EXPECT_EQ(activeBugContext(), nullptr);
  EXPECT_FALSE(isBugEnabled(BugId::PR53252));
  {
    ScopedBug Guard(BugId::PR53252);
    EXPECT_TRUE(isBugEnabled(BugId::PR53252));
    EXPECT_FALSE(isBugEnabled(BugId::PR50693));
    {
      // Scopes nest and restore the previous context on exit.
      BugInjectionContext Inner{BugId::PR50693};
      BugContextScope Scope(&Inner);
      EXPECT_TRUE(isBugEnabled(BugId::PR50693));
      EXPECT_FALSE(isBugEnabled(BugId::PR53252));
    }
    EXPECT_TRUE(isBugEnabled(BugId::PR53252));
  }
  EXPECT_FALSE(isBugEnabled(BugId::PR53252));
  EXPECT_EQ(activeBugContext(), nullptr);
}

TEST(BugTest, InfoLookup) {
  const BugInfo &B = bugInfo(BugId::PR59836);
  EXPECT_STREQ(B.IssueId, "59836");
  EXPECT_STREQ(B.Component, "InstCombine");
  EXPECT_FALSE(B.IsCrash);
}

//===- tests/tv_test.cpp - Translation validation tests --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises the Alive2-substitute refinement checker on equivalences,
/// refinements, and miscompilations — including the actual miscompilation
/// from the paper's Figure 1 (Listings 2 vs 3).
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Parses a module containing @src and @tgt and checks @tgt against @src,
/// recording query telemetry into \p Stats when given.
TVResult check(const std::string &IR, const TVOptions &Opts = TVOptions(),
               StatRegistry *Stats = nullptr) {
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return TVResult();
  Function *Src = M->getFunction("src");
  Function *Tgt = M->getFunction("tgt");
  EXPECT_NE(Src, nullptr);
  EXPECT_NE(Tgt, nullptr);
  return checkRefinement(*Src, *Tgt, Opts, Stats);
}

/// Optimizes the single function @f of \p IR with -O2 and checks the
/// result against the original at the default options. \p Optimized
/// receives the optimized function's text.
TVResult checkAgainstO2(const std::string &IR, std::string &Optimized) {
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return TVResult();
  auto Opt = cloneModule(*M);
  PassManager PM;
  EXPECT_TRUE(buildPipeline("O2", PM, Err)) << Err;
  PM.runToFixpoint(*Opt);
  Optimized = printFunction(*Opt->getFunction("f"));
  return checkRefinement(*M->getFunction("f"), *Opt->getFunction("f"));
}

/// Runs \p Fn of \p IR on \p Args in the interpreter.
ExecResult replay(const std::string &IR, const std::string &Fn,
                  const std::vector<ConcVal> &Args) {
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  Memory Mem;
  Interpreter Interp(Mem, ExecOptions());
  return Interp.run(*M->getFunction(Fn), Args);
}

} // namespace

TEST(TVTest, IdenticalFunctionsRefine) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
  EXPECT_FALSE(R.UsedConcretePath);
}

TEST(TVTest, AlgebraicEquivalence) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = mul i32 %x, 8
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = shl i32 %x, 3
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, ValueMismatchDetected) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 2
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  EXPECT_FALSE(R.Detail.empty());
  ASSERT_EQ(R.CounterExample.size(), 1u);
}

TEST(TVTest, DroppingFlagsIsRefinement) {
  // Removing nsw reduces poison: correct direction.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add nsw i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, AddingFlagsIsNotRefinement) {
  // Adding nsw introduces poison where the source was defined: a bug.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add nsw i32 %x, 1
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  // The counterexample must be INT_MAX (the only overflowing input).
  ASSERT_EQ(R.CounterExample.size(), 1u);
  EXPECT_TRUE(R.CounterExample[0].lane().Val.isSignedMaxValue());
}

TEST(TVTest, PoisonIsRefinedByAnything) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 poison
}
define i32 @tgt(i32 %x) {
  ret i32 5
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, IntroducingPoisonIsABug) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 5
}
define i32 @tgt(i32 %x) {
  ret i32 poison
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect);
}

TEST(TVTest, IntroducingUBIsABug) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 0
}
define i32 @tgt(i32 %x) {
  %d = udiv i32 5, %x
  %z = mul i32 %d, 0
  ret i32 %z
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  // Counterexample must be x == 0 (the divide-by-zero input).
  ASSERT_EQ(R.CounterExample.size(), 1u);
  EXPECT_TRUE(R.CounterExample[0].lane().Val.isZero());
}

TEST(TVTest, UBInSourceAllowsAnything) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %d = udiv i32 5, 0
  ret i32 %d
}
define i32 @tgt(i32 %x) {
  ret i32 12345
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, BranchSelectEquivalence) {
  TVResult R = check(R"(
define i32 @src(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %t, label %f
t:
  br label %join
f:
  br label %join
join:
  %r = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %r
}
define i32 @tgt(i1 %c, i32 %a, i32 %b) {
  %r = select i1 %c, i32 %a, i32 %b
  ret i32 %r
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, SwitchEncoding) {
  TVResult R = check(R"(
define i32 @src(i8 %x) {
entry:
  switch i8 %x, label %d [
    i8 0, label %a
    i8 1, label %b
  ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
}
define i32 @tgt(i8 %x) {
  %is0 = icmp eq i8 %x, 0
  %is1 = icmp eq i8 %x, 1
  %t = select i1 %is1, i32 20, i32 30
  %r = select i1 %is0, i32 10, i32 %t
  ret i32 %r
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, PaperFigure1Miscompilation) {
  // Listing 2 (mutated source) vs Listing 3 (InstCombine output, January
  // 2022) — the unsound optimization alive-mutate reported. With inputs
  // x=2, low=1, high=1 the source returns 1 but the target returns 2.
  TVResult R = check(R"(
define i32 @src(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %1 = xor i1 %t2, true
  %r = select i1 %1, i32 %x, i32 %t1
  ret i32 %r
}
define i32 @tgt(i32 %x, i32 %low, i32 %high) {
  %1 = icmp slt i32 %x, 0
  %2 = icmp sgt i32 %x, 65535
  %3 = select i1 %1, i32 %low, i32 %x
  %4 = select i1 %2, i32 %high, i32 %3
  ret i32 %4
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  // 96 bits of input: the symbolic path finds the model, and the concrete
  // replay that confirms it (rejecting spurious freeze models) is recorded.
  EXPECT_TRUE(R.UsedConcretePath);
  // Three i32 parameters, positions preserved.
  EXPECT_EQ(R.CounterExample.size(), 3u);
}

TEST(TVTest, PaperListing17Miscompilation) {
  // Listing 17: InstCombine assumed (zext a)*(zext a) cannot overflow in
  // i34 and folded the ule-compare to true. Alive2 found %x = 3363831808.
  TVResult R = check(R"(
define i1 @src(i32 %x) {
entry:
  %r = zext i32 %x to i64
  %0 = trunc i64 %r to i34
  %new0 = mul i34 %0, %0
  %last = zext i34 %new0 to i64
  %res = icmp ule i64 %last, 4294967295
  ret i1 %res
}
define i1 @tgt(i32 %x) {
entry:
  ret i1 true
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  // Any counterexample must actually overflow: x*x >= 2^32 in i34.
  ASSERT_EQ(R.CounterExample.size(), 1u);
  APInt X = R.CounterExample[0].lane().Val.zext(34);
  EXPECT_TRUE((X * X).ugt(APInt(34, 0xFFFFFFFFULL)));
}

TEST(TVTest, NoundefAttributeMatters) {
  // src: noundef param means poison input is UB, so tgt may do anything on
  // poison inputs; the pair is equivalent for non-poison inputs.
  TVResult R = check(R"(
define i32 @src(i32 noundef %x) {
  %f = freeze i32 %x
  ret i32 %f
}
define i32 @tgt(i32 noundef %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, FreezeNotRemovableWithoutNoundef) {
  // Without noundef, replacing freeze(x) by x is a (subtle) non-refinement
  // when x can be poison. Our checker reports it either as incorrect or —
  // because of the freeze-encoding confirmation step — inconclusive; it
  // must NOT claim refinement was proven.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %f = freeze i32 %x
  %r = udiv i32 1, %f
  ret i32 %r
}
define i32 @tgt(i32 %x) {
  %r = udiv i32 1, %x
  ret i32 %r
}
)");
  EXPECT_NE(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, MemoryRoundTrip) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %p = alloca i32, align 4
  store i32 %x, ptr %p, align 4
  %v = load i32, ptr %p, align 4
  ret i32 %v
}
define i32 @tgt(i32 %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_TRUE(R.UsedConcretePath);
}

TEST(TVTest, MemoryMiscompileDetected) {
  TVResult R = check(R"(
define void @src(ptr %p) {
  store i32 7, ptr %p, align 4
  ret void
}
define void @tgt(ptr %p) {
  store i32 8, ptr %p, align 4
  ret void
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  EXPECT_NE(R.Detail.find("memory mismatch"), std::string::npos);
}

TEST(TVTest, StoreValueVisibleToCaller) {
  // Dropping a store to a caller-visible pointer is a miscompilation.
  TVResult R = check(R"(
define void @src(ptr %p) {
  store i32 42, ptr %p, align 4
  ret void
}
define void @tgt(ptr %p) {
  ret void
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect);
}

TEST(TVTest, LoopsUseConcretePath) {
  // Sum 0..n-1 over i8 vs the closed form; exhaustively enumerable.
  TVResult R = check(R"(
define i8 @src(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i8 [ 0, %entry ], [ %accnext, %body ]
  %done = icmp uge i8 %i, %n
  br i1 %done, label %exit, label %body
body:
  %accnext = add i8 %acc, %i
  %inext = add i8 %i, 1
  br label %head
exit:
  ret i8 %acc
}
define i8 @tgt(i8 %n) {
  %nm1 = sub i8 %n, 1
  %nhalf = lshr i8 %n, 1
  %mhalf = lshr i8 %nm1, 1
  %even = mul i8 %nhalf, %nm1
  %odd = mul i8 %n, %mhalf
  %bit = and i8 %n, 1
  %isodd = icmp eq i8 %bit, 1
  %r = select i1 %isodd, i8 %odd, i8 %even
  ret i8 %r
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  // Halve the even factor before multiplying so nothing wraps early:
  // a correct closed form for the i8 sum.
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, VectorFunctionsUseConcretePath) {
  TVResult R = check(R"(
define <4 x i8> @src(<4 x i8> %v) {
  %r = add <4 x i8> %v, %v
  ret <4 x i8> %r
}
define <4 x i8> @tgt(<4 x i8> %v) {
  %r = mul <4 x i8> %v, <i8 2, i8 2, i8 2, i8 2>
  ret <4 x i8> %r
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, SignatureMismatchUnsupported) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 %x
}
define i64 @tgt(i64 %x) {
  ret i64 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Unsupported);
}

TEST(TVTest, SelfRefinement) {
  std::string Err;
  auto M = parseModule(R"(
define i32 @f(i32 %x, i32 %y) {
  %c = icmp slt i32 %x, %y
  %m = select i1 %c, i32 %x, i32 %y
  ret i32 %m
}
)",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  TVResult R = checkSelfRefinement(*M->getFunction("f"));
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, IntrinsicEquivalences) {
  // smax(x, y) == select(x sgt y, x, y)
  TVResult R = check(R"(
define i8 @src(i8 %x, i8 %y) {
  %m = call i8 @llvm.smax.i8(i8 %x, i8 %y)
  ret i8 %m
}
define i8 @tgt(i8 %x, i8 %y) {
  %c = icmp sgt i8 %x, %y
  %m = select i1 %c, i8 %x, i8 %y
  ret i8 %m
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // usub.sat(x, y) == select(x ult y, 0, x - y)
  R = check(R"(
define i8 @src(i8 %x, i8 %y) {
  %m = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %m
}
define i8 @tgt(i8 %x, i8 %y) {
  %c = icmp ult i8 %x, %y
  %d = sub i8 %x, %y
  %m = select i1 %c, i8 0, i8 %d
  ret i8 %m
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // bswap(bswap(x)) == x
  R = check(R"(
define i32 @src(i32 %x) {
  %a = call i32 @llvm.bswap.i32(i32 %x)
  %b = call i32 @llvm.bswap.i32(i32 %a)
  ret i32 %b
}
define i32 @tgt(i32 %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // ctpop(x) + ctpop(~x) == width
  R = check(R"(
define i8 @src(i8 %x) {
  %nx = xor i8 %x, -1
  %a = call i8 @llvm.ctpop.i8(i8 %x)
  %b = call i8 @llvm.ctpop.i8(i8 %nx)
  %s = add i8 %a, %b
  ret i8 %s
}
define i8 @tgt(i8 %x) {
  ret i8 8
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, AssumeGuardsRefinement) {
  // Under assume(x != 0), cttz(x, true) == cttz(x, false).
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  %nz = icmp ne i8 %x, 0
  call void @llvm.assume(i1 %nz)
  %t = call i8 @llvm.cttz.i8(i8 %x, i1 true)
  ret i8 %t
}
define i8 @tgt(i8 %x) {
  %nz = icmp ne i8 %x, 0
  call void @llvm.assume(i1 %nz)
  %t = call i8 @llvm.cttz.i8(i8 %x, i1 false)
  ret i8 %t
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, ExternalCallsConcreteOracle) {
  // Identical external calls on both sides agree through the environment
  // oracle; the pair refines.
  TVResult R = check(R"(
declare void @clobber(ptr)

define i32 @src(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
define i32 @tgt(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, ClobberForwardingBugDetected) {
  // Forwarding %a to %b across @clobber(%q) is unsound: the callee may
  // write through the aliasing pointer.
  TVResult R = check(R"(
declare void @clobber(ptr)

define i32 @src(ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %q)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
define i32 @tgt(ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %q)
  %c = sub i32 %a, %a
  ret i32 %c
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
}

//===----------------------------------------------------------------------===//
// Edge-case regressions: exhaustive-bits clamp, counterexample structure,
// and vacuous-trial accounting.
//===----------------------------------------------------------------------===//

TEST(TVTest, ExhaustiveBitsBeyondWordWidthFallsBackToSampling) {
  // ExhaustiveBits >= 64 used to compute `1ULL << TotalBits` — undefined
  // behavior at 64 bits and beyond. The trial count must clamp to the
  // sampled path instead (128 bits of input here).
  TVOptions Opts;
  Opts.ExhaustiveBits = 200;
  Opts.ConcreteTrials = 16;
  TVResult R = check(R"(
define <2 x i64> @src(<2 x i64> %v) {
  %a = add <2 x i64> %v, %v
  ret <2 x i64> %a
}
define <2 x i64> @tgt(<2 x i64> %v) {
  %a = shl <2 x i64> %v, <i64 1, i64 1>
  ret <2 x i64> %a
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_NE(R.Detail.find("sampled"), std::string::npos) << R.Detail;
}

TEST(TVTest, CounterexamplePreservesArgumentPositions) {
  // The counterexample used to drop poison and vector arguments, silently
  // shifting the remaining values out of their parameter positions. Every
  // parameter must appear, in order, with its lane structure.
  TVResult R = check(R"(
define i32 @src(i32 %x, <2 x i8> %v, i32 %y) {
  ret i32 %y
}
define i32 @tgt(i32 %x, <2 x i8> %v, i32 %y) {
  %a = add i32 %y, 1
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  EXPECT_TRUE(R.UsedConcretePath); // the vector parameter forces it
  ASSERT_EQ(R.CounterExample.size(), 3u);
  EXPECT_TRUE(R.CounterExample[0].isScalar());
  EXPECT_EQ(R.CounterExample[1].Lanes.size(), 2u);
  EXPECT_TRUE(R.CounterExample[2].isScalar());
}

TEST(TVTest, AllVacuousTargetTrialsAreInconclusive) {
  // The target never terminates: every trial exhausts its fuel on the
  // target side. The old accounting treated those trials as passing and
  // answered "Correct" — a vacuous truth. It must be Inconclusive.
  TVOptions Opts;
  Opts.ExhaustiveBits = 0; // force sampling: a few trials suffice
  Opts.ConcreteTrials = 8;
  Opts.Fuel = 500;
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  ret i8 0
}
define i8 @tgt(i8 %x) {
entry:
  br label %loop
loop:
  br label %loop
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Inconclusive) << R.Detail;
  EXPECT_NE(R.Detail.find("no trial was decisive"), std::string::npos)
      << R.Detail;
}

TEST(TVTest, PartiallyVacuousTargetIsCorrectButSurfaced) {
  // The target terminates only for small inputs under this fuel budget:
  // the decisive trials prove no violation, but the vacuous remainder must
  // be surfaced in the detail instead of silently counted as passing.
  TVOptions Opts;
  Opts.ExhaustiveBits = 0;
  Opts.ConcreteTrials = 16;
  Opts.Fuel = 100;
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  ret i8 0
}
define i8 @tgt(i8 %x) {
entry:
  br label %loop
loop:
  %i = phi i8 [ %x, %entry ], [ %d, %loop ]
  %d = sub i8 %i, 1
  %c = icmp eq i8 %i, 0
  br i1 %c, label %done, label %loop
done:
  ret i8 0
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_NE(R.Detail.find("vacuous on target"), std::string::npos)
      << R.Detail;
}

// The solver tail of the seed corpus. -O2 adds nuw to the zext square of
// pr4917_4; its overflow check used to be a second, 128-bit multiplier the
// solver had to prove consistent with the 64-bit one, and the query ran
// out of the default budget. The operands' known leading zeros rule the
// overflow out before blasting.
TEST(TVTest, ZextSquareNuwIsDecidedWithinFewConflicts) {
  std::string Optimized;
  TVResult R = checkAgainstO2(R"(
define i1 @f(i32 %x) {
entry:
  %r = zext i32 %x to i64
  %mul = mul i64 %r, %r
  %res = icmp ule i64 %mul, 4294967295
  ret i1 %res
}
)",
                              Optimized);
  ASSERT_NE(Optimized.find("mul nuw i64"), std::string::npos) << Optimized;
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_FALSE(R.UsedConcretePath);
  EXPECT_LT(R.SolverStats.Conflicts, 100u);
}

// A mutant of the same function: -O2 rewrites the square of
// trunc(zext x) into the square of trunc x. Both multipliers blast over the
// same input literals, so structural gate hashing makes them one circuit
// instead of leaving the solver to prove two copies equal.
TEST(TVTest, TruncZextSquareMutantIsDecidedWithinFewConflicts) {
  std::string Optimized;
  TVResult R = checkAgainstO2(R"(
define i1 @f(i32 %x) {
entry:
  %r = zext i32 %x to i64
  %0 = trunc i64 %r to i13
  %1 = trunc i64 %r to i13
  %2 = mul i13 %0, %1
  %3 = sext i13 %2 to i64
  %res = icmp ule i64 %3, 4294967295
  ret i1 %res
}
)",
                              Optimized);
  ASSERT_NE(Optimized.find("trunc i32 %x to i13"), std::string::npos)
      << Optimized;
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_FALSE(R.UsedConcretePath);
  EXPECT_LT(R.SolverStats.Conflicts, 100u);
}

// -O2 moves the constant of a multiply to the right. The multiplier
// circuit is not symmetric, so the bit-blaster fixes one operand order
// itself; otherwise source and target blast two different 64-bit
// multipliers and the query exhausts its budget.
TEST(TVTest, CommutedMultiplyIsDecidedWithinFewConflicts) {
  std::string Optimized;
  TVResult R = checkAgainstO2(R"(
define i1 @f(i32 %x) {
entry:
  %r = zext i32 %x to i64
  %mul = mul i64 -1, %r
  %res = icmp ule i64 %mul, 4294967295
  ret i1 %res
}
)",
                              Optimized);
  ASSERT_NE(Optimized.find("mul i64 %r, -1"), std::string::npos) << Optimized;
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_FALSE(R.UsedConcretePath);
  EXPECT_LT(R.SolverStats.Conflicts, 100u);
}

// GVN unifies b*a with a*b, so the target keeps one operand order where
// the source had both: the same commuted-multiplier shape without a
// constant.
TEST(TVTest, GVNOfCommutedMultipliesIsDecidedWithinFewConflicts) {
  std::string Optimized;
  TVResult R = checkAgainstO2(R"(
define i32 @f(i32 %a, i32 %b) {
  %x = mul i32 %b, %a
  %y = mul i32 %a, %b
  %m = add i32 %x, %y
  ret i32 %m
}
)",
                              Optimized);
  ASSERT_EQ(Optimized.find("mul i32 %a, %b"), std::string::npos)
      << Optimized;
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_FALSE(R.UsedConcretePath);
  EXPECT_LT(R.SolverStats.Conflicts, 100u);
}

// The fold must not fire where the product can wrap: 8 + 7 known leading
// zeros are one short of i16, and 255 * 511 overflows.
TEST(TVTest, PossibleMulNuwOverflowStaysIncorrect) {
  const std::string Src = R"(
define i16 @src(i8 %a, i9 %b) {
  %x = zext i8 %a to i16
  %y = zext i9 %b to i16
  %m = mul i16 %x, %y
  ret i16 %m
}
)";
  const std::string Tgt = R"(
define i16 @tgt(i8 %a, i9 %b) {
  %x = zext i8 %a to i16
  %y = zext i9 %b to i16
  %m = mul nuw i16 %x, %y
  ret i16 %m
}
)";
  TVResult R = check(Src + Tgt);
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  ASSERT_EQ(R.CounterExample.size(), 2u);
  uint64_t A = R.CounterExample[0].lane().Val.getZExtValue();
  uint64_t B = R.CounterExample[1].lane().Val.getZExtValue();
  EXPECT_GT(A * B, 0xFFFFu);
  ExecResult S = replay(Src, "src", R.CounterExample);
  ExecResult T = replay(Tgt, "tgt", R.CounterExample);
  ASSERT_EQ(S.Status, ExecStatus::Ok);
  ASSERT_EQ(T.Status, ExecStatus::Ok);
  EXPECT_FALSE(S.Ret.anyPoison());
  EXPECT_TRUE(T.Ret.anyPoison());
}

// The signed mirror: 9 + 8 known sign bits are not more than i16 + 1, and
// -128 * -256 = 32768 overflows.
TEST(TVTest, PossibleMulNswOverflowStaysIncorrect) {
  const std::string Src = R"(
define i16 @src(i8 %a, i9 %b) {
  %x = sext i8 %a to i16
  %y = sext i9 %b to i16
  %m = mul i16 %x, %y
  ret i16 %m
}
)";
  const std::string Tgt = R"(
define i16 @tgt(i8 %a, i9 %b) {
  %x = sext i8 %a to i16
  %y = sext i9 %b to i16
  %m = mul nsw i16 %x, %y
  ret i16 %m
}
)";
  TVResult R = check(Src + Tgt);
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  ASSERT_EQ(R.CounterExample.size(), 2u);
  int64_t A = R.CounterExample[0].lane().Val.getSExtValue();
  int64_t B = R.CounterExample[1].lane().Val.getSExtValue();
  EXPECT_TRUE(A * B > INT16_MAX || A * B < INT16_MIN) << A << " * " << B;
  ExecResult S = replay(Src, "src", R.CounterExample);
  ExecResult T = replay(Tgt, "tgt", R.CounterExample);
  ASSERT_EQ(S.Status, ExecStatus::Ok);
  ASSERT_EQ(T.Status, ExecStatus::Ok);
  EXPECT_FALSE(S.Ret.anyPoison());
  EXPECT_TRUE(T.Ret.anyPoison());
}

namespace {

/// The sound lowering of PR55287, x - (x/y)*y -> x%y, as @src and @tgt
/// with \p Attr on %y, \p SubFlags on the sub and \p Div/\p Rem the
/// division pair.
std::string remRecompose(const std::string &Attr, const std::string &SubFlags,
                         const std::string &Div, const std::string &Rem) {
  return "define i8 @src(i8 %x, i8 " + Attr + "%y) {\n  %d = " + Div +
         " i8 %x, %y\n  %m = mul i8 %d, %y\n  %r = sub " + SubFlags +
         "i8 %x, %m\n  ret i8 %r\n}\n"
         "define i8 @tgt(i8 %x, i8 " + Attr + "%y) {\n  %r = " + Rem +
         " i8 %x, %y\n  ret i8 %r\n}\n";
}

} // namespace

// The solver tail of the pr55287 defect-hunt campaign: this sound lowering
// in the attribute and flag variants its mutants produce, plus the sdiv
// mirror. Proving a restoring divider against a multiplier used to exhaust
// the 4000-conflict budget; the builder now rewrites (x/y)*y to x - x%y,
// so source and target are one term before any bit is blasted.
TEST(TVTest, RemRecomposeIsDecidedWithinFewConflicts) {
  struct Variant {
    const char *Attr, *SubFlags, *Div, *Rem;
  };
  const Variant Variants[] = {
      {"", "", "udiv", "urem"},         {"", "nsw ", "udiv", "urem"},
      {"", "nuw ", "udiv", "urem"},     {"noundef ", "", "udiv", "urem"},
      {"", "", "sdiv", "srem"},         {"noundef ", "nsw ", "sdiv", "srem"},
  };
  TVOptions Opts;
  Opts.SolverConflictBudget = 4000;
  for (const Variant &V : Variants) {
    std::string IR = remRecompose(V.Attr, V.SubFlags, V.Div, V.Rem);
    TVResult R = check(IR, Opts);
    EXPECT_EQ(R.Verdict, TVVerdict::Correct) << IR << R.Detail;
    EXPECT_FALSE(R.UsedConcretePath) << IR;
    EXPECT_LT(R.SolverStats.Conflicts, 100u) << IR;
  }
}

// The seeded PR55287 defect also lowers x - (x/y)*z with z != y. The
// rewrite needs the same divisor term, so the miscompile stays visible,
// and its counterexample is a real one.
TEST(TVTest, RemRecomposeWithOtherMultiplierStaysIncorrect) {
  const std::string Src = R"(
define i8 @src(i8 %x, i8 %y, i8 %z) {
  %d = udiv i8 %x, %y
  %m = mul i8 %d, %z
  %r = sub i8 %x, %m
  ret i8 %r
}
)";
  const std::string Tgt = R"(
define i8 @tgt(i8 %x, i8 %y, i8 %z) {
  %r = urem i8 %x, %y
  ret i8 %r
}
)";
  TVOptions Opts;
  Opts.SolverConflictBudget = 4000;
  TVResult R = check(Src + Tgt, Opts);
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  ASSERT_EQ(R.CounterExample.size(), 3u);
  ExecResult S = replay(Src, "src", R.CounterExample);
  ExecResult T = replay(Tgt, "tgt", R.CounterExample);
  ASSERT_EQ(S.Status, ExecStatus::Ok);
  ASSERT_EQ(T.Status, ExecStatus::Ok);
  EXPECT_FALSE(S.Ret.anyPoison());
  EXPECT_FALSE(T.Ret.anyPoison());
  EXPECT_NE(S.Ret.lane().Val, T.Ret.lane().Val);
}

//===----------------------------------------------------------------------===//
// Opaque pointer arguments are proven symbolically under the concrete
// trials' pointer model.
//===----------------------------------------------------------------------===//

namespace {

/// Checks that every pointer in \p R's counterexample is what a concrete
/// trial would pass: null only without nonnull, otherwise the next
/// allocate(max(dereferenceable, 8), 8) of a fresh Memory — the rule the
/// benchmark's gate rebuilds counterexamples by.
void expectAllocatorAddresses(const Function &Src, const TVResult &R) {
  ASSERT_EQ(R.CounterExample.size(), Src.getNumArgs());
  Memory Mem;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
    if (!Src.getArg(I)->getType()->isPointerTy())
      continue;
    const Lane &P = R.CounterExample[I].lane();
    EXPECT_FALSE(P.Poison);
    uint64_t Addr = P.Val.getZExtValue();
    if (Addr == 0) {
      EXPECT_FALSE(Src.paramAttrs(I).NonNull);
      continue;
    }
    EXPECT_EQ(Addr,
              Mem.allocate(
                  std::max<uint64_t>(Src.paramAttrs(I).Dereferenceable, 8),
                  8));
  }
}

/// Options with no concrete trials, so that an Incorrect verdict comes
/// from the solver's model and its replay, never from the concrete
/// fallback an unconfirmed model takes.
TVOptions symbolicOnly() {
  TVOptions Opts;
  Opts.ExhaustiveBits = 0;
  Opts.ConcreteTrials = 0;
  return Opts;
}

} // namespace

// An unused pointer argument used to send this pair to 48 sampled trials,
// which missed the one bad input and reported "correct". The symbolic
// path finds it.
TEST(TVTest, UnusedPointerArgumentDoesNotHideMiscompile) {
  const std::string IR = R"(
define i32 @src(ptr dereferenceable(8) %p, i32 %x) {
  ret i32 %x
}
define i32 @tgt(ptr dereferenceable(8) %p, i32 %x) {
  %c = icmp eq i32 %x, 12345
  %r = select i1 %c, i32 0, i32 %x
  ret i32 %r
}
)";
  TVResult R = check(IR, symbolicOnly());
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  ASSERT_EQ(R.CounterExample.size(), 2u);
  EXPECT_EQ(R.CounterExample[0].lane().Val.getZExtValue(), 64u);
  EXPECT_EQ(R.CounterExample[1].lane().Val.getZExtValue(), 12345u);
  std::string Err;
  auto M = parseModule(IR, Err);
  ASSERT_NE(M, nullptr) << Err;
  expectAllocatorAddresses(*M->getFunction("src"), R);
  ExecResult S = replay(IR, "src", R.CounterExample);
  ExecResult T = replay(IR, "tgt", R.CounterExample);
  ASSERT_EQ(S.Status, ExecStatus::Ok);
  ASSERT_EQ(T.Status, ExecStatus::Ok);
  EXPECT_NE(S.Ret.lane().Val, T.Ret.lane().Val);
}

// A source that is UB on every input is refined by anything. With an
// unused pointer argument this used to be "inconclusive" (every trial
// vacuous) while the integer-only twin was proven; both are now proven.
TEST(TVTest, AlwaysUBSourceVerdictIgnoresUnusedPointer) {
  TVResult Plain = check(R"(
define i1 @src(i1 %x) {
  %d = sdiv i1 -1, 0
  ret i1 %d
}
define i1 @tgt(i1 %x) {
  ret i1 true
}
)");
  TVResult WithPtr = check(R"(
define i1 @src(ptr %p, i1 %x) {
  %d = sdiv i1 -1, 0
  ret i1 %d
}
define i1 @tgt(ptr %p, i1 %x) {
  ret i1 true
}
)");
  EXPECT_EQ(Plain.Verdict, TVVerdict::Correct) << Plain.Detail;
  EXPECT_EQ(WithPtr.Verdict, Plain.Verdict) << WithPtr.Detail;
  EXPECT_EQ(WithPtr.Detail, Plain.Detail);
  EXPECT_FALSE(WithPtr.UsedConcretePath);
}

// Null is a real input for a pointer without nonnull, and
// dereferenceable does not exclude it (as in the concrete trials): the
// counterexample passes null and still replays under the allocator rule.
TEST(TVTest, NullablePointerComparisonCounterexampleReplays) {
  const std::string IR = R"(
define i1 @src(ptr dereferenceable(4) %p, ptr dereferenceable(16) %q) {
  %c = icmp ult ptr %p, %q
  ret i1 %c
}
define i1 @tgt(ptr dereferenceable(4) %p, ptr dereferenceable(16) %q) {
  ret i1 true
}
)";
  TVResult R = check(IR, symbolicOnly());
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  std::string Err;
  auto M = parseModule(IR, Err);
  ASSERT_NE(M, nullptr) << Err;
  expectAllocatorAddresses(*M->getFunction("src"), R);
  // Only a null %q makes %p < %q false.
  EXPECT_EQ(R.CounterExample[1].lane().Val.getZExtValue(), 0u);
  ExecResult S = replay(IR, "src", R.CounterExample);
  ASSERT_EQ(S.Status, ExecStatus::Ok);
  EXPECT_TRUE(S.Ret.lane().Val.isZero());

  // With both pointers nonnull, %p's buffer always precedes %q's.
  TVResult N = check(R"(
define i1 @src(ptr nonnull dereferenceable(4) %p, ptr nonnull %q) {
  %c = icmp ult ptr %p, %q
  ret i1 %c
}
define i1 @tgt(ptr nonnull dereferenceable(4) %p, ptr nonnull %q) {
  ret i1 true
}
)");
  EXPECT_EQ(N.Verdict, TVVerdict::Correct) << N.Detail;
  EXPECT_FALSE(N.UsedConcretePath);
}

namespace {

/// The volatile counter \p Name of \p Stats.
uint64_t volatileCount(StatRegistry &Stats, const char *Name) {
  return Stats.counter(Name, Volatility::Volatile);
}

/// Expects \p IR's pair proven correct before SAT: no blasting, no search.
void expectProvenBeforeSAT(const std::string &IR) {
  StatRegistry Stats;
  TVResult R = check(IR, symbolicOnly(), &Stats);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_EQ(R.Detail, "refinement proven for all inputs");
  EXPECT_FALSE(R.UsedConcretePath);
  EXPECT_EQ(volatileCount(Stats, "tv.query.decided-before-sat"), 1u);
  EXPECT_EQ(R.BlastSeconds, 0.0);
  EXPECT_EQ(R.SolveSeconds, 0.0);
  EXPECT_EQ(R.SolverStats.Decisions + R.SolverStats.Propagations +
                R.SolverStats.Conflicts,
            0u);
}

} // namespace

// A source whose only use of a 64-bit quotient is a dead urem's divisor:
// its UB needs the whole restoring divider. Every UB disjunct of the
// target (the noundef arguments' poison) is also one of the source's;
// left out of the target's UB, they leave "not src.UB and false", which
// folds.
TEST(TVTest, DeadDividerSourceIsProvenBeforeSAT) {
  expectProvenBeforeSAT(R"(
define i32 @src(i64 noundef %0, i64 noundef %1) {
  %3 = udiv i64 -6148914691236517206, %1
  %4 = urem i64 %0, %3
  ret i32 0
}
define i32 @tgt(i64 noundef %0, i64 noundef %1) {
  ret i32 0
}
)");
}

// icmp ugt %0, %0 is false, so the select is %0 and its poison is %0's:
// the source returns the target's term, poison and all.
TEST(TVTest, IrreflexiveSelectIsProvenBeforeSAT) {
  expectProvenBeforeSAT(R"(
define i8 @src(i32 %0) {
  %2 = icmp ugt i32 %0, %0
  %3 = udiv i32 %0, 7
  %4 = select i1 %2, i32 %3, i32 %0
  %5 = trunc i32 %4 to i8
  ret i8 %5
}
define i8 @tgt(i32 %0) {
  %2 = trunc i32 %0 to i8
  ret i8 %2
}
)");
}

// The pruning must keep the target's own UB: the same divider in the
// target alone still reaches SAT, and its counterexample is real.
TEST(TVTest, TargetOnlyDividerUBStillReachesSAT) {
  StatRegistry Stats;
  TVResult R = check(R"(
define i32 @src(i64 noundef %0, i64 noundef %1) {
  ret i32 0
}
define i32 @tgt(i64 noundef %0, i64 noundef %1) {
  %3 = udiv i64 -6148914691236517206, %1
  %4 = urem i64 %0, %3
  ret i32 0
}
)",
                     symbolicOnly(), &Stats);
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  EXPECT_EQ(volatileCount(Stats, "tv.query.decided-before-sat"), 0u);
  EXPECT_GT(R.BlastSeconds, 0.0);
  EXPECT_NE(R.Detail.find("target has UB"), std::string::npos) << R.Detail;
}

// Every inconclusive symbolic result falls back to the concrete trials,
// and the stats name its cause: an exhausted conflict budget, or a solver
// model the concrete replay did not confirm.
TEST(TVTest, SymbolicFallbackIsCountedByCause) {
  // Associativity of an i8 multiply needs search; one conflict is not
  // enough.
  TVOptions OneConflict;
  OneConflict.SolverConflictBudget = 1;
  StatRegistry Budget;
  TVResult R = check(R"(
define i8 @src(i8 %x, i8 %y, i8 %z) {
  %a = mul i8 %x, %y
  %b = mul i8 %a, %z
  ret i8 %b
}
define i8 @tgt(i8 %x, i8 %y, i8 %z) {
  %a = mul i8 %y, %z
  %b = mul i8 %x, %a
  ret i8 %b
}
)",
                     OneConflict, &Budget);
  EXPECT_EQ(tvVerdictReason(R), "inconclusive.budget") << R.Detail;
  EXPECT_EQ(volatileCount(Budget, "tv.symbolic.fallback.budget"), 1u);
  EXPECT_EQ(volatileCount(Budget, "tv.symbolic.fallback.unconfirmed-model"),
            0u);

  // freeze of poison is a fresh value to the solver, which can pick a
  // nonzero one, and 0 to the interpreter, which then sees no violation.
  StatRegistry Unconfirmed;
  R = check(R"(
define i8 @src(i8 noundef %x) {
  %a = add nuw i8 %x, 255
  %f = freeze i8 %a
  ret i8 %f
}
define i8 @tgt(i8 noundef %x) {
  %c = icmp eq i8 %x, 0
  %r = select i1 %c, i8 255, i8 0
  ret i8 %r
}
)",
            TVOptions(), &Unconfirmed);
  EXPECT_EQ(tvVerdictReason(R), "inconclusive.unconfirmed-model")
      << R.Detail;
  EXPECT_EQ(volatileCount(Unconfirmed, "tv.symbolic.fallback.budget"), 0u);
  EXPECT_EQ(
      volatileCount(Unconfirmed, "tv.symbolic.fallback.unconfirmed-model"),
      1u);
}

//===- tests/bitblaster_test.cpp - Bit-blaster cross-check tests -----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Cross-checks the three semantic layers of the SMT stack:
/// the Term evaluator, the bit-blaster+SAT pipeline, and APInt.
///
//===----------------------------------------------------------------------===//

#include "smt/BitBlaster.h"
#include "support/RandomGenerator.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Builds a random binary/unary term over variables X, Y using every kind.
TermRef buildKind(TermBuilder &B, TermKind K, TermRef X, TermRef Y,
                  unsigned W) {
  switch (K) {
  case TermKind::And:
    return B.mkAnd(X, Y);
  case TermKind::Or:
    return B.mkOr(X, Y);
  case TermKind::Xor:
    return B.mkXor(X, Y);
  case TermKind::Not:
    return B.mkNot(X);
  case TermKind::Add:
    return B.mkAdd(X, Y);
  case TermKind::Sub:
    return B.mkSub(X, Y);
  case TermKind::Mul:
    return B.mkMul(X, Y);
  case TermKind::UDiv:
    return B.mkUDiv(X, Y);
  case TermKind::URem:
    return B.mkURem(X, Y);
  case TermKind::SDiv:
    return B.mkSDiv(X, Y);
  case TermKind::SRem:
    return B.mkSRem(X, Y);
  case TermKind::Shl:
    return B.mkShl(X, Y);
  case TermKind::LShr:
    return B.mkLShr(X, Y);
  case TermKind::AShr:
    return B.mkAShr(X, Y);
  case TermKind::Eq:
    return B.mkEq(X, Y);
  case TermKind::Ult:
    return B.mkUlt(X, Y);
  case TermKind::Slt:
    return B.mkSlt(X, Y);
  case TermKind::ZExt:
    return B.mkZExt(X, W + 3);
  case TermKind::SExt:
    return B.mkSExt(X, W + 3);
  case TermKind::Trunc:
    return W > 1 ? B.mkTrunc(X, W - 1) : X;
  default:
    return X;
  }
}

const TermKind AllKinds[] = {
    TermKind::And,  TermKind::Or,   TermKind::Xor,  TermKind::Not,
    TermKind::Add,  TermKind::Sub,  TermKind::Mul,  TermKind::UDiv,
    TermKind::URem, TermKind::SDiv, TermKind::SRem, TermKind::Shl,
    TermKind::LShr, TermKind::AShr, TermKind::Eq,   TermKind::Ult,
    TermKind::Slt,  TermKind::ZExt, TermKind::SExt, TermKind::Trunc};

} // namespace

// Property: with inputs pinned to concrete values, the SAT model of a term
// equals the Term evaluator's result, for every term kind and many widths.
class BlasterKindTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlasterKindTest, BlastAgreesWithEvaluate) {
  unsigned W = GetParam();
  RandomGenerator RNG(100 + W);
  for (TermKind K : AllKinds) {
    for (int Trial = 0; Trial != 8; ++Trial) {
      TermBuilder B;
      TermRef X = B.mkVar(W, "x");
      TermRef Y = B.mkVar(W, "y");
      TermRef T = buildKind(B, K, X, Y, W);

      APInt XV = RNG.nextAPInt(W), YV = RNG.nextAPInt(W);
      std::map<unsigned, APInt> Assign{{X->VarId, XV}, {Y->VarId, YV}};
      APInt Expected = B.evaluate(T, Assign);

      SatSolver S;
      BitBlaster BB(S);
      BB.assertTrue(B.mkEq(X, B.mkConst(XV)));
      BB.assertTrue(B.mkEq(Y, B.mkConst(YV)));
      const auto &Bits = BB.blast(T);
      (void)Bits;
      ASSERT_EQ(S.solve(), SatSolver::Result::Sat)
          << "kind " << (int)K << " width " << W;
      EXPECT_EQ(BB.modelValue(T), Expected)
          << "kind " << (int)K << " width " << W << " x=" << XV.toString()
          << " y=" << YV.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlasterKindTest,
                         ::testing::Values(1, 2, 3, 7, 8, 13, 16));

TEST(BlasterTest, AlgebraicIdentitiesAreUnsat) {
  // Each identity is asserted to FAIL for some input; UNSAT proves it holds
  // universally.
  struct Identity {
    const char *Name;
    std::function<TermRef(TermBuilder &, TermRef, TermRef)> Make;
  };
  const unsigned W = 8;
  std::vector<Identity> Identities = {
      {"x+y == y+x",
       [](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkAdd(X, Y), B.mkAdd(Y, X));
       }},
      {"x-x == 0",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkSub(X, X), B.mkConst(W, 0));
       }},
      {"x*2 == x+x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkMul(X, B.mkConst(W, 2)), B.mkAdd(X, X));
       }},
      {"x<<1 == x*2",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkShl(X, B.mkConst(W, 1)),
                       B.mkMul(X, B.mkConst(W, 2)));
       }},
      {"de morgan",
       [](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkNot(B.mkAnd(X, Y)),
                       B.mkOr(B.mkNot(X), B.mkNot(Y)));
       }},
      {"y!=0 -> (x udiv y)*y + (x urem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef NZ = B.mkNe(Y, B.mkConst(W, 0));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkUDiv(X, Y), Y), B.mkURem(X, Y)), X);
         return B.mkAnd(NZ, B.mkNot(Id));
       }},
      {"y!=0 -> (x sdiv y)*y + (x srem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef NZ = B.mkNe(Y, B.mkConst(W, 0));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkSDiv(X, Y), Y), B.mkSRem(X, Y)), X);
         return B.mkAnd(NZ, B.mkNot(Id));
       }},
      // The builder rewrites (x/y)*y away, so the two rows above no longer
      // reach a multiplier. Multiplying by a z the builder cannot tell is
      // y still proves the restoring divider against the multiplier.
      {"y!=0, z==y -> (x udiv y)*z + (x urem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef Z = B.mkVar(W, "z");
         TermRef Pre = B.mkAnd(B.mkNe(Y, B.mkConst(W, 0)), B.mkEq(Z, Y));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkUDiv(X, Y), Z), B.mkURem(X, Y)), X);
         return B.mkAnd(Pre, B.mkNot(Id));
       }},
      {"y!=0, z==y -> (x sdiv y)*z + (x srem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef Z = B.mkVar(W, "z");
         TermRef Pre = B.mkAnd(B.mkNe(Y, B.mkConst(W, 0)), B.mkEq(Z, Y));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkSDiv(X, Y), Z), B.mkSRem(X, Y)), X);
         return B.mkAnd(Pre, B.mkNot(Id));
       }},
      {"slt == ult with flipped signs",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef Flip = B.mkConst(APInt::getSignedMinValue(W));
         return B.mkNe(B.mkSlt(X, Y),
                       B.mkUlt(B.mkXor(X, Flip), B.mkXor(Y, Flip)));
       }},
      {"zext-trunc keeps low bits",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkTrunc(B.mkZExt(X, W + 4), W), X);
       }},
      {"ashr sign fill",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         // (x ashr 7) is 0 or -1 for i8.
         TermRef Sh = B.mkAShr(X, B.mkConst(W, W - 1));
         return B.mkAnd(B.mkNe(Sh, B.mkConst(W, 0)),
                        B.mkNe(Sh, B.mkConst(APInt::getAllOnes(W))));
       }},
  };

  for (const auto &Id : Identities) {
    TermBuilder B;
    TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(Id.Make(B, X, Y));
    EXPECT_EQ(S.solve(), SatSolver::Result::Unsat) << Id.Name;
  }
}

TEST(BlasterTest, FindsCounterexamples) {
  // x * y == y is NOT an identity; the model must be a real countermodel.
  const unsigned W = 8;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
  SatSolver S;
  BitBlaster BB(S);
  TermRef Claim = B.mkNe(B.mkMul(X, Y), Y);
  BB.assertTrue(Claim);
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  auto Assign = BB.extractAssignment();
  EXPECT_EQ(B.evaluate(Claim, Assign), APInt(1, 1));
  EXPECT_NE(BB.modelValue(X) * BB.modelValue(Y), BB.modelValue(Y));
}

TEST(BlasterTest, IteSelects) {
  const unsigned W = 4;
  TermBuilder B;
  TermRef C = B.mkVar(1, "c");
  TermRef T = B.mkIte(C, B.mkConst(W, 5), B.mkConst(W, 9));
  {
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(C);
    const auto &Bits = BB.blast(T);
    (void)Bits;
    ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
    EXPECT_EQ(BB.modelValue(T).getZExtValue(), 5u);
  }
  {
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(B.mkNot(C));
    const auto &Bits = BB.blast(T);
    (void)Bits;
    ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
    EXPECT_EQ(BB.modelValue(T).getZExtValue(), 9u);
  }
}

TEST(TermBuilderTest, HashConsing) {
  TermBuilder B;
  TermRef X = B.mkVar(8, "x");
  EXPECT_EQ(B.mkAdd(X, B.mkConst(8, 1)), B.mkAdd(X, B.mkConst(8, 1)));
  EXPECT_NE(B.mkAdd(X, B.mkConst(8, 1)), B.mkAdd(X, B.mkConst(8, 2)));
  // Constant folding in the builder.
  EXPECT_TRUE(B.mkAdd(B.mkConst(8, 3), B.mkConst(8, 4))->isConst());
  EXPECT_EQ(B.mkAdd(B.mkConst(8, 3), B.mkConst(8, 4))->ConstVal.getZExtValue(),
            7u);
  // Not-not cancellation and ite folding.
  EXPECT_EQ(B.mkNot(B.mkNot(X)), X);
  EXPECT_EQ(B.mkIte(B.mkTrue(), X, B.mkConst(8, 0)), X);
  EXPECT_EQ(B.mkIte(B.mkVar(1, "c"), X, X), X);
}

namespace {

/// Widths up to which the rewrite test blasts every point: one fresh
/// solver per point is too slow for the 2^16 pairs of width 8.
constexpr unsigned MaxPointwiseBlastWidth = 6;

/// Checks that \p T, with every variable of \p Pins fixed to its value,
/// evaluates to \p Expected, and blasts to it when \p Blast is set.
void expectValue(TermBuilder &B, TermRef T,
                 const std::vector<std::pair<TermRef, APInt>> &Pins,
                 const APInt &Expected, bool Blast, const std::string &What) {
  std::map<unsigned, APInt> Assign;
  for (const auto &[Var, V] : Pins)
    Assign.emplace(Var->VarId, V);
  ASSERT_EQ(B.evaluate(T, Assign), Expected) << What;
  if (!Blast)
    return;
  SatSolver S;
  BitBlaster BB(S);
  for (const auto &[Var, V] : Pins)
    BB.assertTrue(B.mkEq(Var, B.mkConst(V)));
  BB.blast(T);
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat) << What;
  ASSERT_EQ(BB.modelValue(T), Expected) << What;
}

} // namespace

// The builder rewrites (a/b)*b to a - a%b, a - (a - c) to c and
// (a - c) + c to a, so a wrong rule would make the checker call a
// miscompile correct. Check each against APInt by brute force: every
// width up to 8 (6 for the rules with a third operand), every operand
// value, b == 0 and INT_MIN sdiv -1 included, both quotient sides. The
// rewritten term's evaluation must equal the value computed without the
// rewrite, and so must its blasted model: point by point up to width 6,
// and above it by proving the rewritten circuit equal to the multiplier
// it replaced, reached through a z == y the builder cannot match.
TEST(TermBuilderTest, DivisorRewritesAreSoundExhaustively) {
  for (unsigned W = 1; W <= 8; ++W) {
    TermBuilder B;
    TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
    bool Blast = W <= MaxPointwiseBlastWidth;
    for (bool Signed : {false, true}) {
      TermRef Q = Signed ? B.mkSDiv(X, Y) : B.mkUDiv(X, Y);
      TermRef Rem = Signed ? B.mkSRem(X, Y) : B.mkURem(X, Y);
      TermRef Left = B.mkMul(Q, Y), Right = B.mkMul(Y, Q);
      // The rule fires on both sides, and a - (a/b)*b becomes a % b.
      ASSERT_EQ(Left->Kind, TermKind::Sub);
      ASSERT_EQ(Right, Left);
      ASSERT_EQ(B.mkSub(X, Left), Rem);
      for (uint64_t AV = 0; AV >> W == 0; ++AV)
        for (uint64_t DV = 0; DV >> W == 0; ++DV) {
          APInt A(W, AV), D(W, DV);
          APInt Quot = D.isZero() ? APInt::getZero(W)
                       : Signed   ? A.sdiv(D)
                                  : A.udiv(D);
          std::string What = std::string(Signed ? "sdiv" : "udiv") +
                             " width " + std::to_string(W) + ": " +
                             A.toString() + ", " + D.toString();
          ASSERT_NO_FATAL_FAILURE(
              expectValue(B, Left, {{X, A}, {Y, D}}, Quot * D, Blast, What));
        }
      if (Blast)
        continue;
      TermRef Z = B.mkVar(W, "z");
      TermRef Product = B.mkMul(Q, Z);
      ASSERT_EQ(Product->Kind, TermKind::Mul);
      SatSolver S;
      BitBlaster BB(S);
      BB.assertTrue(B.mkEq(Z, Y));
      BB.assertTrue(B.mkNe(Left, Product));
      EXPECT_EQ(S.solve(), SatSolver::Result::Unsat)
          << (Signed ? "sdiv" : "udiv") << " width " << W;
    }
    if (!Blast)
      continue;
    TermRef C = B.mkVar(W, "c");
    TermRef XMinusC = B.mkSub(X, C);
    TermRef SubSub = B.mkSub(X, XMinusC);
    TermRef AddLeft = B.mkAdd(XMinusC, C), AddRight = B.mkAdd(C, XMinusC);
    ASSERT_EQ(SubSub, C);
    ASSERT_EQ(AddLeft, X);
    ASSERT_EQ(AddRight, X);
    for (uint64_t AV = 0; AV >> W == 0; ++AV)
      for (uint64_t CV = 0; CV >> W == 0; ++CV) {
        APInt A(W, AV), CC(W, CV);
        std::string What = "width " + std::to_string(W) + ": " +
                           A.toString() + ", " + CC.toString();
        for (TermRef T : {SubSub, AddLeft, AddRight})
          ASSERT_NO_FATAL_FAILURE(
              expectValue(B, T, {{X, A}, {C, CC}},
                          T == C ? A - (A - CC) : (A - CC) + CC, true, What));
      }
  }
}

// The rules match the divisor by term identity: (x udiv y) * z with z != y
// is the shape of the seeded PR55287 defect and must stay a multiply, and
// near misses of the sub and add rules must stay as built.
TEST(TermBuilderTest, DivisorRewritesNeedTheSameTerm) {
  const unsigned W = 8;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y"), Z = B.mkVar(W, "z");
  for (TermRef Q : {B.mkUDiv(X, Y), B.mkSDiv(X, Y)}) {
    EXPECT_EQ(B.mkMul(Q, Z)->Kind, TermKind::Mul);
    EXPECT_EQ(B.mkMul(Z, Q)->Kind, TermKind::Mul);
    EXPECT_EQ(B.mkMul(Q, X)->Kind, TermKind::Mul);
    EXPECT_EQ(B.mkSub(X, B.mkMul(Q, Z))->Kind, TermKind::Sub);
  }
  // A divisor equal in value but built as a different term.
  TermRef SameY = B.mkTrunc(B.mkZExt(Y, 2 * W), W);
  EXPECT_EQ(B.mkMul(B.mkUDiv(X, Y), SameY)->Kind, TermKind::Mul);
  TermRef YMinusX = B.mkSub(Y, X);
  EXPECT_EQ(B.mkSub(X, YMinusX)->Kind, TermKind::Sub);
  EXPECT_EQ(B.mkSub(Z, B.mkSub(X, Y))->Kind, TermKind::Sub);
  EXPECT_EQ(B.mkAdd(B.mkSub(X, Y), Z)->Kind, TermKind::Add);
  EXPECT_EQ(B.mkAdd(YMinusX, Y)->Kind, TermKind::Add);
}

TEST(TermBuilderTest, EvaluateDeepChain) {
  // A long linear chain must not overflow the evaluator (explicit stack).
  TermBuilder B;
  TermRef X = B.mkVar(16, "x");
  TermRef T = X;
  for (int I = 0; I != 20000; ++I)
    T = B.mkAdd(T, B.mkConst(16, 1));
  std::map<unsigned, APInt> Assign{{X->VarId, APInt(16, 5)}};
  EXPECT_EQ(B.evaluate(T, Assign).getZExtValue(), (5 + 20000) & 0xFFFF);
}

// Structural gate hashing: AND is commutative, so both operand orders must
// reach the same gate.
TEST(BlasterTest, CommutedAndSharesOneGate) {
  TermBuilder B;
  TermRef X = B.mkVar(1, "x"), Y = B.mkVar(1, "y");
  SatSolver S;
  BitBlaster BB(S);
  Lit XY = BB.blastBit(B.mkAnd(X, Y));
  int Vars = S.numVars();
  EXPECT_EQ(BB.blastBit(B.mkAnd(Y, X)), XY);
  EXPECT_EQ(S.numVars(), Vars);
}

// Input negations of XOR fold into the sign of the output literal.
TEST(BlasterTest, XorInputNegationFoldsIntoOutput) {
  TermBuilder B;
  TermRef X = B.mkVar(1, "x"), Y = B.mkVar(1, "y");
  SatSolver S;
  BitBlaster BB(S);
  Lit XY = BB.blastBit(B.mkXor(X, Y));
  int Vars = S.numVars();
  EXPECT_EQ(BB.blastBit(B.mkXor(B.mkNot(X), Y)), -XY);
  EXPECT_EQ(BB.blastBit(B.mkXor(Y, B.mkNot(X))), -XY);
  EXPECT_EQ(BB.blastBit(B.mkXor(B.mkNot(X), B.mkNot(Y))), XY);
  EXPECT_EQ(S.numVars(), Vars);
}

// A second multiplier over the same literals — reached from a different
// term, as the source and target of a refinement query do — is the first
// one: no new solver variable, identical output bits.
TEST(BlasterTest, IdenticalMultiplierAddsNoVariables) {
  const unsigned W = 13;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
  TermRef SameX = B.mkTrunc(B.mkZExt(X, 64), W);
  TermRef SameY = B.mkTrunc(B.mkSExt(Y, 32), W);
  TermRef First = B.mkMul(X, Y), Second = B.mkMul(SameX, SameY);
  ASSERT_NE(First, Second);
  SatSolver S;
  BitBlaster BB(S);
  std::vector<Lit> FirstBits = BB.blast(First);
  int Vars = S.numVars();
  EXPECT_EQ(BB.blast(Second), FirstBits);
  EXPECT_EQ(S.numVars(), Vars);
}

// Multiplication commutes, its circuit does not: both operand orders must
// blast to one multiplier, with or without a constant operand.
TEST(BlasterTest, CommutedMultiplierAddsNoVariables) {
  const unsigned W = 8;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
  TermRef C = B.mkConst(W, 0xA5);
  SatSolver S;
  BitBlaster BB(S);
  std::vector<Lit> XY = BB.blast(B.mkMul(X, Y));
  std::vector<Lit> XC = BB.blast(B.mkMul(X, C));
  int Vars = S.numVars();
  EXPECT_EQ(BB.blast(B.mkMul(Y, X)), XY);
  EXPECT_EQ(BB.blast(B.mkMul(C, X)), XC);
  EXPECT_EQ(S.numVars(), Vars);
}

// The low W bits of the 2W-bit product of extended operands are the W-bit
// product's own gates, so an overflow check never duplicates the product.
TEST(BlasterTest, WideExtendedProductSharesLowHalf) {
  const unsigned W = 8;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
  SatSolver S;
  BitBlaster BB(S);
  std::vector<Lit> Narrow = BB.blast(B.mkMul(X, Y));
  for (TermRef Wide : {B.mkMul(B.mkZExt(X, 2 * W), B.mkZExt(Y, 2 * W)),
                       B.mkMul(B.mkSExt(Y, 2 * W), B.mkSExt(X, 2 * W))}) {
    const std::vector<Lit> &Bits = BB.blast(Wide);
    EXPECT_EQ(std::vector<Lit>(Bits.begin(), Bits.begin() + W), Narrow);
  }
}

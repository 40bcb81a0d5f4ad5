//===- smt/Term.h - Bit-vector term DAG ------------------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed bit-vector terms — the intermediate language between the IR
/// and the SAT solver. The refinement checker encodes source and target
/// functions as terms (value + poison + UB wires), and the bit-blaster
/// lowers terms to CNF. A concrete evaluator over terms supports model
/// confirmation and encoder cross-checking.
///
//===----------------------------------------------------------------------===//

#ifndef SMT_TERM_H
#define SMT_TERM_H

#include "support/APInt.h"

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace alive {

enum class TermKind {
  Var,   ///< free bit-vector variable
  Const, ///< literal APInt
  // Bitwise.
  And,
  Or,
  Xor,
  Not,
  // Arithmetic (modulo 2^w).
  Add,
  Sub,
  Mul,
  UDiv, ///< total: divisor 0 gives quotient 0, and URem/SRem the dividend
  URem,
  SDiv,
  SRem,
  Shl,  ///< oversized shift amount yields 0 (guarded by poison wires)
  LShr,
  AShr,
  // Predicates: width-1 results.
  Eq,
  Ult,
  Slt,
  // Structure.
  Ite, ///< ops: cond (w=1), then, else
  ZExt,
  SExt,
  Trunc,
};

class TermBuilder;

/// An immutable, hash-consed term node.
struct Term {
  TermKind Kind;
  unsigned Width;
  std::vector<const Term *> Ops;
  APInt ConstVal;    ///< Const only
  unsigned VarId = 0; ///< Var only
  std::string VarName; ///< Var only, for diagnostics

  bool isConst() const { return Kind == TermKind::Const; }
  bool isConstZero() const { return isConst() && ConstVal.isZero(); }
  bool isConstOnes() const { return isConst() && ConstVal.isAllOnes(); }
};

using TermRef = const Term *;

/// The value of an operator node of \p Kind and \p Width over its operand
/// values \p Ops, under the total convention (divisor 0: quotient 0,
/// remainder the dividend; INT_MIN sdiv -1 wraps; a shift by W or more
/// gives 0, or the sign fill for ashr). TermBuilder's constant folding and
/// TermBuilder::evaluate both call it, so the two cannot disagree.
APInt evaluateKind(TermKind Kind, unsigned Width, std::span<const APInt> Ops);

/// Owns terms and interns them structurally. All terms from one builder
/// share its lifetime.
///
/// Every mk* folds a node whose operands are all constants, and the
/// bitwise ones apply the identities x&0, x&~0, x&x, x&~x and their |, ^
/// duals (x and ~x matched by term identity); x <u x and x <s x are
/// false. So a node of the requested kind is not always what comes back.
class TermBuilder {
public:
  TermBuilder() = default;
  TermBuilder(const TermBuilder &) = delete;
  TermBuilder &operator=(const TermBuilder &) = delete;

  /// Fresh free variable of \p Width bits.
  TermRef mkVar(unsigned Width, const std::string &Name = "");
  TermRef mkConst(const APInt &V);
  TermRef mkConst(unsigned Width, uint64_t V) {
    return mkConst(APInt(Width, V));
  }
  TermRef mkTrue() { return mkConst(1, 1); }
  TermRef mkFalse() { return mkConst(1, 0); }
  TermRef mkBool(bool B) { return mkConst(1, B ? 1 : 0); }

  TermRef mkNot(TermRef A);
  TermRef mkAnd(TermRef A, TermRef B);
  TermRef mkOr(TermRef A, TermRef B);
  TermRef mkXor(TermRef A, TermRef B);
  /// mkAdd, mkSub and mkMul rewrite (a/b)*b to a - a%b, a - (a - c) to c
  /// and (a - c) + c to a, so they need not return a node of their kind.
  TermRef mkAdd(TermRef A, TermRef B);
  TermRef mkSub(TermRef A, TermRef B);
  TermRef mkMul(TermRef A, TermRef B);
  TermRef mkUDiv(TermRef A, TermRef B);
  TermRef mkURem(TermRef A, TermRef B);
  TermRef mkSDiv(TermRef A, TermRef B);
  TermRef mkSRem(TermRef A, TermRef B);
  TermRef mkShl(TermRef A, TermRef B);
  TermRef mkLShr(TermRef A, TermRef B);
  TermRef mkAShr(TermRef A, TermRef B);
  TermRef mkEq(TermRef A, TermRef B);
  TermRef mkNe(TermRef A, TermRef B) { return mkNot(mkEq(A, B)); }
  TermRef mkUlt(TermRef A, TermRef B);
  TermRef mkUle(TermRef A, TermRef B) { return mkNot(mkUlt(B, A)); }
  TermRef mkSlt(TermRef A, TermRef B);
  TermRef mkSle(TermRef A, TermRef B) { return mkNot(mkSlt(B, A)); }
  TermRef mkIte(TermRef C, TermRef T, TermRef E);
  TermRef mkZExt(TermRef A, unsigned Width);
  TermRef mkSExt(TermRef A, unsigned Width);
  TermRef mkTrunc(TermRef A, unsigned Width);

  /// Boolean (width-1) conveniences.
  TermRef mkImplies(TermRef A, TermRef B) { return mkOr(mkNot(A), B); }

  /// Number of distinct variables created so far.
  unsigned numVars() const { return NextVarId; }

  /// Concretely evaluates \p T under an assignment of variable ids to
  /// values, with evaluateKind's total convention (callers guard real
  /// division UB with separate wires).
  APInt evaluate(TermRef T,
                 const std::map<unsigned, APInt> &VarAssign) const;

private:
  TermRef intern(Term &&T);
  /// Kind(Ops) of \p Width: folded to a constant when every operand is
  /// one, interned as is otherwise.
  TermRef mkNode(TermKind Kind, unsigned Width,
                 std::initializer_list<TermRef> Ops);
  /// mkNode(Kind, A's width, {A, B}).
  TermRef mkBinary(TermKind Kind, TermRef A, TermRef B);

  struct Key {
    TermKind Kind;
    unsigned Width;
    std::vector<TermRef> Ops;
    std::pair<uint64_t, uint64_t> ConstParts;
    unsigned VarId;
    bool operator==(const Key &O) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };
  /// Only ever looked up, never iterated: terms and variable ids are
  /// created in call order whatever the table's layout.
  std::unordered_map<Key, std::unique_ptr<Term>, KeyHash> Pool;
  unsigned NextVarId = 0;
};

// Word-level facts that hold for every assignment, read off the term's
// structure alone (constants and extensions). They let the encoder drop
// provably dead overflow checks before bit-blasting. They deliberately do
// not use analysis/KnownBits: the optimizer under test uses that
// analysis, so a bug in it must not blind the checker to the very
// miscompile it enables.

/// Number of high bits known to be zero.
unsigned knownLeadingZeros(TermRef T);
/// Number of high bits known to equal the sign bit, the sign bit included
/// (at least 1).
unsigned knownSignBits(TermRef T);
/// True when the unsigned product of \p A and \p B never wraps:
/// lz(A) + lz(B) >= W (LLVM's computeOverflowForUnsignedMul).
bool mulNeverOverflowsUnsigned(TermRef A, TermRef B);
/// True when the signed product of \p A and \p B never wraps:
/// sb(A) + sb(B) > W + 1, so |A * B| <= 2^(W-2).
bool mulNeverOverflowsSigned(TermRef A, TermRef B);

} // namespace alive

#endif // SMT_TERM_H

//===- smt/BitBlaster.h - Term -> CNF lowering -----------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers bit-vector terms to CNF via Tseitin encoding: ripple-carry
/// adders, shift-add multipliers, restoring dividers, barrel shifters and
/// comparator chains. Every Term node gets a vector of SAT literals
/// (LSB first); results are cached so the DAG is lowered once.
///
/// Every circuit is built from two structurally hashed gates, AND and XOR:
/// a gate over an operand pair already seen returns the existing output
/// literal. Identical sub-circuits over the same literals therefore
/// collapse to one, whichever terms they were reached from — the source
/// and target of a refinement query share every multiplier, adder and
/// comparator they compute alike, and the solver never has to prove two
/// copies of a circuit equal.
///
//===----------------------------------------------------------------------===//

#ifndef SMT_BITBLASTER_H
#define SMT_BITBLASTER_H

#include "smt/SatSolver.h"
#include "smt/Term.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace alive {

/// Lowers terms into clauses of a SatSolver.
class BitBlaster {
public:
  explicit BitBlaster(SatSolver &Solver);

  /// Lowers \p T; \returns its bits, LSB first.
  const std::vector<Lit> &blast(TermRef T);

  /// Lowers a width-1 term to a single literal.
  Lit blastBit(TermRef T) {
    assert(T->Width == 1 && "blastBit on wide term");
    return blast(T)[0];
  }

  /// Asserts that the width-1 term \p T is true.
  void assertTrue(TermRef T) { Solver.addClause(blastBit(T)); }

  /// The literal that is constant true.
  Lit trueLit() const { return TrueLit; }

  /// After a Sat result: extracts the model value of \p T.
  APInt modelValue(TermRef T);

  /// After a Sat result: extracts the assignment of every Var term seen
  /// during blasting, keyed by VarId.
  std::map<unsigned, APInt> extractAssignment();

private:
  // Gate constructors (Tseitin). AND and XOR are structurally hashed;
  // OR and MUX are built from them.
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkMux(Lit Sel, Lit T, Lit E);

  /// Open-addressing table from a normalized gate operand pair to the
  /// gate's output literal. It is only ever looked up, never iterated, so
  /// its layout cannot reach the CNF.
  class GateTable {
  public:
    /// The output slot for operands (\p A, \p B): the existing gate's
    /// literal, or 0 for a new entry the caller must fill.
    Lit &slot(Lit A, Lit B);

  private:
    struct Entry {
      uint64_t Key = 0; ///< 0 marks an empty slot (literals are nonzero)
      Lit Out = 0;
    };
    void grow();
    std::vector<Entry> Entries;
    size_t Used = 0;
  };

  Lit freshLit() { return Solver.newVar(); }

  std::vector<Lit> addBits(const std::vector<Lit> &A,
                           const std::vector<Lit> &B, Lit CarryIn);
  std::vector<Lit> negate(const std::vector<Lit> &A);
  std::vector<Lit> mulBits(const std::vector<Lit> &A,
                           const std::vector<Lit> &B);
  /// Unsigned division: fills Quot and Rem. When B == 0 the outputs follow
  /// the total convention (Quot = 0, Rem = A), matching Term evaluation.
  void udivrem(const std::vector<Lit> &A, const std::vector<Lit> &B,
               std::vector<Lit> &Quot, std::vector<Lit> &Rem);
  /// Borrow-out of A - B, i.e. the literal for (A ult B).
  Lit ultBit(const std::vector<Lit> &A, const std::vector<Lit> &B);
  Lit eqBit(const std::vector<Lit> &A, const std::vector<Lit> &B);
  std::vector<Lit> shiftBits(TermKind Kind, const std::vector<Lit> &A,
                             const std::vector<Lit> &Amt);
  std::vector<Lit> muxBits(Lit Sel, const std::vector<Lit> &T,
                           const std::vector<Lit> &E);
  Lit isZero(const std::vector<Lit> &A);

  SatSolver &Solver;
  Lit TrueLit;
  GateTable AndGates, XorGates;
  std::unordered_map<TermRef, std::vector<Lit>> Cache;
  std::map<unsigned, std::pair<unsigned, std::vector<Lit>>> VarBits;
};

} // namespace alive

#endif // SMT_BITBLASTER_H

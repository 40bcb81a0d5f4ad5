//===- smt/SatSolver.h - CDCL SAT solver -----------------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, VSIDS-style branching with phase saving, 1UIP conflict
/// analysis, and Luby restarts. This is the decision procedure underneath
/// the bit-blasted refinement queries — the role Z3 plays for Alive2.
///
//===----------------------------------------------------------------------===//

#ifndef SMT_SATSOLVER_H
#define SMT_SATSOLVER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alive {

class CancellationToken;

/// A literal: +v asserts variable v, -v asserts its negation. Variables are
/// numbered from 1.
using Lit = int;

/// CDCL SAT solver over CNF added incrementally with addClause.
class SatSolver {
public:
  enum class Result { Sat, Unsat, Unknown };

  /// Why the last solve() call stopped without an answer. Distinguishes
  /// ordinary budget exhaustion (deterministic: the query itself is too
  /// hard for the configured conflict budget) from a watchdog
  /// cancellation (the enclosing fuzzing iteration was cut off) — the two
  /// need different reporting, not one conflated "Unknown".
  enum class Stop {
    None,           ///< last solve() returned Sat or Unsat
    ConflictBudget, ///< the per-query conflict budget ran out
    Cancelled,      ///< the iteration watchdog cancelled the search
  };

  /// Cumulative search statistics (for the bench_tv harness and the
  /// per-query cost-attribution profiler). All counters are deterministic
  /// functions of the formula and budget: identical queries yield
  /// identical stats whatever thread or worker ran them.
  struct Stats {
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Conflicts = 0;
    uint64_t LearnedClauses = 0;
    /// Total literals across learned clauses, unit learnts included —
    /// learned-clause *size* is the memory-pressure signal LearnedClauses
    /// alone hides.
    uint64_t LearnedLiterals = 0;
    uint64_t Restarts = 0;
  };

  SatSolver();

  /// Allocates a fresh variable; \returns its index (>= 1).
  int newVar();
  int numVars() const { return (int)Assign.size() - 1; }

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// instance trivially unsatisfiable. Allocates nothing per clause: the
  /// literals are simplified in a reused buffer and land in the arena.
  void addClause(std::span<const Lit> Literals);
  void addClause(Lit A) { addClause(std::span<const Lit>(&A, 1)); }
  void addClause(Lit A, Lit B) {
    Lit Ls[] = {A, B};
    addClause(Ls);
  }
  void addClause(Lit A, Lit B, Lit C) {
    Lit Ls[] = {A, B, C};
    addClause(Ls);
  }

  /// Solves the current formula. \p ConflictBudget bounds the search
  /// (0 = unlimited); exceeding it yields Unknown. \p Token (optional)
  /// lets the iteration watchdog cancel the search cooperatively: the
  /// solver consumes one token step per conflict and per decision, and a
  /// cancelled search also yields Unknown — stopCause() tells the two
  /// apart.
  Result solve(uint64_t ConflictBudget = 0,
               CancellationToken *Token = nullptr);

  /// Why the last solve() stopped without a Sat/Unsat answer.
  Stop stopCause() const { return LastStop; }

  /// After Sat: the model value of \p Var.
  bool modelValue(int Var) const;

  const Stats &stats() const { return Statistics; }

private:
  enum : uint8_t { Undef = 2 };
  /// A clause's literals: Arena[Start, Start + Size). Watched literals sit
  /// at positions 0 and 1.
  struct Clause {
    uint32_t Start;
    uint32_t Size;
  };
  struct Watcher {
    unsigned ClauseIdx;
    Lit Blocker;
  };

  unsigned watchIndex(Lit L) const {
    int V = L > 0 ? L : -L;
    return 2 * V + (L < 0 ? 1 : 0);
  }
  uint8_t valueOf(Lit L) const {
    int V = L > 0 ? L : -L;
    uint8_t A = Assign[V];
    if (A == Undef)
      return Undef;
    return (L > 0) == (A == 1) ? 1 : 0;
  }
  Lit *lits(const Clause &C) { return Arena.data() + C.Start; }
  /// Stores a clause of two or more literals and watches its first two.
  /// \returns its index.
  unsigned attachClause(std::span<const Lit> Lits);
  void enqueue(Lit L, int ReasonClause);
  /// Propagates; \returns conflicting clause index or -1.
  int propagate();
  void analyze(int ConflictClause, std::vector<Lit> &Learnt,
               int &BacktrackLevel);
  void backtrack(int Level);
  void bumpVar(int V);
  void decayActivities();
  int pickBranchVar();
  static uint64_t luby(uint64_t I);

  // Assignment trail.
  std::vector<uint8_t> Assign;       // per var: 0/1/Undef
  std::vector<int> Level;            // decision level per var
  std::vector<int> Reason;           // reason clause index per var (-1 none)
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLimits; // trail size at each decision level
  size_t PropHead = 0;

  std::vector<Clause> Clauses;
  /// Every clause's literals, original and learned, back to back.
  std::vector<Lit> Arena;
  std::vector<std::vector<Watcher>> Watches; // indexed by watchIndex
  bool Unsatisfiable = false;

  // Branching heuristic.
  std::vector<double> Activity;
  std::vector<uint8_t> SavedPhase;
  double VarInc = 1.0;

  // Order heap over candidate branch variables, ranked by (activity desc,
  // index asc) — exactly the variable the old O(vars) linear scan selected,
  // found in O(log vars). Deletion is lazy: assigned variables are popped
  // at pick time and backtrack() reinserts whatever it unassigns, so every
  // unassigned variable is always present.
  bool heapRanksBefore(int A, int B) const {
    return Activity[A] > Activity[B] ||
           (Activity[A] == Activity[B] && A < B);
  }
  void heapSiftUp(size_t I);
  void heapSiftDown(size_t I);
  void heapInsert(int V);
  int heapPopTop();
  void heapRebuild();
  std::vector<int> Heap;    // heap array of variable indices
  std::vector<int> HeapPos; // var -> position in Heap, -1 when absent

  // Scratch for analyze(), and for addClause() and solve()'s learnt clause.
  std::vector<uint8_t> Seen;
  std::vector<Lit> Scratch;

  Stats Statistics;
  Stop LastStop = Stop::None;
};

} // namespace alive

#endif // SMT_SATSOLVER_H

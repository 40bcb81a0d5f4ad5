//===- tv/RefinementChecker.h - Translation validation ---------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Alive2 substitute: checks that a target function refines a source
/// function. Refinement holds when, for every input:
///
///   - if the source has undefined behavior, anything is allowed;
///   - otherwise the target must not have UB, and
///   - if the source returns poison the target may return anything;
///   - otherwise the target must return the same non-poison value (and,
///     for memory functions, leave refining contents in escaped memory).
///
/// Two proof paths:
///   1. symbolic — loop-free, memory-free integer functions, including
///      ones that only pass around or compare pointer arguments, are
///      encoded as bit-vector terms (value + poison wires + a UB
///      accumulator; pointers under the trials' pointer model, see
///      argBufferBytes) and the negated refinement condition goes to the
///      CDCL SAT solver; UNSAT is a proof over all inputs, SAT yields a
///      counterexample that is then CONFIRMED by concrete interpretation
///      (guarding against the freeze/undef encoding approximations);
///   2. concrete — functions with memory operations, vectors, external
///      calls or loops are checked by bounded enumeration: exhaustive when
///      the input domain is small, seeded sampling with corner values
///      otherwise (the documented bounded substitution for Alive2's SMT
///      memory model).
///
//===----------------------------------------------------------------------===//

#ifndef TV_REFINEMENTCHECKER_H
#define TV_REFINEMENTCHECKER_H

#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "smt/SatSolver.h"
#include "support/Cancellation.h"
#include "support/Telemetry.h"

#include <string>
#include <vector>

namespace alive {

enum class TVVerdict {
  Correct,      ///< refinement proven (symbolic) / no violation (bounded)
  Incorrect,    ///< confirmed counterexample — a miscompilation
  Unsupported,  ///< outside the checker's domain ("Alive2 error")
  Inconclusive, ///< budget exhausted or unconfirmed model
};

const char *tvVerdictName(TVVerdict V);

/// Checker configuration.
struct TVOptions {
  /// SAT conflict budget per query (0 = unlimited). Mirrors Alive2's SMT
  /// timeout: queries past the budget fall back to concrete sampling.
  uint64_t SolverConflictBudget = 150000;
  /// Number of sampled trials on the concrete path.
  unsigned ConcreteTrials = 48;
  /// Enumerate exhaustively when the summed argument width is at most this
  /// many bits.
  unsigned ExhaustiveBits = 14;
  /// Interpreter fuel per trial.
  uint64_t Fuel = 200000;
  /// Base seed for sampled trials.
  uint64_t Seed = 0xA11CE;
  /// Concrete prescreen before the symbolic path: this many cheap sampled
  /// interpreter trials run first, and a violation short-circuits the SAT
  /// query entirely (the in-process analogue of racing the interpreter
  /// against the solver — but sequential, so the verdict stays a pure
  /// function of the inputs). 0 disables. Part of the cache-key
  /// fingerprint: the prescreen changes which Detail/counterexample an
  /// Incorrect verdict carries.
  unsigned PrescreenTrials = 0;
  /// Optional iteration watchdog, threaded into the solver and the
  /// interpreter. Not part of the verdict: TVCache::makeKey deliberately
  /// excludes it (a cancelled check is never cached).
  CancellationToken *Token = nullptr;
};

/// Result of one refinement check.
struct TVResult {
  TVVerdict Verdict = TVVerdict::Unsupported;
  /// Human-readable detail (counterexample or unsupported reason).
  std::string Detail;
  /// Counterexample argument values for an Incorrect verdict: exactly one
  /// entry per function parameter, in parameter order, with the full lane
  /// structure (vector args keep every lane, poison args/lanes are marked
  /// poison). Replaying the list through amut-tv therefore lines up with
  /// the parameter list — earlier versions dropped poison and vector
  /// arguments, silently misaligning the remaining values.
  std::vector<ConcVal> CounterExample;
  /// True when concrete interpretation decided the verdict — either the
  /// bounded-enumeration path, or the concrete replay that confirms a
  /// symbolic counterexample model.
  bool UsedConcretePath = false;
  /// Solver statistics (symbolic path only).
  SatSolver::Stats SolverStats;
  /// Wall-clock split of the symbolic path: term construction + bit
  /// blasting vs. the SAT search itself. Wall-clock, so volatile — and a
  /// cache hit replays the *first* computation's numbers, which is exactly
  /// what cost attribution wants (the price of the query, paid once).
  double EncodeSeconds = 0;
  /// The bit-blasting part of EncodeSeconds: 0 when the query was decided
  /// at the word level, before any SAT object was built.
  double BlastSeconds = 0;
  double SolveSeconds = 0;
};

/// A telemetry slug for \p R: "correct", "incorrect",
/// "unsupported.<reason>" or "inconclusive.<reason>" — the per-verdict
/// breakdown key used by the run report. Deterministic per (Src, Tgt,
/// Opts), so counting slugs per established verdict (cache hits included)
/// is worker-count independent.
std::string tvVerdictReason(const TVResult &R);

/// Checks whether \p Tgt refines \p Src. The functions must have identical
/// signatures (same argument count/types and return type).
///
/// \p Stats (optional) receives query telemetry: "tv.query.symbolic" /
/// "tv.query.concrete" invocation counts with matching ".seconds" latency
/// histograms, "tv.query.decided-before-sat" for symbolic queries that
/// needed no SAT object, the "tv.encode/blast/solve.seconds" split,
/// solver effort counters, and "tv.symbolic.fallback.budget" /
/// "tv.symbolic.fallback.unconfirmed-model" for inconclusive symbolic
/// results that fell back to the concrete path. All volatile: they count
/// actual checker invocations, which the TV verdict cache elides
/// differently per worker.
TVResult checkRefinement(const Function &Src, const Function &Tgt,
                         const TVOptions &Opts = TVOptions(),
                         StatRegistry *Stats = nullptr);

/// Self-check used by the fuzzing loop's preprocessing step: verifies the
/// checker can process \p F at all and that F refines itself. Mirrors the
/// paper's "drop functions Alive2 cannot handle" filtering (§III-A).
TVResult checkSelfRefinement(const Function &F,
                             const TVOptions &Opts = TVOptions());

} // namespace alive

#endif // TV_REFINEMENTCHECKER_H

//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <corpus|defect-hunt|deep-j2> --seed <n>
///           --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// --trace 0 runs the workload through the campaign engine, untraced, in
/// rounds until --seconds have passed, and reports the end-to-end metrics
/// (medians over rounds). --trace 1 runs one untraced round and then the
/// traced layer replay, and reports the per-layer metrics. Both check the
/// outputs; the last stdout line is one JSON object.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "parser/Parser.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include <sys/resource.h>

using namespace alive;
using namespace perfbench;

namespace perfbench {

bool Outcome::operator==(const Outcome &O) const { return diff(O).empty(); }

std::string Outcome::diff(const Outcome &O) const {
  std::ostringstream OS;
  auto Cmp = [&](const char *Name, uint64_t A, uint64_t B) {
    if (A != B)
      OS << Name << " " << A << " vs " << B << "; ";
  };
  Cmp("mutants", Mutants, O.Mutants);
  Cmp("mutations", Mutations, O.Mutations);
  Cmp("optimized", Optimized, O.Optimized);
  Cmp("invalid", Invalid, O.Invalid);
  Cmp("verified", Verified, O.Verified);
  Cmp("skipped", Skipped, O.Skipped);
  Cmp("crashes", Crashes, O.Crashes);
  Cmp("correct", Correct, O.Correct);
  Cmp("incorrect", Incorrect, O.Incorrect);
  Cmp("inconclusive", Inconclusive, O.Inconclusive);
  Cmp("unsupported", Unsupported, O.Unsupported);
  Cmp("defects_found", DefectsFound, O.DefectsFound);
  std::vector<std::string> A = Bugs, B = O.Bugs;
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  if (A != B)
    OS << "bug seeds differ (" << A.size() << " vs " << B.size() << ")";
  return OS.str();
}

void Outcome::add(const Outcome &O) {
  Mutants += O.Mutants;
  Mutations += O.Mutations;
  Optimized += O.Optimized;
  Invalid += O.Invalid;
  Verified += O.Verified;
  Skipped += O.Skipped;
  Crashes += O.Crashes;
  Correct += O.Correct;
  Incorrect += O.Incorrect;
  Inconclusive += O.Inconclusive;
  Unsupported += O.Unsupported;
  DefectsFound += O.DefectsFound;
  Bugs.insert(Bugs.end(), O.Bugs.begin(), O.Bugs.end());
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  Items.push_back({Name, {Value, Unit}});
}

} // namespace perfbench

namespace {

/// One untraced pass over every campaign of a workload.
struct Round {
  double SetupSeconds = 0;  ///< parseModule + loadModule, summed
  double RunSeconds = 0;    ///< CampaignEngine::run wall time, summed
  double EngineSeconds = 0; ///< run wall minus the workers' mean loop time
  std::vector<double> FileMs;
  std::vector<std::string> FileNames;
  Outcome Out;
  uint64_t LockWaits = 0;
};

uint64_t lockWaits(const SharedTVCache &C) {
  uint64_t N = 0;
  for (const ShardHeat &H : C.shardHeat())
    N += H.LockWaits;
  return N;
}

/// The deterministic outcome the engine reports for one campaign.
Outcome engineOutcome(const Job &J, const CampaignEngine &E) {
  const FuzzStats &S = E.stats();
  Outcome O;
  O.Mutants = S.MutantsGenerated;
  O.Mutations = S.MutationsApplied;
  O.Optimized = S.Optimized;
  O.Invalid = S.InvalidMutants;
  O.Verified = S.Verified;
  O.Skipped = S.VerifySkipped;
  O.Crashes = S.Crashes;
  O.Incorrect = S.RefinementFailures;
  O.Inconclusive = S.Inconclusive;
  E.registry().forEachCounter(Volatility::Deterministic,
                              [&](const std::string &Name, uint64_t V) {
                                if (Name == "tv.verdict.correct")
                                  O.Correct += V;
                                else if (Name.rfind("tv.verdict.unsupported",
                                                    0) == 0)
                                  O.Unsupported += V;
                              });
  for (const BugRecord &B : E.bugs()) {
    std::string What = B.Kind == BugRecord::Crash && B.FunctionName.empty()
                           ? "crash:" + B.IssueId
                           : B.FunctionName;
    O.Bugs.push_back(J.Name + ":" + std::to_string(B.MutantSeed) + ":" +
                     What);
    if (!J.DefectIssue.empty() &&
        (B.Kind == BugRecord::Miscompile || B.IssueId == J.DefectIssue))
      O.DefectsFound = 1;
  }
  return O;
}

/// Runs every campaign of \p W through the public entry point. \p G, when
/// set, receives the bug-record checks (the first round of a run).
Round runRound(const Workload &W, Gate *G, Gate &Errors) {
  Round R;
  std::unique_ptr<SharedTVCache> Process;
  if (W.ProcessWideCache)
    Process = std::make_unique<SharedTVCache>(W.Jobs[0].Opts.TVCacheSize,
                                              W.Jobs[0].Opts.TVCacheShards);
  for (const Job &J : W.Jobs) {
    FuzzOptions O = J.Opts;
    std::unique_ptr<SharedTVCache> Own;
    if (Process) {
      O.SharedCache = Process.get();
    } else if (W.PerJobSharedCache) {
      Own = std::make_unique<SharedTVCache>(O.TVCacheSize, O.TVCacheShards);
      O.SharedCache = Own.get();
    }
    CampaignEngine E(O, J.Jobs);
    if (!E.configError().empty()) {
      Errors.fail(J.Name + ": " + E.configError());
      continue;
    }
    Timer Setup;
    std::string Err;
    std::unique_ptr<Module> M = parseModule(J.IR, Err);
    if (!M) {
      Errors.fail(J.Name + ": input does not parse: " + Err);
      continue;
    }
    unsigned Testable = E.loadModule(std::move(M));
    R.SetupSeconds += Setup.seconds();
    if (Testable == 0)
      continue; // discarded by the §III-A self-check, as in the paper
    Timer Run;
    const FuzzStats &S = E.run();
    double RunSeconds = Run.seconds();
    R.RunSeconds += RunSeconds;
    R.EngineSeconds +=
        std::max(0.0, RunSeconds - S.WorkerSeconds / (double)J.Jobs);
    R.FileMs.push_back(RunSeconds * 1e3);
    R.FileNames.push_back(J.Name);
    if (Own)
      R.LockWaits += lockWaits(*Own);
    R.Out.add(engineOutcome(J, E));
    if (G)
      checkBugs(J, E, *G);
  }
  if (Process)
    R.LockWaits += lockWaits(*Process);
  return R;
}

/// parseModule + loadModule over every input (engine construction
/// untimed).
double setupOnce(const Workload &W) {
  double Sum = 0;
  for (const Job &J : W.Jobs) {
    CampaignEngine E(J.Opts, J.Jobs);
    Timer T;
    std::string Err;
    if (std::unique_ptr<Module> M = parseModule(J.IR, Err))
      E.loadModule(std::move(M));
    Sum += T.seconds();
  }
  return Sum;
}

double peakRssMB() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return (double)RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Prints the result line. A metric that cannot be reported (a
/// percentile without ten samples beyond it) fails the run.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const Metrics &M) {
  for (const auto &[Name, VU] : M.Items)
    if (!std::isfinite(VU.first)) {
      std::printf("error: metric %s is not reportable\n", Name.c_str());
      Correct = false;
    }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  const char *Sep = "";
  for (const auto &[Name, VU] : M.Items) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                Name.c_str(), std::isfinite(VU.first) ? VU.first : 0.0,
                VU.second.c_str());
    Sep = ", ";
  }
  std::printf("}}\n");
}

void printGate(const Gate &G) {
  std::printf("gate: %llu counterexample(s) replayed, %llu bug(s) attributed, "
              "%zu failure(s)\n",
              (unsigned long long)G.CounterexamplesReplayed,
              (unsigned long long)G.BugsAttributed, G.Failures.size());
  for (const std::string &F : G.Failures)
    std::printf("gate failure: %s\n", F.c_str());
  for (const std::string &U : G.Unseeded)
    std::printf("unseeded miscompile (counterexample replays): %s\n",
                U.c_str());
}

/// Setup repetitions behind the setup_s median.
constexpr unsigned SetupSamples = 9;

/// Tolerance of the layer-sum check: layer self times plus core.other
/// must meet the independently timed iteration total within this share.
constexpr double LayerSumTolerance = 0.02;

int runEndToEnd(const Workload &W, double Seconds) {
  Gate G;
  // A warm-up round, untimed: the first pass through the allocator and
  // the lazily built tables runs up to 2.5x slower than the rest. It also
  // carries the bug-record checks and is the reference outcome every
  // measured round must reproduce exactly.
  Timer GateClock;
  const Round Warm = runRound(W, &G, G);
  double GateSeconds = GateClock.seconds();
  // Back-to-back set-ups of every input; setup_s is their median.
  std::vector<double> Setups;
  for (unsigned I = 0; I != SetupSamples; ++I)
    Setups.push_back(setupOnce(W));
  // Peak memory over one full pass of the workload. Later rounds repeat
  // the same work; on deep-j2 they sometimes reach a higher peak that
  // depends on how the two workers interleave (measured 44 vs 58 MB).
  double PeakRss = peakRssMB();
  Timer Clock;
  std::vector<Round> Rounds;
  do {
    Rounds.push_back(runRound(W, nullptr, G));
    if (!(Rounds.back().Out == Warm.Out))
      G.fail("round " + std::to_string(Rounds.size()) +
             " differs from the warm-up round: " +
             Rounds.back().Out.diff(Warm.Out));
  } while (Clock.seconds() < Seconds && G.Failures.empty());

  std::vector<double> Rates, P50s;
  uint64_t Attempted = 0;
  for (const Round &R : Rounds) {
    Rates.push_back((double)R.Out.Mutants / R.RunSeconds);
    P50s.push_back(percentile(R.FileMs, 50));
    Attempted += R.Out.Mutants;
  }
  const Round &First = Rounds.front();
  const Outcome &O = First.Out;
  if (O.Invalid)
    G.fail(std::to_string(O.Invalid) + " invalid mutant(s)");

  std::printf("workload %s: %zu round(s) in %.2f s, %zu campaign(s), "
              "%llu mutants/round, %llu verdicts (%llu correct, %llu "
              "incorrect, %llu inconclusive = ratio %.6f, %llu unsupported), "
              "%llu skipped, %llu crash(es), %llu defect(s) found\n",
              W.Name.c_str(), Rounds.size(), Clock.seconds(),
              First.FileMs.size(), (unsigned long long)O.Mutants,
              (unsigned long long)O.Verified, (unsigned long long)O.Correct,
              (unsigned long long)O.Incorrect,
              (unsigned long long)O.Inconclusive,
              (double)O.Inconclusive / (double)O.Verified,
              (unsigned long long)O.Unsupported, (unsigned long long)O.Skipped,
              (unsigned long long)O.Crashes,
              (unsigned long long)O.DefectsFound);
  std::printf("per timed round: mutants/s");
  for (double R : Rates)
    std::printf(" %.1f", R);
  std::printf("; file p50 ms");
  for (double P : P50s)
    std::printf(" %.3f", P);
  std::printf("\n");
  double P90 = percentile(First.FileMs, 90);
  std::printf("per-file ms (round 1, n=%zu): p50 %.3f, p90 %s\n",
              First.FileMs.size(), percentile(First.FileMs, 50),
              std::isnan(P90) ? "n/a (fewer than 100 files)"
                              : std::to_string(P90).c_str());
  std::vector<size_t> Order(First.FileMs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return First.FileMs[A] > First.FileMs[B];
  });
  std::printf("slowest campaigns (round 1):");
  for (size_t I = 0; I != std::min<size_t>(5, Order.size()); ++I)
    std::printf(" %s %.1f ms;", First.FileNames[Order[I]].c_str(),
                First.FileMs[Order[I]]);
  std::printf("\n");
  std::printf("warm-up round and gate: %.2f s\n", GateSeconds);
  printGate(G);

  Metrics M;
  M.set("mutants_per_s", median(Rates), "1/s");
  M.set("file_p50_ms", median(P50s), "ms");
  M.set("decided_ratio",
        (double)(O.Verified - O.Inconclusive) / (double)O.Verified, "ratio");
  M.set("setup_s", median(Setups), "s");
  M.set("peak_rss_mb", PeakRss, "MB");
  printResult(G.Failures.empty(), Attempted, O.Invalid * Rounds.size(), M);
  return 0;
}

int runTraced(const Workload &W, const std::string &TracePath) {
  Gate G;
  const Round Warm = runRound(W, &G, G);
  Round R = runRound(W, nullptr, G);
  if (!(R.Out == Warm.Out))
    G.fail("untraced round differs from the warm-up round: " +
           R.Out.diff(Warm.Out));
  TracedReplay RR = replayTraced(W, G, TracePath);
  if (!(RR.Out == R.Out))
    G.fail("traced replay differs from the engine run: " +
           RR.Out.diff(R.Out));
  if (RR.DroppedEvents)
    G.fail(std::to_string(RR.DroppedEvents) + " trace event(s) dropped");

  LayerTotals &L = RR.Layers;
  auto Ms = [&](const std::string &K) { return L.Ms[K]; };
  auto Count = [&](const std::string &K) { return L.Count[K]; };
  // Self times that partition the iteration.
  double SelfSum = 0;
  for (auto &[K, V] : L.Ms)
    if (K != "parser.parse" && K != "core.setup" && K != "tv.check")
      SelfSum += V;
  double SumError = L.IterTotalMs > 0
                        ? std::fabs(SelfSum - L.IterTotalMs) / L.IterTotalMs
                        : 0;
  if (SumError > LayerSumTolerance)
    G.fail("layer self times sum to " + std::to_string(SelfSum) +
           " ms against an iteration total of " +
           std::to_string(L.IterTotalMs) + " ms");

  double Untraced = (double)R.Out.Mutants / R.RunSeconds;
  double Traced = (double)RR.Out.Mutants / (L.IterTotalMs / 1e3);
  std::printf("workload %s traced: %llu mutants, replay %.2f s; untraced "
              "%.1f mutants/s, traced %.1f mutants/s; layer sum %.3f ms vs "
              "iteration total %.3f ms (error %.4f, tolerance %.2f)\n",
              W.Name.c_str(), (unsigned long long)RR.Out.Mutants,
              RR.WallSeconds, Untraced, Traced, SelfSum, L.IterTotalMs,
              SumError, LayerSumTolerance);
  std::string Dominant;
  double DominantMs = -1;
  for (auto &[K, V] : RR.SlowestLayers)
    if (V > DominantMs && K != "parser.parse" && K != "core.setup") {
      DominantMs = V;
      Dominant = K;
    }
  std::printf("slowest campaign: %s, %.1f ms; dominant layer %s_ms (%.1f "
              "ms)\n",
              RR.SlowestJob.c_str(), RR.SlowestJobMs, Dominant.c_str(),
              DominantMs);
  for (auto &[K, V] : RR.SlowestLayers)
    std::printf("  %-24s %12.3f ms\n", (K + "_ms").c_str(), V);
  printGate(G);

  Metrics M;
  M.set("parser.parse_ms", Ms("parser.parse"), "ms");
  M.set("core.setup_ms", Ms("core.setup"), "ms");
  M.set("core.mutate_ms", Ms("core.mutate"), "ms");
  M.set("core.mutations", Count("core.mutations"), "count");
  M.set("core.iter_p50_ms", percentile(L.IterMs, 50), "ms");
  M.set("core.iter_p90_ms", percentile(L.IterMs, 90), "ms");
  // p99 needs 1000 samples; corpus replays fewer mutants.
  double P99 = percentile(L.IterMs, 99);
  M.set("core.iter_p99_ms", std::isnan(P99) ? 0 : P99, "ms");
  M.set("core.iter_samples", (double)L.IterMs.size(), "count");
  M.set("core.other_ms", Ms("core.other"), "ms");
  M.set("core.engine_ms", R.EngineSeconds * 1e3, "ms");
  M.set("core.layer_sum_error", SumError, "ratio");
  M.set("analysis.verify_ms", Ms("analysis.verify"), "ms");
  M.set("ir.clone_ms", Ms("ir.clone"), "ms");
  double OptTotal = 0;
  for (const std::string &P : pipelinePasses("O2")) {
    M.set("opt." + P + "_ms", Ms("opt." + P), "ms");
    OptTotal += Ms("opt." + P);
  }
  M.set("opt.total_ms", OptTotal, "ms");
  M.set("opt.changed_fns", Count("opt.changed_fns"), "count");
  M.set("tv.checks", (double)RR.Out.Verified, "count");
  M.set("tv.skipped", (double)RR.Out.Skipped, "count");
  M.set("tv.canon_ms", Ms("tv.canon"), "ms");
  M.set("tv.cache_ms", Ms("tv.cache"), "ms");
  double Hits = Count("tv.cache_hits"), Misses = Count("tv.cache_misses");
  M.set("tv.cache_hits", Hits, "count");
  M.set("tv.cache_misses", Misses, "count");
  M.set("tv.cache_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
        "ratio");
  M.set("tv.cache_lock_waits", (double)R.LockWaits, "count");
  M.set("tv.check_ms", Ms("tv.check"), "ms");
  M.set("tv.encode_ms", Ms("tv.encode"), "ms");
  M.set("tv.concrete_ms", Ms("tv.concrete"), "ms");
  M.set("tv.correct", (double)RR.Out.Correct, "count");
  M.set("tv.incorrect", (double)RR.Out.Incorrect, "count");
  M.set("tv.inconclusive", (double)RR.Out.Inconclusive, "count");
  M.set("tv.unsupported", (double)RR.Out.Unsupported, "count");
  M.set("smt.solve_ms", Ms("smt.solve"), "ms");
  for (const char *K : {"smt.queries", "smt.decisions", "smt.propagations",
                        "smt.conflicts", "smt.learned_lits",
                        "smt.budget_exhausted"})
    M.set(K, Count(K), "count");
  M.set("defects_found", (double)R.Out.DefectsFound, "count");
  double P90 = percentile(R.FileMs, 90);
  M.set("file_p90_ms", std::isnan(P90) ? 0 : P90, "ms");
  M.set("file_samples", (double)R.FileMs.size(), "count");
  M.set("trace.untraced_mutants_per_s", Untraced, "1/s");
  M.set("trace.traced_mutants_per_s", Traced, "1/s");
  printResult(G.Failures.empty(), RR.Out.Mutants, RR.Out.Invalid, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TracePath;
  long long Seed = -1, Trace = -1;
  double Seconds = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Val;
    else if (Flag == "--seed")
      Seed = std::atoll(Val.c_str());
    else if (Flag == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      Trace = std::atoll(Val.c_str());
    else if (Flag == "--trace-out")
      TracePath = Val;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }
  if (WorkloadName.empty() || Seed < 0 || Seconds <= 0 ||
      (Trace != 0 && Trace != 1)) {
    std::fprintf(stderr, "usage: perfbench --workload <corpus|defect-hunt|"
                         "deep-j2> --seed <n> --seconds <s> --trace <0|1> "
                         "[--trace-out <file>]\n");
    return 2;
  }
  Workload W;
  if (!makeWorkload(WorkloadName, (uint64_t)Seed, W)) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 2;
  }
  return Trace ? runTraced(W, TracePath) : runEndToEnd(W, Seconds);
}

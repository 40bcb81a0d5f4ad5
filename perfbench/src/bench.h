//===- perfbench/src/bench.h - Repository benchmark: shared types ---------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark drives the public campaign entry point
/// (parseModule -> CampaignEngine::loadModule -> CampaignEngine::run) over
/// seeded workloads, checks the outcomes, and — in a separate traced run —
/// replays the same seeds through each layer's public functions to time
/// every layer from the outside. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/CampaignEngine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One campaign of a workload: an input file and its configuration.
struct Job {
  std::string Name;
  std::string IR;
  alive::FuzzOptions Opts;
  unsigned Jobs = 1;
  /// defect-hunt: the Table I issue of the campaign's one enabled defect
  /// (empty when no defect is enabled).
  std::string DefectIssue;
};

struct Workload {
  std::string Name;
  std::vector<Job> Jobs;
  /// One SharedTVCache spans every campaign of a round (corpus).
  bool ProcessWideCache = false;
  /// One SharedTVCache per campaign, owned by the benchmark so its shard
  /// heat stays readable after the engine is gone (deep-j2).
  bool PerJobSharedCache = false;
};

/// Builds workload \p Name from \p Seed; false for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, Workload &W);

/// The exact deterministic outcome of a set of campaigns: equal between
/// the untraced engine run and the traced replay, and between rounds.
struct Outcome {
  uint64_t Mutants = 0, Mutations = 0, Optimized = 0, Invalid = 0;
  uint64_t Verified = 0, Skipped = 0, Crashes = 0;
  uint64_t Correct = 0, Incorrect = 0, Inconclusive = 0, Unsupported = 0;
  /// "<job>:<seed>:<function or crash:issue>" per bug record; compared
  /// as a multiset.
  std::vector<std::string> Bugs;
  /// Jobs whose enabled defect was discovered.
  uint64_t DefectsFound = 0;

  bool operator==(const Outcome &O) const;
  std::string diff(const Outcome &O) const;
  void add(const Outcome &O);
};

/// The exact nearest-rank percentile of \p Samples (the smallest sample
/// with at least \p P percent of the samples at or below it), or NaN when
/// fewer than ten samples lie beyond it (too few to report it).
inline double percentile(std::vector<double> Samples, double P) {
  size_t N = Samples.size();
  if (N == 0)
    return NAN;
  size_t R = std::clamp<size_t>((size_t)std::ceil(P / 100.0 * (double)N), 1, N);
  if (N - R < 10)
    return NAN;
  std::nth_element(Samples.begin(), Samples.begin() + (R - 1), Samples.end());
  return Samples[R - 1];
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> V) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Correctness findings. Empty means the gate passed.
struct Gate {
  std::vector<std::string> Failures;
  uint64_t CounterexamplesReplayed = 0;
  uint64_t BugsAttributed = 0;
  /// Replayed miscompiles of campaigns with no seeded defect: real
  /// findings, reported but not failures.
  std::vector<std::string> Unseeded;
  void fail(std::string Msg) {
    if (Failures.size() < 20)
      Failures.push_back(std::move(Msg));
    else if (Failures.size() == 20)
      Failures.push_back("(further failures elided)");
  }
};

/// Re-runs an Incorrect verdict's counterexample through the interpreter
/// on \p Src and \p Tgt. \returns true when the refinement violation shows.
bool counterexampleShowsViolation(const alive::Function &Src,
                                  const alive::Function &Tgt,
                                  const alive::TVResult &R,
                                  const alive::TVOptions &TV);

/// Checks one campaign's bug records: each miscompile's counterexample
/// replays as a violation, and (defect-hunt) each record is caused by the
/// campaign's enabled defect — it disappears with the defect disabled.
void checkBugs(const Job &J, const alive::CampaignEngine &Engine, Gate &G);

/// Named metric values with units, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;
  void set(const std::string &Name, double Value, const std::string &Unit);
};

/// Per-layer totals of one traced replay.
struct LayerTotals {
  std::map<std::string, double> Ms;   ///< layer self time, ms
  std::map<std::string, double> Count;
  std::vector<double> IterMs;         ///< per-mutant replay latency
  double IterTotalMs = 0;
};

/// The per-layer totals and the deterministic outcome of a traced replay,
/// plus the per-layer self times of its slowest campaign.
struct TracedReplay {
  LayerTotals Layers;
  Outcome Out;
  double WallSeconds = 0;
  uint64_t DroppedEvents = 0;
  std::string SlowestJob;
  double SlowestJobMs = 0;
  std::map<std::string, double> SlowestLayers;
};

/// Replays \p W through each layer's public functions with a span around
/// every call, and writes the slowest campaign's spans to \p TracePath
/// (Chrome trace JSON) unless it is empty.
TracedReplay replayTraced(const Workload &W, Gate &G,
                          const std::string &TracePath);

/// The passes a pipeline description expands to, in order.
std::vector<std::string> pipelinePasses(const std::string &Desc);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

//===- perfbench/src/workloads.cpp - Benchmark workloads ------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Their inputs are fixed: drawing files or mutant
/// streams from the seed made a round's time a lottery over a handful of
/// budget-bound solver queries (README.md, "Why the inputs are fixed").
/// The seed orders the corpus campaigns. The program under test only
/// ever sees the .ll text.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "corpus/Corpus.h"
#include "opt/BugInjection.h"
#include "support/RandomGenerator.h"

#include <cstring>

using namespace alive;

namespace perfbench {
namespace {

/// Every workload fixes the SAT conflict budget here (the default of
/// 150000 spends minutes on one budget-bound query; see README.md).
constexpr uint64_t ConflictBudget = 4000;

/// The generator seed of the §V-B file set (the one the throughput bench
/// uses). Inputs are fixed per workload; see README.md for why.
constexpr uint64_t CorpusSet = 2024;

/// corpus: the §V-B experiment.
constexpr unsigned CorpusFiles = 120;
constexpr unsigned CorpusMutants = 5;
/// defect-hunt: a fixed mutant budget per Table I campaign, no early stop.
constexpr unsigned HuntMutants = 64;
/// deep-j2: long campaigns on two workers.
constexpr unsigned DeepFiles = 20;
constexpr unsigned DeepMutants = 400;
constexpr unsigned DeepWorkers = 2;

FuzzOptions baseOptions() {
  FuzzOptions O;
  O.BaseSeed = 1;
  O.TV.ConcreteTrials = 16;
  O.TV.SolverConflictBudget = ConflictBudget;
  return O;
}

/// The pass pipeline that exercises a Table I component most directly —
/// the same choice the Table I campaign bench makes.
std::string pipelineFor(const char *Component) {
  struct {
    const char *Component, *Pipeline;
  } static const Map[] = {
      {"InstCombine", "instsimplify,constfold,instcombine,dce"},
      {"NewGVN", "gvn"},
      {"newGVN", "gvn"},
      {"VectorCombine", "vector-combine"},
      {"ConstantFolding", "constfold"},
      {"InstSimplify", "instsimplify"},
      {"AlignmentFromAssumptions", "infer-alignment"},
      {"MoveAutoInit", "move-auto-init"},
      {"SROA", "sroa"},
  };
  for (const auto &E : Map)
    if (std::strcmp(Component, E.Component) == 0)
      return E.Pipeline;
  // AArch64 backend, multiple backends, TargetLibraryInfo.
  return "lowering";
}

void makeCorpus(uint64_t Seed, Workload &W) {
  W.ProcessWideCache = true;
  std::vector<std::string> Files = generateCorpusFiles(CorpusSet, CorpusFiles);
  // The seed orders the campaigns, which decides what the process-wide
  // cache already holds when each file runs.
  std::vector<unsigned> Order(Files.size());
  for (unsigned I = 0; I != Order.size(); ++I)
    Order[I] = I;
  RandomGenerator RNG(Seed);
  RNG.shuffle(Order);
  for (unsigned I : Order) {
    Job J;
    J.Name = "test" + std::to_string(I);
    J.IR = std::move(Files[I]);
    J.Opts = baseOptions();
    J.Opts.Iterations = CorpusMutants;
    J.Opts.UseSharedTVCache = true;
    J.Opts.TV.PrescreenTrials = 4;
    W.Jobs.push_back(std::move(J));
  }
}

void makeDefectHunt(Workload &W) {
  for (const BugInfo &Bug : bugTable()) {
    for (const NearMissSeed &S : nearMissSeeds()) {
      if (std::strcmp(S.IssueId, Bug.IssueId) != 0)
        continue;
      Job J;
      J.Name = std::string("pr") + Bug.IssueId;
      J.IR = S.Text;
      J.Opts = baseOptions();
      J.Opts.Iterations = HuntMutants;
      J.Opts.Passes = pipelineFor(Bug.Component);
      J.Opts.Bugs.enable(Bug.Id);
      J.DefectIssue = Bug.IssueId;
      W.Jobs.push_back(std::move(J));
      break;
    }
  }
}

void makeDeep(Workload &W) {
  W.PerJobSharedCache = true;
  // The first generated files of the §V-B set, after the paper listings
  // that corpus already covers.
  const size_t Listings = paperListingSeeds().size();
  std::vector<std::string> Files =
      generateCorpusFiles(CorpusSet, (unsigned)Listings + DeepFiles);
  for (size_t I = Listings; I != Files.size(); ++I) {
    Job J;
    J.Name = "test" + std::to_string(I);
    J.IR = Files[I];
    J.Opts = baseOptions();
    J.Opts.Iterations = DeepMutants;
    J.Opts.UseSharedTVCache = true;
    J.Opts.TV.PrescreenTrials = 4;
    J.Jobs = DeepWorkers;
    W.Jobs.push_back(std::move(J));
  }
}

} // namespace

bool makeWorkload(const std::string &Name, uint64_t Seed, Workload &W) {
  W = Workload();
  W.Name = Name;
  if (Name == "corpus")
    makeCorpus(Seed, W);
  else if (Name == "defect-hunt")
    makeDefectHunt(W);
  else if (Name == "deep-j2")
    makeDeep(W);
  else
    return false;
  return !W.Jobs.empty();
}

} // namespace perfbench

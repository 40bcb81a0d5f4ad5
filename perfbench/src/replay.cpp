//===- perfbench/src/replay.cpp - Outside-in traced layer replay ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a workload's campaigns step by step through each layer's public
/// functions — the same calls, in the same order, that one campaign worker
/// makes per mutant — and records a TraceRecorder span around every call.
/// Layer self times come from the recorded spans; the verdict counts must
/// equal the untraced engine run's exactly, which is the proof that the
/// replay is faithful.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/Verifier.h"
#include "opt/Pass.h"
#include "parser/Parser.h"
#include "support/Timer.h"
#include "support/TraceRecorder.h"
#include "tv/Canonicalize.h"

#include <fstream>

using namespace alive;

namespace perfbench {
namespace {

/// Span events per mutant the recorder is sized for: the iteration, three
/// core spans, at most four rounds of every pass, and five TV spans per
/// function. A dropped event fails the layer-sum check.
constexpr size_t EventsPerMutant = 256;

/// Self time of every span: its duration minus the part of its interval
/// covered by child spans. \returns (span name, self ns) per event.
std::vector<std::pair<const char *, uint64_t>>
selfTimes(std::vector<TraceRecorder::Event> Ev) {
  std::sort(Ev.begin(), Ev.end(), [](const auto &A, const auto &B) {
    return A.StartNanos != B.StartNanos ? A.StartNanos < B.StartNanos
                                        : A.DurNanos > B.DurNanos;
  });
  std::vector<uint64_t> Child(Ev.size(), 0);
  std::vector<size_t> Open;
  for (size_t I = 0; I != Ev.size(); ++I) {
    if (Ev[I].DurNanos == TraceRecorder::Instant)
      continue;
    while (!Open.empty() && Ev[Open.back()].StartNanos +
                                    Ev[Open.back()].DurNanos <=
                                Ev[I].StartNanos)
      Open.pop_back();
    if (!Open.empty())
      Child[Open.back()] += Ev[I].DurNanos;
    Open.push_back(I);
  }
  std::vector<std::pair<const char *, uint64_t>> Out;
  for (size_t I = 0; I != Ev.size(); ++I)
    if (Ev[I].DurNanos != TraceRecorder::Instant)
      Out.push_back({Ev[I].Name, Ev[I].DurNanos > Child[I]
                                     ? Ev[I].DurNanos - Child[I]
                                     : 0});
  return Out;
}

/// Span labels. The iteration span's self time is core.other.
constexpr const char *SpanIter = "core.iteration";

struct JobReplay {
  const Job &J;
  SharedTVCache *Shared;
  TVCache *Private;
  TraceRecorder &TR;
  LayerTotals &L;
  Outcome &Out;
  Gate &G;
  CampaignEngine &Engine;
  std::vector<std::string> Testable;
  std::vector<std::unique_ptr<PassManager>> Passes;
  std::vector<const char *> PassLabels;

  void setPipeline() {
    for (const std::string &P : pipelinePasses(J.Opts.Passes)) {
      auto PM = std::make_unique<PassManager>();
      PM->add(createPassByName(P));
      PM->setBugContext(&J.Opts.Bugs);
      Passes.push_back(std::move(PM));
      PassLabels.push_back(TR.intern("opt." + P));
    }
  }

  void recordBug(uint64_t Seed, const std::string &What) {
    Out.Bugs.push_back(J.Name + ":" + std::to_string(Seed) + ":" + What);
  }

  /// The verdict for one changed function, through whichever cache the
  /// campaign uses — the same calls FuzzerLoop::runIteration makes.
  TVResult verdict(uint64_t Seed, const Function &Src, const Function &Tgt,
                   bool &Hit) {
    const TVOptions &TV = J.Opts.TV;
    TVResult R;
    Hit = false;
    std::string Key;
    if (Shared) {
      CanonicalPair CP;
      {
        TraceSpan S(&TR, "tv.canon", Seed);
        CP = canonicalizePair(Src, Tgt);
      }
      if (CP.M) {
        TraceSpan S(&TR, "tv.cache", Seed);
        Key = SharedTVCache::makeKey(CP.SrcText, CP.TgtText, TV);
        if (!Key.empty())
          Hit = Shared->lookup(Key, R);
      }
      if (Hit)
        return R;
      {
        TraceSpan S(&TR, "tv.check", Seed);
        R = Key.empty() ? checkRefinement(Src, Tgt, TV)
                        : checkRefinement(*CP.Src, *CP.Tgt, TV);
      }
      if (!Key.empty()) {
        TraceSpan S(&TR, "tv.cache", Seed);
        Shared->insert(Key, R);
      }
      return R;
    }
    if (Private) {
      TraceSpan S(&TR, "tv.cache", Seed);
      Key = TVCache::makeKey(Src, Tgt, TV);
      if (!Key.empty())
        if (const TVResult *P = Private->lookup(Key)) {
          Hit = true;
          return *P;
        }
    }
    {
      TraceSpan S(&TR, "tv.check", Seed);
      R = checkRefinement(Src, Tgt, TV);
    }
    if (Private && !Key.empty()) {
      TraceSpan S(&TR, "tv.cache", Seed);
      Private->insert(Key, R);
    }
    return R;
  }

  void iteration(uint64_t Seed) {
    TraceSpan Iter(&TR, SpanIter, Seed);
    std::unique_ptr<Module> Mutant;
    std::vector<std::string> Applied;
    {
      TraceSpan S(&TR, "core.mutate", Seed);
      Mutant = Engine.makeMutant(Seed, &Applied);
    }
    ++Out.Mutants;
    Out.Mutations += Applied.size();
    L.Count["core.mutations"] += (double)Applied.size();
    if (J.Opts.VerifyMutants) {
      std::vector<std::string> Errors;
      bool Valid;
      {
        TraceSpan S(&TR, "analysis.verify", Seed);
        Valid = verifyModule(*Mutant, Errors);
      }
      if (!Valid) {
        ++Out.Invalid;
        recordBug(Seed, "<mutator>");
        G.fail(J.Name + " seed " + std::to_string(Seed) + ": invalid mutant");
        return;
      }
    }
    std::unique_ptr<Module> Source;
    {
      TraceSpan S(&TR, "ir.clone", Seed);
      Source = cloneModule(*Mutant);
    }
    // PassManager::runToFixpoint, one single-pass manager per pipeline
    // slot so each pass gets its own span: a round runs every pass in
    // order over every definition; stop after a round that changed
    // nothing, or after four rounds.
    ChangedFunctionSet Changed;
    try {
      for (unsigned Round = 0; Round != 4; ++Round) {
        bool Any = false;
        for (size_t P = 0; P != Passes.size(); ++P) {
          TraceSpan S(&TR, PassLabels[P], Seed);
          Any |= Passes[P]->run(*Mutant, &Changed);
        }
        if (!Any)
          break;
      }
    } catch (const OptimizerCrash &C) {
      ++Out.Crashes;
      std::string Issue = bugInfo(C.Id).IssueId;
      recordBug(Seed, "crash:" + Issue);
      if (Issue == J.DefectIssue)
        Out.DefectsFound = 1;
      return;
    }
    ++Out.Optimized;
    L.Count["opt.changed_fns"] += (double)Changed.size();

    for (const std::string &Name : Testable) {
      Function *Src = Source->getFunction(Name);
      Function *Tgt = Mutant->getFunction(Name);
      if (!Src || !Tgt || Tgt->isDeclaration())
        continue;
      if (J.Opts.SkipUnchanged && !Changed.count(Name)) {
        ++Out.Skipped;
        continue;
      }
      bool Hit;
      TVResult R = verdict(Seed, *Src, *Tgt, Hit);
      ++Out.Verified;
      if (Shared || Private)
        ++L.Count[Hit ? "tv.cache_hits" : "tv.cache_misses"];
      if (!Hit) {
        L.Ms["tv.encode"] += R.EncodeSeconds * 1e3;
        L.Ms["smt.solve"] += R.SolveSeconds * 1e3;
        if (R.EncodeSeconds > 0)
          ++L.Count["smt.queries"];
        L.Count["smt.decisions"] += (double)R.SolverStats.Decisions;
        L.Count["smt.propagations"] += (double)R.SolverStats.Propagations;
        L.Count["smt.conflicts"] += (double)R.SolverStats.Conflicts;
        L.Count["smt.learned_lits"] += (double)R.SolverStats.LearnedLiterals;
        uint64_t Budget = J.Opts.TV.SolverConflictBudget;
        if (Budget && R.SolverStats.Conflicts >= Budget)
          ++L.Count["smt.budget_exhausted"];
      }
      switch (R.Verdict) {
      case TVVerdict::Correct:
        ++Out.Correct;
        break;
      case TVVerdict::Incorrect:
        ++Out.Incorrect;
        recordBug(Seed, Name);
        if (!J.DefectIssue.empty())
          Out.DefectsFound = 1;
        if (counterexampleShowsViolation(*Src, *Tgt, R, J.Opts.TV))
          ++G.CounterexamplesReplayed;
        else
          G.fail(J.Name + " seed " + std::to_string(Seed) +
                 ": counterexample for " + Name +
                 " does not replay as a violation");
        break;
      case TVVerdict::Inconclusive:
        ++Out.Inconclusive;
        break;
      case TVVerdict::Unsupported:
        ++Out.Unsupported;
        break;
      }
    }
  }
};

} // namespace

std::vector<std::string> pipelinePasses(const std::string &Desc) {
  // The pass manager names its passes in its trace spans ("pass.<name>"),
  // in pipeline order: run the pipeline once over a trivial function.
  PassManager PM;
  std::string Err;
  std::vector<std::string> Names;
  if (!buildPipeline(Desc, PM, Err))
    return Names;
  TraceRecorder TR;
  PM.setTrace(&TR);
  auto M = parseModule("define i8 @f(i8 %x) {\n  ret i8 %x\n}\n", Err);
  if (!M)
    return Names;
  PM.run(*M);
  for (const TraceRecorder::Event &E : TR.events())
    Names.push_back(std::string(E.Name).substr(5));
  return Names;
}

TracedReplay replayTraced(const Workload &W, Gate &G,
                          const std::string &TracePath) {
  TracedReplay RR;
  LayerTotals &L = RR.Layers;
  std::unique_ptr<SharedTVCache> Process;
  if (W.ProcessWideCache)
    Process = std::make_unique<SharedTVCache>(W.Jobs[0].Opts.TVCacheSize,
                                              W.Jobs[0].Opts.TVCacheShards);
  std::unique_ptr<TraceRecorder> SlowestTrace;
  Timer Wall;
  for (const Job &J : W.Jobs) {
    auto TR = std::make_unique<TraceRecorder>(
        EventsPerMutant * (J.Opts.Iterations + 1));
    std::unique_ptr<SharedTVCache> OwnShared;
    std::unique_ptr<TVCache> OwnPrivate;
    SharedTVCache *Shared = Process.get();
    if (!Shared && J.Opts.UseSharedTVCache) {
      OwnShared = std::make_unique<SharedTVCache>(J.Opts.TVCacheSize,
                                                  J.Opts.TVCacheShards);
      Shared = OwnShared.get();
    }
    if (!Shared && J.Opts.TVCacheSize)
      OwnPrivate = std::make_unique<TVCache>(J.Opts.TVCacheSize);

    FuzzOptions O = J.Opts;
    O.SharedCache = Shared;
    CampaignEngine Engine(O, 1);
    Outcome JobOut;
    std::unique_ptr<Module> M;
    {
      TraceSpan S(TR.get(), "parser.parse");
      std::string Err;
      M = parseModule(J.IR, Err);
    }
    if (!M) {
      G.fail(J.Name + ": input does not parse");
      continue;
    }
    unsigned Testable;
    {
      TraceSpan S(TR.get(), "core.setup");
      Testable = Engine.loadModule(std::move(M));
    }
    LayerTotals JobL;
    JobReplay JR{J,      Shared, OwnPrivate.get(), *TR, JobL, JobOut, G,
                 Engine, Engine.testableFunctions(), {},  {}};
    JR.setPipeline();
    if (Testable)
      for (uint64_t I = 0; I != J.Opts.Iterations; ++I) {
        Timer IT;
        JR.iteration(J.Opts.BaseSeed + I);
        double Ms = IT.seconds() * 1e3;
        JobL.IterMs.push_back(Ms);
        JobL.IterTotalMs += Ms;
      }
    RR.DroppedEvents += TR->dropped();

    // Layer self times from the spans. The check span holds the encode
    // and solve times the checker reports itself; the rest of it is
    // concrete work (prescreen, enumeration, counterexample replay).
    std::map<std::string, double> JobLayers = JobL.Ms;
    for (auto [Name, Self] : selfTimes(TR->events()))
      JobLayers[std::string(Name) == SpanIter ? "core.other" : Name] +=
          (double)Self / 1e6;
    double CheckMs = JobLayers["tv.check"];
    JobLayers.erase("tv.check");
    JobLayers["tv.concrete"] =
        CheckMs - JobLayers["tv.encode"] - JobLayers["smt.solve"];
    double JobMs = 0;
    for (auto &[K, V] : JobLayers) {
      L.Ms[K] += V;
      JobMs += V;
    }
    L.Ms["tv.check"] += CheckMs;
    for (auto &[K, V] : JobL.Count)
      L.Count[K] += V;
    L.IterMs.insert(L.IterMs.end(), JobL.IterMs.begin(), JobL.IterMs.end());
    L.IterTotalMs += JobL.IterTotalMs;
    if (JobMs > RR.SlowestJobMs) {
      RR.SlowestJobMs = JobMs;
      RR.SlowestJob = J.Name;
      RR.SlowestLayers = JobLayers;
      SlowestTrace = std::move(TR);
    }
    RR.Out.add(JobOut);
  }
  RR.WallSeconds = Wall.seconds();
  if (SlowestTrace && !TracePath.empty()) {
    std::ofstream OS(TracePath);
    writeChromeTrace(OS, {SlowestTrace.get()}, {W.Name + "/" + RR.SlowestJob});
  }
  return RR;
}

} // namespace perfbench

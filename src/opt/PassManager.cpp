//===- opt/PassManager.cpp - Pass manager and registry ---------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "support/Cancellation.h"
#include "support/TraceRecorder.h"

#include <functional>
#include <map>
#include <optional>
#include <sstream>

using namespace alive;

void PassManager::setTelemetry(StatRegistry *S) {
  Stats = S;
  PassStats.clear();
}

void PassManager::setTrace(TraceRecorder *T) {
  Trace = T;
  PassTraceNames.clear();
}

bool PassManager::run(Module &M, ChangedFunctionSet *ChangedOut) {
  // Make the campaign's defects visible to the pass bodies for exactly the
  // duration of the run (exception-safe: unwinding on an OptimizerCrash
  // restores the previous ambient context).
  std::optional<BugContextScope> Scope;
  if (BugCtx)
    Scope.emplace(BugCtx);
  // Ambient watchdog for the pass bodies (mirrors the bug context): long
  // per-function transforms can consume steps without PassManager plumbing.
  std::optional<CancellationScope> WatchdogScope;
  if (Watchdog)
    WatchdogScope.emplace(Watchdog);
  if (Stats && PassStats.size() != Passes.size()) {
    PassStats.clear();
    for (auto &P : Passes) {
      std::string Base = "pass." + P->getName();
      PassStats.push_back({&Stats->counter(Base + ".invocations"),
                           &Stats->counter(Base + ".changed"),
                           &Stats->histogram(Base + ".seconds")});
    }
  }
  if (Trace && PassTraceNames.size() != Passes.size()) {
    PassTraceNames.clear();
    for (auto &P : Passes)
      PassTraceNames.push_back(Trace->intern("pass." + P->getName()));
  }
  bool Changed = false;
  for (size_t PI = 0; PI != Passes.size(); ++PI) {
    Pass &P = *Passes[PI];
    PassTelemetry *T = Stats ? &PassStats[PI] : nullptr;
    TraceSpan Span(Trace, Trace ? PassTraceNames[PI] : nullptr);
    ScopedTimer Sweep(T ? T->Seconds : nullptr);
    for (Function *F : M.functions())
      if (!F->isDeclaration()) {
        if (Watchdog && Watchdog->consume(1))
          return Changed;
        if (T)
          ++*T->Invocations;
        if (Tally)
          Tally[2 * PI].fetch_add(1, std::memory_order_relaxed);
        if (P.runOnFunction(*F)) {
          Changed = true;
          if (T)
            ++*T->Changed;
          if (Tally)
            Tally[2 * PI + 1].fetch_add(1, std::memory_order_relaxed);
          if (ChangedOut)
            ChangedOut->insert(F->getName());
        }
      }
  }
  return Changed;
}

void PassManager::addRunTally(StatRegistry &S,
                              const std::atomic<uint64_t> *Slots) const {
  for (size_t PI = 0; PI != Passes.size(); ++PI) {
    std::string Base = "pass." + Passes[PI]->getName();
    S.counter(Base + ".invocations") +=
        Slots[2 * PI].load(std::memory_order_relaxed);
    S.counter(Base + ".changed") +=
        Slots[2 * PI + 1].load(std::memory_order_relaxed);
  }
}

bool PassManager::runToFixpoint(Module &M, unsigned MaxIter,
                                ChangedFunctionSet *ChangedOut) {
  bool Changed = false;
  for (unsigned I = 0; I != MaxIter; ++I) {
    if (Watchdog && Watchdog->cancelled())
      break;
    if (!run(M, ChangedOut))
      break;
    Changed = true;
  }
  return Changed;
}

namespace {

using Factory = std::function<std::unique_ptr<Pass>()>;

const std::map<std::string, Factory> &registry() {
  static const std::map<std::string, Factory> Registry = {
      {"instsimplify", createInstSimplifyPass},
      {"instcombine", createInstCombinePass},
      {"constfold", createConstantFoldPass},
      {"dce", createDCEPass},
      {"gvn", createGVNPass},
      {"simplifycfg", createSimplifyCFGPass},
      {"reassociate", createReassociatePass},
      {"sroa", createSROAPass},
      {"vector-combine", createVectorCombinePass},
      {"infer-alignment", createInferAlignmentPass},
      {"move-auto-init", createMoveAutoInitPass},
      {"lowering", createLoweringPass},
      // Fault injectors — opt-in via -passes=, never in O1/O2.
      {"test-slow", createTestSlowPass},
      {"test-crash", createTestCrashPass},
      {"test-abort", createTestAbortPass},
  };
  return Registry;
}

/// Pass names of the canned pipelines.
std::vector<std::string> pipelineNames(const std::string &Level) {
  if (Level == "O1")
    return {"instsimplify", "constfold", "instcombine", "dce", "simplifycfg"};
  // O2: the full middle-end plus the ISel-style lowering combines that host
  // the backend bug seeds (the campaign's analog of also testing the
  // AArch64 backend).
  return {"sroa",        "instsimplify",  "constfold",
          "instcombine", "reassociate",   "gvn",
          "dce",         "simplifycfg",   "vector-combine",
          "infer-alignment", "move-auto-init", "lowering"};
}

} // namespace

std::unique_ptr<Pass> alive::createPassByName(const std::string &Name) {
  auto It = registry().find(Name);
  return It == registry().end() ? nullptr : It->second();
}

std::vector<std::string> alive::allPassNames() {
  std::vector<std::string> Names;
  for (const auto &[Name, _] : registry())
    Names.push_back(Name);
  return Names;
}

bool alive::buildPipeline(const std::string &Desc, PassManager &PM,
                          std::string &Error) {
  std::stringstream SS(Desc);
  std::string Item;
  while (std::getline(SS, Item, ',')) {
    if (Item.empty())
      continue;
    if (Item[0] == '-')
      Item = Item.substr(1);
    if (Item == "O1" || Item == "O2" || Item == "O3") {
      for (const std::string &Name :
           pipelineNames(Item == "O1" ? "O1" : "O2"))
        PM.add(createPassByName(Name));
      continue;
    }
    std::unique_ptr<Pass> P = createPassByName(Item);
    if (!P) {
      Error = "unknown pass '" + Item + "'";
      return false;
    }
    PM.add(std::move(P));
  }
  return true;
}

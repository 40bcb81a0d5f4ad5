//===- perfbench/src/check.cpp - Correctness gate -------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output checks. Every miscompile the campaign reports is
/// regenerated from its logged seed, and its counterexample is re-run
/// through the interpreter on the original source and target; under
/// defect-hunt every bug record must vanish once the campaign's one
/// enabled defect is switched off.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "ir/Interpreter.h"
#include "opt/Pass.h"
#include "tv/Canonicalize.h"

#include <algorithm>

using namespace alive;

namespace perfbench {
namespace {

/// Rebuilds the concrete trial the checker ran: pointer arguments get a
/// fresh buffer at the recorded address, filled with the trial seed's
/// bytes. \returns false when the recorded addresses cannot be reproduced.
bool buildMemory(const Function &Src, const std::vector<ConcVal> &Args,
                 uint64_t TrialSeed, Memory &Mem,
                 std::vector<std::pair<uint64_t, uint64_t>> &Buffers) {
  for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
    if (!Src.getArg(I)->getType()->isPointerTy())
      continue;
    if (!Args[I].isScalar() || Args[I].anyPoison())
      return false;
    uint64_t Addr = Args[I].lane().Val.getZExtValue();
    if (Addr == 0)
      continue;
    uint64_t Size = std::max<uint64_t>(Src.paramAttrs(I).Dereferenceable, 8);
    if (Mem.allocate(Size, 8) != Addr)
      return false;
    for (uint64_t Off = 0; Off != Size; ++Off)
      Mem.writeByte(Addr + Off,
                    (uint8_t)oracleHash(TrialSeed ^ 0x5EED, Addr + Off),
                    /*Poison=*/false);
    Buffers.push_back({Addr, Size});
  }
  return true;
}

/// One interpreter trial of Src and Tgt on \p Args: does the target fail
/// to refine the source?
bool violates(const Function &Src, const Function &Tgt,
              const std::vector<ConcVal> &Args, uint64_t TrialSeed,
              uint64_t Fuel) {
  Memory Initial;
  std::vector<std::pair<uint64_t, uint64_t>> Buffers;
  if (!buildMemory(Src, Args, TrialSeed, Initial, Buffers))
    return false;
  ExecOptions EO;
  EO.Fuel = Fuel;
  EO.TrialSeed = TrialSeed;
  Memory SrcMem = Initial.clone(), TgtMem = Initial.clone();
  ExecResult SR = Interpreter(SrcMem, EO).run(Src, Args);
  if (SR.Status != ExecStatus::Ok)
    return false; // source UB or undecided: anything refines it
  ExecResult TR = Interpreter(TgtMem, EO).run(Tgt, Args);
  if (TR.Status == ExecStatus::UB)
    return true;
  if (TR.Status != ExecStatus::Ok)
    return false;
  if (!SR.IsVoid) {
    if (TR.IsVoid || TR.Ret.Lanes.size() != SR.Ret.Lanes.size())
      return true;
    for (size_t L = 0; L != SR.Ret.Lanes.size(); ++L) {
      const Lane &S = SR.Ret.Lanes[L], &T = TR.Ret.Lanes[L];
      if (!S.Poison && (T.Poison || T.Val != S.Val))
        return true;
    }
  }
  for (auto [Base, Size] : Buffers)
    for (uint64_t A = Base; A != Base + Size; ++A) {
      if (!SrcMem.isInit(A) || SrcMem.isPoison(A))
        continue;
      if (!TgtMem.isInit(A) || TgtMem.isPoison(A) ||
          TgtMem.readByte(A) != SrcMem.readByte(A))
        return true;
    }
  return false;
}

/// Optimizes a copy of \p Mutant with \p Passes under \p Bugs. \returns
/// null when the pipeline raised a (simulated) crash, with its issue id.
std::unique_ptr<Module> optimize(const Module &Mutant,
                                 const std::string &Passes,
                                 const BugInjectionContext &Bugs,
                                 std::string &CrashIssue) {
  PassManager PM;
  std::string Err;
  buildPipeline(Passes, PM, Err);
  PM.setBugContext(&Bugs);
  std::unique_ptr<Module> M = cloneModule(Mutant);
  try {
    PM.runToFixpoint(*M, 4);
  } catch (const OptimizerCrash &C) {
    CrashIssue = bugInfo(C.Id).IssueId;
    return nullptr;
  }
  return M;
}

/// The verdict the campaign computes for one function of an optimized
/// mutant (on the canonical pair when the shared cache is in use).
TVResult verdictFor(const Job &J, const Function &Src, const Function &Tgt) {
  if (J.Opts.UseSharedTVCache) {
    CanonicalPair CP = canonicalizePair(Src, Tgt);
    if (CP.M)
      return checkRefinement(*CP.Src, *CP.Tgt, J.Opts.TV);
  }
  return checkRefinement(Src, Tgt, J.Opts.TV);
}

} // namespace

bool counterexampleShowsViolation(const Function &Src, const Function &Tgt,
                                  const TVResult &R, const TVOptions &TV) {
  const std::vector<ConcVal> &Args = R.CounterExample;
  if (Args.size() != Src.getNumArgs())
    return false;
  // The checker draws trial seeds from TV.Seed (symbolic model replay) or
  // oracleHash(TV.Seed, trial) (sampled and enumerated trials).
  std::vector<uint64_t> TrialSeeds = {TV.Seed};
  uint64_t Trials = std::max<uint64_t>(
      {TV.ConcreteTrials, TV.PrescreenTrials,
       (uint64_t)1 << TV.ExhaustiveBits});
  for (uint64_t T = 0; T != Trials; ++T)
    TrialSeeds.push_back(oracleHash(TV.Seed, T));
  for (uint64_t TS : TrialSeeds)
    if (violates(Src, Tgt, Args, TS, TV.Fuel))
      return true;
  return false;
}

void checkBugs(const Job &J, const CampaignEngine &Engine, Gate &G) {
  const BugInjectionContext NoBugs;
  for (const BugRecord &B : Engine.bugs()) {
    std::string Where = J.Name + " seed " + std::to_string(B.MutantSeed);
    if (B.FunctionName == "<mutator>") {
      G.fail(Where + ": invalid mutant: " + B.Detail);
      continue;
    }
    std::unique_ptr<Module> Mutant = Engine.makeMutant(B.MutantSeed);
    std::string Crash;
    std::unique_ptr<Module> Opt =
        optimize(*Mutant, J.Opts.Passes, J.Opts.Bugs, Crash);
    if (B.Kind == BugRecord::Crash) {
      if (J.DefectIssue.empty() || B.IssueId != J.DefectIssue ||
          Crash != B.IssueId)
        G.fail(Where + ": crash " + B.IssueId +
               " not attributable to the campaign's defect");
      else if (!optimize(*Mutant, J.Opts.Passes, NoBugs, Crash))
        G.fail(Where + ": crash persists with the defect disabled");
      else
        ++G.BugsAttributed;
      continue;
    }
    const Function *Src = Mutant->getFunction(B.FunctionName);
    const Function *Tgt = Opt ? Opt->getFunction(B.FunctionName) : nullptr;
    if (!Src || !Tgt) {
      G.fail(Where + ": cannot regenerate miscompile in " + B.FunctionName);
      continue;
    }
    TVResult R = verdictFor(J, *Src, *Tgt);
    if (R.Verdict != TVVerdict::Incorrect ||
        !counterexampleShowsViolation(*Src, *Tgt, R, J.Opts.TV)) {
      G.fail(Where + ": counterexample for " + B.FunctionName +
             " does not replay as a violation");
      continue;
    }
    ++G.CounterexamplesReplayed;
    if (J.DefectIssue.empty()) {
      // No defect is seeded: a replayed counterexample is a genuine
      // miscompilation of the compiler under test, a true finding.
      G.Unseeded.push_back(Where + " " + B.FunctionName);
      continue;
    }
    std::unique_ptr<Module> Clean = optimize(*Mutant, J.Opts.Passes, NoBugs,
                                             Crash);
    const Function *CleanTgt =
        Clean ? Clean->getFunction(B.FunctionName) : nullptr;
    if (!CleanTgt ||
        verdictFor(J, *Src, *CleanTgt).Verdict == TVVerdict::Incorrect)
      G.fail(Where + ": miscompile in " + B.FunctionName +
             " persists with the defect disabled");
    else
      ++G.BugsAttributed;
  }
}

} // namespace perfbench

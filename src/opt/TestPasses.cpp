//===- opt/TestPasses.cpp - Fault-injection passes --------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deliberately misbehaving passes for exercising the campaign's
/// survivability machinery end to end:
///
///   - test-slow  — spins until the iteration watchdog trips (or a safety
///     cap, so a watchdog-less pipeline still terminates);
///   - test-crash — dereferences null when it sees a function whose name
///     starts with "crashme" (SIGSEGV, for -fanout containment tests);
///   - test-abort — calls std::abort() on functions named "abortme*"
///     (SIGABRT, for the in-process signal-guard tests).
///
/// None of these are part of O1/O2; they only run when named explicitly in
/// -passes=. The name-triggered ones are no-ops elsewhere, so a corpus
/// without trigger functions runs them harmlessly.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "support/Cancellation.h"

#include <cstdlib>

using namespace alive;

namespace {

class TestSlowPass : public Pass {
public:
  std::string getName() const override { return "test-slow"; }

  bool runOnFunction(Function &F) override {
    (void)F;
    // Consume steps through the ambient token the PassManager installs.
    // With a watchdog armed this returns as soon as the budget trips; the
    // hard cap keeps watchdog-less pipelines (unit tests, amut-opt) from
    // hanging forever.
    CancellationToken *Token = currentCancellationToken();
    constexpr uint64_t ChunkSteps = 4096;
    constexpr uint64_t MaxChunks = (1ull << 20) / ChunkSteps;
    for (uint64_t Chunk = 0; Chunk != MaxChunks; ++Chunk) {
      if (Token && Token->consume(ChunkSteps))
        break;
      // Busy-work the optimizer cannot elide, so wall-clock watchdogs see
      // genuine elapsed time rather than an empty loop.
      volatile uint64_t Sink = 0;
      for (uint64_t I = 0; I != ChunkSteps; ++I)
        Sink = Sink + I * 2654435761u;
    }
    return false;
  }
};

class TestCrashPass : public Pass {
public:
  std::string getName() const override { return "test-crash"; }

  bool runOnFunction(Function &F) override {
    if (F.getName().rfind("crashme", 0) == 0) {
      // Volatile null dereference: a genuine SIGSEGV the isolation layer
      // must contain, not something the compiler can fold away.
      volatile int *Null = nullptr;
      *Null = 42;
    }
    return false;
  }
};

class TestAbortPass : public Pass {
public:
  std::string getName() const override { return "test-abort"; }

  bool runOnFunction(Function &F) override {
    if (F.getName().rfind("abortme", 0) == 0)
      std::abort();
    return false;
  }
};

} // namespace

std::unique_ptr<Pass> alive::createTestSlowPass() {
  return std::make_unique<TestSlowPass>();
}

std::unique_ptr<Pass> alive::createTestCrashPass() {
  return std::make_unique<TestCrashPass>();
}

std::unique_ptr<Pass> alive::createTestAbortPass() {
  return std::make_unique<TestAbortPass>();
}

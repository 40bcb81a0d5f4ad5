//===- ir/Interpreter.h - Concrete IR evaluator ----------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete evaluator for the miniature IR with full poison/undef/UB
/// tracking and a byte-addressed memory model. It serves three roles:
///   1. the concrete-enumeration fallback of the translation validator
///      (functions that touch memory, or that exceed SAT limits);
///   2. replay/confirmation of counterexample models produced by the SAT
///      path (guarding against encoder bugs and freeze/undef ambiguity);
///   3. the oracle that unit tests cross-check the SMT bit-blaster against.
///
/// Nondeterminism policy (documented substitution for Alive2's quantified
/// undef semantics): undef bytes and frozen poison resolve deterministically
/// from a per-trial seed and stable context (memory address / zero), so a
/// source and target execution under the same seed observe the same
/// environment. External (unknown) calls are modeled by an "environment
/// oracle": deterministic return values derived from the seed, callee name
/// and arguments, plus havoc writes to writable pointer arguments.
///
//===----------------------------------------------------------------------===//

#ifndef IR_INTERPRETER_H
#define IR_INTERPRETER_H

#include "ir/Module.h"
#include "support/APInt.h"

#include <cstdint>
#include <vector>

namespace alive {

class CancellationToken;

/// One scalar lane of a runtime value: poison, or a concrete bit pattern.
struct Lane {
  bool Poison = false;
  APInt Val;

  static Lane poison(unsigned Bits) {
    Lane L;
    L.Poison = true;
    L.Val = APInt::getZero(Bits);
    return L;
  }
  static Lane of(APInt V) {
    Lane L;
    L.Val = V;
    return L;
  }
  bool operator==(const Lane &O) const {
    return Poison == O.Poison && (Poison || Val == O.Val);
  }
};

/// A runtime value: one lane per vector element (scalars and pointers have
/// exactly one lane; pointers are 64-bit addresses).
struct ConcVal {
  std::vector<Lane> Lanes;

  static ConcVal scalar(APInt V) { return ConcVal{{Lane::of(V)}}; }
  static ConcVal scalarPoison(unsigned Bits) {
    return ConcVal{{Lane::poison(Bits)}};
  }

  bool isScalar() const { return Lanes.size() == 1; }
  const Lane &lane() const {
    assert(Lanes.size() == 1 && "not a scalar");
    return Lanes[0];
  }
  bool anyPoison() const {
    for (const Lane &L : Lanes)
      if (L.Poison)
        return true;
    return false;
  }
};

/// Pointer width of the memory model.
constexpr unsigned PtrBits = 64;

/// Flat byte-addressed memory. Address 0 is the null pointer; a guard zone
/// below FirstValidAddr is never allocated. The address space is Size
/// bytes, but only the bytes up to the end of the last allocation are
/// backed, so a trial that allocates nothing builds and copies nothing.
class Memory {
public:
  static constexpr uint64_t Size = 1 << 16;
  static constexpr uint64_t FirstValidAddr = 64;

  /// Bump-allocates \p Bytes bytes with \p Align alignment; returns the
  /// address, or 0 if the allocation would end past Size.
  uint64_t allocate(uint64_t Bytes, uint64_t Align);

  /// True if [Addr, Addr+Bytes) lies entirely within one allocation.
  bool inBounds(uint64_t Addr, uint64_t Bytes) const;
  /// Bounds of the allocation containing \p Addr; false if none.
  bool findAllocation(uint64_t Addr, uint64_t &Base, uint64_t &Len) const;

  // Raw byte access with poison/init shadow state. \p Addr must lie below
  // the end of the last allocation.
  uint8_t readByte(uint64_t Addr) const {
    assert(Addr < Bytes.size() && "read of unbacked memory");
    return Bytes[Addr];
  }
  void writeByte(uint64_t Addr, uint8_t V, bool Poison) {
    assert(Addr < Bytes.size() && "write to unbacked memory");
    Bytes[Addr] = V;
    Init[Addr] = 1;
    PoisonShadow[Addr] = Poison;
  }
  bool isInit(uint64_t Addr) const {
    assert(Addr < Init.size() && "read of unbacked memory");
    return Init[Addr];
  }
  bool isPoison(uint64_t Addr) const {
    assert(Addr < PoisonShadow.size() && "read of unbacked memory");
    return PoisonShadow[Addr];
  }

  /// Deep copy for snapshot/restore around source/target runs.
  Memory clone() const { return *this; }

private:
  std::vector<uint8_t> Bytes;
  std::vector<uint8_t> Init;
  std::vector<uint8_t> PoisonShadow;
  uint64_t Bump = FirstValidAddr;
  std::vector<std::pair<uint64_t, uint64_t>> Allocs; // (base, len)
};

/// Why an execution stopped.
enum class ExecStatus {
  Ok,          ///< Returned normally.
  UB,          ///< Triggered undefined behavior.
  OutOfFuel,   ///< Exceeded the instruction budget (possible infinite loop).
  Unsupported, ///< Hit a construct outside the evaluator's domain.
  Cancelled,   ///< The iteration watchdog cancelled the execution. Distinct
               ///< from OutOfFuel: fuel exhaustion is a property of the
               ///< trial, cancellation a property of the enclosing
               ///< iteration's budget.
};

/// Outcome of interpreting one function call.
struct ExecResult {
  ExecStatus Status = ExecStatus::Ok;
  bool IsVoid = false;
  ConcVal Ret; ///< Valid when Status == Ok and !IsVoid.
  std::string UBReason;
};

/// Tunables and trial context for one execution.
struct ExecOptions {
  /// Max instructions executed before OutOfFuel.
  uint64_t Fuel = 100000;
  /// Seed resolving undef bytes, frozen poison and the environment oracle.
  /// Source and target runs of a refinement trial must share it.
  uint64_t TrialSeed = 0;
  /// Max call depth for defined-function calls.
  unsigned MaxDepth = 16;
  /// Optional iteration watchdog: the interpreter consumes one token step
  /// per executed instruction (batched, checked every 64) and stops with
  /// ExecStatus::Cancelled when the token trips.
  CancellationToken *Token = nullptr;
};

/// Interprets functions of one module.
class Interpreter {
public:
  Interpreter(Memory &Mem, const ExecOptions &Opts) : Mem(Mem), Opts(Opts) {}

  /// Runs \p F on \p Args (one ConcVal per parameter). Respects the
  /// parameter attributes' preconditions: the caller promises noundef/
  /// nonnull/dereferenceable hold for the values it passes.
  ExecResult run(const Function &F, const std::vector<ConcVal> &Args);

private:
  friend class FrameScope;
  ExecResult runFrame(const Function &F, const std::vector<ConcVal> &Args,
                      unsigned Depth);

  Memory &Mem;
  ExecOptions Opts;
  uint64_t FuelUsed = 0;
  uint64_t ExternCallCounter = 0;
};

/// Deterministic 64-bit mix for the undef/environment oracle.
uint64_t oracleHash(uint64_t Seed, uint64_t A, uint64_t B = 0,
                    uint64_t C = 0);

} // namespace alive

#endif // IR_INTERPRETER_H

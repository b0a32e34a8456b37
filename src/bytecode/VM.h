//===- bytecode/VM.h - Register bytecode interpreter ------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution engine: a register-machine interpreter over
/// bytecode/Bytecode.h chunks, dispatching with computed goto where the
/// compiler supports it (GCC/Clang) and a portable switch otherwise
/// (forced with -DPERCEUS_VM_FORCE_SWITCH for testing the fallback).
///
/// The VM implements the same Engine interface as the CEK machine and is
/// observably identical to it (see the parity contract in Bytecode.h):
/// same heap-operation sequence, same telemetry sites, same trap
/// messages, same clean-unwind guarantee. Call frames overlap Lua-style
/// in one register stack — a call's operand window becomes the callee's
/// parameter registers, so argument binding is free — and tail calls are
/// resolved statically by the compiler and reuse the frame in place.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_VM_H
#define PERCEUS_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "eval/Engine.h"
#include "runtime/Heap.h"
#include "support/FlatStack.h"

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace perceus {

/// Executes compiled programs; see the file comment. One VM per thread:
/// the CompiledProgram is immutable and shareable, the VM is not.
class VM : public Engine {
public:
  /// \p CP must outlive the VM and have been compiled from the program
  /// whose cells \p H manages.
  VM(const CompiledProgram &CP, Heap &H) : CP(CP), H(H) {}

  RunResult run(FuncId F, std::vector<Value> Args) override;

  /// Fuel is measured in bytecode instructions here (the VM's dispatch
  /// granularity), not expression nodes.
  void setStepLimit(uint64_t Limit) override { StepLimit = Limit; }

  void setCallDepthLimit(uint64_t Limit) override { CallDepthLimit = Limit; }

  /// Wall-clock budget per run (0 = none); armed at run() entry and
  /// checked every DeadlineCheckInterval instructions.
  void setDeadline(uint64_t Ms) override { DeadlineMs = Ms; }

  /// Enumerates every register of every live frame, plus the pending
  /// result.
  void enumerateRoots(const std::function<void(Value)> &Fn) const override;

  void setResultInspector(std::function<void(Value)> Fn) override {
    ResultInspector = std::move(Fn);
  }

  Heap &heap() override { return H; }

private:
  /// A suspended caller: where to resume and where the callee's value
  /// goes.
  struct Frame {
    const Chunk *Ch;
    uint32_t Pc;   ///< resume pc
    uint32_t Base; ///< the caller frame's first register
    uint32_t Dst;  ///< caller register receiving the return value
  };

  void execute(const Chunk *Entry, RunResult &R);
  uint64_t stepEvent(uint64_t Steps);
  void applyClosure(const Chunk *T, Cell *Clo, const Expr *CallSite,
                    Value *RF);
  void trap(std::string Msg, TrapKind Kind = TrapKind::RuntimeError);
  void unwind();

  const CompiledProgram &CP;
  Heap &H;

  FlatStack<Value> Regs; ///< one overlapped register stack, all frames
  FlatStack<Frame> Frames;
  Value Result;

  RunResult *Run = nullptr;
  StatsSink *Sink = nullptr; // cached from H.statsSink() at run() entry
  uint64_t StepLimit = 0;
  // The dispatch loop compares its step count against one bound: the
  // first step that is out of fuel (FuelEnd) or due a safepoint
  // (NextSafepoint), whichever comes first; stepEvent() handles it.
  // Safepoints fire every DeadlineCheckInterval dispatches when armed (a
  // deadline is set, or the heap coalesces shared counts and must flush
  // periodically so other workers observe bounded-stale counts).
  uint64_t FuelEnd = 0;
  uint64_t NextSafepoint = 0;
  uint64_t CallDepthLimit = 0;
  uint64_t CallDepth = 0; // live non-tail frames
  uint64_t DeadlineMs = 0;
  std::chrono::steady_clock::time_point DeadlineAt{};
  bool Trapped = false;
  /// True while the current run executes the pre-peephole chunk tables.
  /// Set at run() entry when the program is peepholed but an entry
  /// argument is a heap reference (e.g. a thread-shared segment), which
  /// voids the immediacy analysis's whole-program assumptions — see
  /// CompiledProgram::Peepholed.
  bool UseRawChunks = false;
  std::function<void(Value)> ResultInspector;
};

} // namespace perceus

#endif // PERCEUS_BYTECODE_VM_H

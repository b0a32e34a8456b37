//===- eval/Machine.h - The abstract machine --------------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit-stack (CEK-style) abstract machine executing RC-
/// instrumented IR against a Heap. It is the operational counterpart of
/// the reference-counted heap semantics of Figure 7:
///
///   * callee-owns calling convention: argument ownership transfers to
///     the callee; applying a closure dups its captured environment and
///     drops the closure (rule app_r);
///   * all other RC behaviour is explicit in the instrumented IR, so the
///     machine itself performs no hidden dup/drop — what the Perceus
///     passes emit is exactly what runs;
///   * proper tail calls: a call whose continuation is the frame return
///     reuses the frame, so FBIP loops run in constant stack space
///     (Section 2.6);
///   * explicit local/operand stacks double as precise GC roots for the
///     tracing-collector configuration.
///
/// Execution is one dispatch loop (execute()) over three flat stacks
/// (support/FlatStack.h): locals, operands and continuations.
///
/// Step accounting. `Steps` counts expression dispatches: one per
/// expression node the machine evaluates, and nothing for handing a
/// value to a continuation. An atomic component — a variable, literal or
/// global reference in an application, constructor or primitive
/// argument position, an `if` condition or a `let` bound — is evaluated
/// in place, without pushing a continuation and popping it again, but it
/// is still counted as exactly the one dispatch the general path would
/// take, through the same countStep() that charges fuel and paces
/// safepoints. Fuel exhaustion, deadline checks and shared-count flushes
/// therefore land on the same step as if every atom went through the
/// continuation, and at every point a trap, a collection or a safepoint
/// can observe, the result register and the operand stack hold what the
/// general path would hold. `MaxLocalsSlots` is raised where the locals
/// stack grows (run entry and calls) and counts a frame only once a
/// dispatch inside it has passed its fuel and deadline check, as if it
/// were sampled on every dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_MACHINE_H
#define PERCEUS_EVAL_MACHINE_H

#include "eval/Engine.h"
#include "eval/Layout.h"
#include "ir/Program.h"
#include "runtime/Heap.h"
#include "support/FlatStack.h"

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace perceus {

/// Executes programs; see the file comment.
class Machine : public Engine {
public:
  /// \p Layout must have been produced from \p P *after* all passes ran.
  Machine(const Program &P, const ProgramLayout &Layout, Heap &H);

  /// Runs function \p F on \p Args (ownership of heap arguments
  /// transfers to the callee). A heap-valued result is dropped before
  /// returning (reported in Result.Kind).
  RunResult run(FuncId F, std::vector<Value> Args) override;

  /// Step fuel: maximum expression dispatches before trapping with
  /// OutOfFuel (0 = unlimited).
  void setStepLimit(uint64_t Limit) override { StepLimit = Limit; }

  /// Maximum simultaneously-live non-tail call frames before trapping
  /// with StackOverflow (0 = unlimited). Tail calls reuse their frame
  /// and never count against the limit.
  void setCallDepthLimit(uint64_t Limit) override { CallDepthLimit = Limit; }

  /// Wall-clock budget per run (0 = none); armed at run() entry and
  /// checked every DeadlineCheckInterval dispatches.
  void setDeadline(uint64_t Ms) override { DeadlineMs = Ms; }

  /// Enumerates every GC root (locals, operands, pending result).
  void enumerateRoots(const std::function<void(Value)> &Fn) const override;

  /// Called with the final value right before the machine releases it
  /// (heap results are dropped to keep runs garbage free); lets callers
  /// inspect structured results.
  void setResultInspector(std::function<void(Value)> Fn) override {
    ResultInspector = std::move(Fn);
  }

  Heap &heap() override { return H; }

private:
  struct Kont {
    enum class K : uint8_t { Ret, Let, Seq, If, Args, SetField } Kind;
    uint32_t Next = 0;        // Args: next component index
    const Expr *Node = nullptr;
    uint32_t Base = 0;        // Ret: previous frame base; Args: operand base
    uint32_t FrameStart = 0;  // Ret: where the returning frame begins
  };
  static_assert(sizeof(Kont) == 24, "one continuation is three words");

  void execute();
  bool countStep();
  bool stepEvent();
  void noteFrameGrowth();
  template <typename NodeT>
  bool continueArgs(const NodeT *N, uint32_t I, size_t Base);
  Value atomValue(const Expr *E);
  const Expr *tryRunRcChainToUnit(const Expr *E);
  bool tryRunRcChainToToken(const Expr *E, Value &Tok);
  void runRcChain(const Expr *E, const Expr *End);
  void trap(std::string Msg, TrapKind Kind = TrapKind::RuntimeError);
  void unwind();
  void doCall(size_t OperandBase, SourceLoc Loc);
  void finishCon(const ConExpr *C, size_t OperandBase);
  void finishPrim(const PrimExpr *Pr, size_t OperandBase);

  Value &local(uint32_t Slot) { return Locals[CurBase + Slot]; }

  const Program &P;
  const ProgramLayout &Layout;
  Heap &H;

  // Machine registers.
  const Expr *Code = nullptr; // expression being evaluated (or null)
  Value Result;               // value produced when Code is null
  size_t CurBase = 0;
  FlatStack<Value> Locals;
  FlatStack<Value> Operands;
  FlatStack<Kont> Konts;

  RunResult *Run = nullptr;
  StatsSink *Sink = nullptr; // cached from H.statsSink() at run() entry
  uint64_t StepLimit = 0;
  uint64_t CallDepthLimit = 0;
  uint64_t CallDepth = 0; // live non-tail (Ret) frames
  uint64_t DeadlineMs = 0;
  std::chrono::steady_clock::time_point DeadlineAt{};
  // countStep() compares the step count against one bound, NextEvent:
  // the first step that is out of fuel (FuelEnd) or due a safepoint
  // (NextSafepoint), whichever comes first. Safepoints fire every
  // DeadlineCheckInterval dispatches when armed (a deadline is set, or
  // the heap coalesces shared counts and must flush periodically so
  // other workers observe bounded-stale counts).
  uint64_t NextEvent = 0;
  uint64_t FuelEnd = 0;
  uint64_t NextSafepoint = 0;
  uint64_t SafepointsSeen = 0; // paces the coalescing-buffer flush
  // The last raise of MaxLocalsSlots, undone if the first dispatch in
  // the grown frame (step HighWaterStep) traps before it runs.
  uint64_t HighWaterStep = 0;
  uint64_t HighWaterPrev = 0;
  bool Trapped = false;
  std::function<void(Value)> ResultInspector;
};

} // namespace perceus

#endif // PERCEUS_EVAL_MACHINE_H

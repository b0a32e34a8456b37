//===- eval/Machine.cpp - The abstract machine --------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Machine.h"

#include "support/Casting.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <limits>
#include <type_traits>

using namespace perceus;

// The resolver's program limits are what keep cell headers exact.
static_assert(MaxCtorFields ==
              std::numeric_limits<decltype(CellHeader::Arity)>::max());
static_assert(MaxCtorsPerType ==
              std::numeric_limits<decltype(CellHeader::Tag)>::max() + 1u);
static_assert(MaxLambdaCaptures + 1 == MaxCtorFields);

Machine::Machine(const Program &P, const ProgramLayout &Layout, Heap &H)
    : P(P), Layout(Layout), H(H) {}

const char *perceus::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::Ok:
    return "ok";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::OutOfFuel:
    return "out-of-fuel";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::RuntimeError:
    return "runtime-error";
  case TrapKind::Deadline:
    return "deadline";
  }
  return "unknown";
}

void Machine::trap(std::string Msg, TrapKind Kind) {
  Trapped = true;
  Run->Ok = false;
  Run->Trap = Kind;
  Run->Error = std::move(Msg);
}

/// The clean-unwind path: a trap abandons the run, so every value still
/// held by a live frame, the operand stack, or the result register is
/// garbage. Reclaim all of it so the garbage-free guarantee holds on the
/// error path too (the fault sweep asserts Heap::empty() after every
/// injected failure). Slots may be stale — ownership already moved, or
/// the cell already freed — which Heap::reclaim tolerates by design.
void Machine::unwind() {
  size_t Freed;
  if (H.mode() == HeapMode::Gc) {
    // Tracing mode: no roots survive the trap, everything is garbage.
    Freed = H.reclaimAll();
  } else {
    std::vector<Value> Roots;
    Roots.reserve(Locals.size() + Operands.size() + 1);
    Roots.insert(Roots.end(), Locals.begin(), Locals.end());
    Roots.insert(Roots.end(), Operands.begin(), Operands.end());
    Roots.push_back(Result);
    Freed = H.reclaim(Roots);
  }
  Locals.clear();
  Operands.clear();
  Konts.clear();
  CurBase = 0;
  Code = nullptr;
  Result = Value::unit();
  Run->UnwoundCells = Freed;
}

RunResult Machine::run(FuncId F, std::vector<Value> Args) {
  RunResult R;
  Run = &R;
  Sink = H.statsSink();
  Trapped = false;
  CallDepth = 0;
  if (DeadlineMs)
    DeadlineAt = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(DeadlineMs);
  constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
  FuelEnd = StepLimit == 0 || StepLimit == Never ? Never : StepLimit + 1;
  NextSafepoint = DeadlineMs != 0 || H.sharedCoalescingEnabled()
                      ? DeadlineCheckInterval
                      : Never;
  NextEvent = std::min(FuelEnd, NextSafepoint);
  HighWaterStep = 0;
  Locals.clear();
  Operands.clear();
  Konts.clear();
  Result = Value::unit();

  const FunctionDecl &Fn = P.function(F);
  if (Args.size() != Fn.Params.size()) {
    trap("entry function arity mismatch");
    // Ownership of the arguments transferred to us; unwind them.
    for (Value V : Args)
      Operands.push_back(V);
    unwind();
    Run = nullptr;
    return R;
  }
  CurBase = 0;
  Locals.resize(Layout.FuncFrameSize[F]);
  for (size_t I = 0; I != Args.size(); ++I)
    Locals[I] = Args[I];
  noteFrameGrowth();
  Code = Fn.Body;

  execute();

  if (!Trapped) {
    R.Ok = true;
    R.Result = Result;
    if (ResultInspector)
      ResultInspector(Result);
    // The caller of the entry point owns the result; release heap
    // results so a garbage-free run ends with an empty heap.
    if (Result.isHeap()) {
      if (Sink)
        Sink->setSite(this, "result", SourceLoc{});
      ++R.Rc.ImplicitDrops;
      H.drop(Result);
    }
  } else {
    unwind();
  }
  Run = nullptr;
  return R;
}

/// Charges one dispatch against the fuel and the safepoint cadence.
/// False when it trapped.
inline bool Machine::countStep() {
  if (++Run->Steps < NextEvent) [[likely]]
    return true;
  return stepEvent();
}

/// The rare half of countStep(), reached on step NextEvent: either the
/// fuel runs out, or a safepoint is due. A safepoint publishes the
/// buffered shared-count deltas every SharedFlushSafepointStride-th time
/// (bounded staleness for other workers; see Engine.h for why not every
/// time), then reads the deadline clock.
bool Machine::stepEvent() {
  uint64_t Steps = Run->Steps;
  if (Steps < FuelEnd) {
    NextSafepoint += DeadlineCheckInterval;
    NextEvent = std::min(FuelEnd, NextSafepoint);
    if (++SafepointsSeen % SharedFlushSafepointStride == 0)
      H.flushSharedDeltas();
    if (!DeadlineMs || std::chrono::steady_clock::now() < DeadlineAt)
      return true;
  }
  // The step traps before its dispatch runs; if it was the first one in
  // a newly grown frame, that frame never counted toward the high-water
  // mark.
  if (Steps == HighWaterStep)
    Run->MaxLocalsSlots = HighWaterPrev;
  if (Steps >= FuelEnd)
    trap("step limit exceeded (out of fuel)", TrapKind::OutOfFuel);
  else
    trap("wall-clock deadline exceeded", TrapKind::Deadline);
  return false;
}

/// Raises MaxLocalsSlots after the locals stack grew. The next step is
/// the first dispatch in the grown frame; stepEvent() undoes the raise if
/// that step traps.
inline void Machine::noteFrameGrowth() {
  if (Locals.size() > Run->MaxLocalsSlots) {
    HighWaterPrev = Run->MaxLocalsSlots;
    HighWaterStep = Run->Steps + 1;
    Run->MaxLocalsSlots = Locals.size();
  }
}

/// Whether \p E is evaluated in place where it appears as a component
/// (see the step-accounting note in Machine.h).
static bool isAtom(const Expr *E) {
  ExprKind K = E->kind();
  return K == ExprKind::Var || K == ExprKind::Lit || K == ExprKind::Global;
}

/// The value of an atom (isAtom).
inline Value Machine::atomValue(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Var:
    return local(E->layoutA());
  case ExprKind::Global:
    return Value::makeFnRef(cast<GlobalExpr>(E)->func());
  default: {
    const LitValue &V = cast<LitExpr>(E)->value();
    switch (V.Kind) {
    case LitKind::Int:
      return Value::makeInt(V.Int);
    case LitKind::Bool:
      return Value::makeBool(V.Int != 0);
    case LitKind::Unit:
      break;
    }
    return Value::unit();
  }
  }
}

/// Continues the application, constructor or primitive \p N whose
/// components before argument \p I are on the operand stack from \p Base.
/// Atomic arguments are evaluated in place, one step each, exactly as the
/// Args continuation would evaluate them; the first compound argument is
/// handed to the dispatch loop under an Args continuation that resumes
/// after it. Once every component is on the operand stack the node
/// completes. False when a step or the completion trapped.
template <typename NodeT>
inline bool Machine::continueArgs(const NodeT *N, uint32_t I, size_t Base) {
  std::span<const Expr *const> Args = N->args();
  for (auto End = static_cast<uint32_t>(Args.size()); I != End; ++I) {
    const Expr *C = Args[I];
    if (!isAtom(C)) {
      // Component 0 of an application is its callee.
      constexpr uint32_t First = std::is_same_v<NodeT, AppExpr> ? 1 : 0;
      Konts.push_back(Kont{Kont::K::Args, First + I + 1, N,
                           static_cast<uint32_t>(Base), 0});
      Code = C;
      return true;
    }
    if (!countStep())
      return false;
    Result = atomValue(C);
    Operands.push_back(Result);
  }
  Code = nullptr;
  if constexpr (std::is_same_v<NodeT, AppExpr>)
    doCall(Base, N->loc());
  else if constexpr (std::is_same_v<NodeT, ConExpr>)
    finishCon(N, Base);
  else
    finishPrim(N, Base);
  return !Trapped;
}

/// The dispatch loop: runs machine transitions until the run completes
/// (Code is null and no continuation is left) or traps. Cache-line
/// aligned for the same reason as VM::execute.
[[gnu::aligned(64)]] void Machine::execute() {
  for (;;) {
    if (const Expr *E = Code) {
      if (!countStep())
        return;
      switch (E->kind()) {
      case ExprKind::Lit:
      case ExprKind::Var:
      case ExprKind::Global:
        Result = atomValue(E);
        Code = nullptr;
        continue;
      case ExprKind::Lam: {
        const auto *L = cast<LamExpr>(E);
        size_t NCaps = L->captures().size();
        const std::vector<uint32_t> &List = Layout.SlotLists[E->layoutA()];
        if (Sink)
          Sink->setSite(E, "lambda", E->loc());
        Cell *C = H.alloc(static_cast<uint32_t>(NCaps + 1), 0,
                          CellKind::Closure);
        if (!C) {
          trap("out of memory allocating a closure", TrapKind::OutOfMemory);
          return;
        }
        H.initField(C, 0, Value::makeRaw(L));
        for (size_t I = 0; I != NCaps; ++I) // ownership moves into the closure
          H.initField(C, static_cast<uint32_t>(1 + I), local(List[I]));
        Result = Value::makeRef(C);
        Code = nullptr;
        continue;
      }
      case ExprKind::App: {
        const auto *A = cast<AppExpr>(E);
        size_t Base = Operands.size();
        const Expr *Fn = A->fn();
        if (!isAtom(Fn)) {
          Konts.push_back(
              Kont{Kont::K::Args, 1, E, static_cast<uint32_t>(Base), 0});
          Code = Fn;
          continue;
        }
        if (!countStep())
          return;
        Result = atomValue(Fn);
        Operands.push_back(Result);
        if (!continueArgs(A, 0, Base))
          return;
        continue;
      }
      case ExprKind::Let: {
        const auto *L = cast<LetExpr>(E);
        // Superinstruction: the drop-reuse specialized form
        //   val ru = if is-unique(x) then {rc ops; &v} else {rc ops; NULL}
        // executes in one dispatch.
        if (const auto *U = dyn_cast<IsUniqueExpr>(L->bound())) {
          if (Sink)
            Sink->setSite(U, "is-unique", U->loc());
          ++Run->Rc.IsUniques;
          const Expr *Branch = H.isUnique(local(U->layoutA()))
                                   ? U->thenExpr()
                                   : U->elseExpr();
          Value Tok;
          if (tryRunRcChainToToken(Branch, Tok)) {
            local(L->layoutA()) = Tok;
            Code = L->body();
            continue;
          }
          if (Trapped)
            return;
        }
        const Expr *Bound = L->bound();
        if (isAtom(Bound)) {
          if (!countStep())
            return;
          Result = atomValue(Bound);
          local(L->layoutA()) = Result;
          Code = L->body();
          continue;
        }
        Konts.push_back(Kont{Kont::K::Let, 0, E, 0, 0});
        Code = Bound;
        continue;
      }
      case ExprKind::Seq: {
        const auto *S = cast<SeqExpr>(E);
        // Superinstruction: a drop-specialized statement
        //   if is-unique(x) then {rc ops; ()} else {rc ops; ()}; rest
        // executes in one dispatch, like the straight-line code a
        // compiler would emit for it.
        if (const auto *U = dyn_cast<IsUniqueExpr>(S->first())) {
          if (Sink)
            Sink->setSite(U, "is-unique", U->loc());
          ++Run->Rc.IsUniques;
          const Expr *Branch = H.isUnique(local(U->layoutA()))
                                   ? U->thenExpr()
                                   : U->elseExpr();
          if (tryRunRcChainToUnit(Branch)) {
            Code = S->second();
            continue;
          }
          // Unusual branch shape: evaluate generically.
        }
        Konts.push_back(Kont{Kont::K::Seq, 0, S->second(), 0, 0});
        Code = S->first();
        continue;
      }
      case ExprKind::If: {
        const auto *I = cast<IfExpr>(E);
        const Expr *Cond = I->cond();
        if (isAtom(Cond)) {
          if (!countStep())
            return;
          Result = atomValue(Cond);
          if (Result.Kind != ValueKind::Bool) {
            trap("if condition is not a boolean");
            return;
          }
          Code = Result.asBool() ? I->thenExpr() : I->elseExpr();
          continue;
        }
        Konts.push_back(Kont{Kont::K::If, 0, E, 0, 0});
        Code = Cond;
        continue;
      }
      case ExprKind::Match: {
        const auto *M = cast<MatchExpr>(E);
        Value V = local(E->layoutA());
        const std::vector<uint32_t> &Binders =
            Layout.SlotLists[E->layoutB()];
        size_t Offset = 0;
        const MatchArm *Default = nullptr;
        const MatchArm *Taken = nullptr;
        for (const MatchArm &Arm : M->arms()) {
          bool Matches = false;
          switch (Arm.Kind) {
          case ArmKind::Ctor: {
            const CtorDecl &C = P.ctor(Arm.Ctor);
            if (V.Kind == ValueKind::Enum)
              Matches = V.enumTag() == C.Tag;
            else if (V.Kind == ValueKind::HeapRef &&
                     V.Ref->H.Kind == CellKind::Ctor)
              Matches = V.Ref->H.Tag == C.Tag;
            else if (V.Kind != ValueKind::Enum &&
                     V.Kind != ValueKind::HeapRef) {
              trap("match on a non-constructor value");
              return;
            }
            break;
          }
          case ArmKind::IntLit:
            if (V.Kind != ValueKind::Int) {
              trap("integer pattern on a non-integer value");
              return;
            }
            Matches = V.Int == Arm.Lit.Int;
            break;
          case ArmKind::BoolLit:
            if (V.Kind != ValueKind::Bool) {
              trap("boolean pattern on a non-boolean value");
              return;
            }
            Matches = (V.Int != 0) == (Arm.Lit.Int != 0);
            break;
          case ArmKind::Default:
            Default = &Arm;
            break;
          }
          if (Matches) {
            for (size_t I = 0; I != Arm.Binders.size(); ++I)
              local(Binders[Offset + I]) =
                  V.Ref->field(static_cast<uint32_t>(I));
            Taken = &Arm;
            break;
          }
          Offset += Arm.Binders.size();
        }
        if (!Taken)
          Taken = Default;
        if (!Taken) {
          trap("non-exhaustive match");
          return;
        }
        Code = Taken->Body;
        continue;
      }
      case ExprKind::Con: {
        const auto *C = cast<ConExpr>(E);
        const CtorDecl &D = P.ctor(C->ctor());
        if (D.Arity == 0) {
          Result = Value::makeEnum(D.DataId, D.Tag);
          Code = nullptr;
          continue;
        }
        if (!continueArgs(C, 0, Operands.size()))
          return;
        continue;
      }
      case ExprKind::Prim:
        if (!continueArgs(cast<PrimExpr>(E), 0, Operands.size()))
          return;
        continue;

      //===--- RC instructions ----------------------------------------------//
      case ExprKind::Dup:
        if (Sink)
          Sink->setSite(E, "dup", E->loc());
        ++Run->Rc.Dups;
        H.dup(local(E->layoutA()));
        Code = cast<DupExpr>(E)->rest();
        continue;
      case ExprKind::Drop:
        if (Sink)
          Sink->setSite(E, "drop", E->loc());
        ++Run->Rc.Drops;
        H.drop(local(E->layoutA()));
        Code = cast<DropExpr>(E)->rest();
        continue;
      case ExprKind::Free: {
        // `free` is memory-only disposal, not an RC operation: it never
        // reaches the heap's dup/drop/decref API, so it stays outside the
        // HeapStats classification invariant (tracked in Rc.Frees only).
        if (Sink)
          Sink->setSite(E, "free", E->loc());
        ++Run->Rc.Frees;
        Value V = local(E->layoutA());
        if (V.Kind == ValueKind::HeapRef) {
          H.freeMemoryOnly(V.Ref);
        } else if (V.Kind == ValueKind::Token) {
          if (V.Tok)
            H.freeMemoryOnly(V.Tok);
        }
        Code = cast<FreeExpr>(E)->rest();
        continue;
      }
      case ExprKind::DecRef:
        if (Sink)
          Sink->setSite(E, "decref", E->loc());
        ++Run->Rc.DecRefs;
        H.decref(local(E->layoutA()));
        Code = cast<DecRefExpr>(E)->rest();
        continue;
      case ExprKind::IsUnique: {
        const auto *U = cast<IsUniqueExpr>(E);
        if (Sink)
          Sink->setSite(E, "is-unique", E->loc());
        ++Run->Rc.IsUniques;
        Code =
            H.isUnique(local(E->layoutA())) ? U->thenExpr() : U->elseExpr();
        continue;
      }
      case ExprKind::DropReuse: {
        const auto *D = cast<DropReuseExpr>(E);
        Value V = local(E->layoutA());
        if (V.Kind != ValueKind::HeapRef) {
          trap("drop-reuse of a non-heap value");
          return;
        }
        if (Sink)
          Sink->setSite(E, "drop-reuse", E->loc());
        ++Run->Rc.DropReuses;
        ++Run->Rc.IsUniques; // the probe below is a real is-unique test
        if (H.isUnique(V)) {
          Run->Rc.ImplicitDrops += V.Ref->H.Arity; // dropChildren drops each
          H.dropChildren(V.Ref);
          local(E->layoutB()) = Value::makeToken(V.Ref);
        } else {
          ++Run->Rc.ImplicitDecRefs;
          H.decref(V);
          local(E->layoutB()) = Value::makeToken(nullptr);
        }
        Code = D->rest();
        continue;
      }
      case ExprKind::ReuseAddr: {
        Value V = local(E->layoutA());
        if (V.Kind != ValueKind::HeapRef) {
          trap("reuse-addr of a non-heap value");
          return;
        }
        Result = Value::makeToken(V.Ref);
        Code = nullptr;
        continue;
      }
      case ExprKind::NullToken:
        Result = Value::makeToken(nullptr);
        Code = nullptr;
        continue;
      case ExprKind::IsNullToken: {
        const auto *N = cast<IsNullTokenExpr>(E);
        Value V = local(E->layoutA());
        if (V.Tok == nullptr) {
          // The reuse-specialized fresh path: the pairing missed.
          ++Run->ReuseMisses;
          if (Sink) {
            Sink->setSite(E, "is-null-token", E->loc());
            Sink->record(RcEvent::ReuseMiss, 0);
          }
          Code = N->thenExpr();
        } else {
          Code = N->elseExpr();
        }
        continue;
      }
      case ExprKind::SetField:
        Konts.push_back(Kont{Kont::K::SetField, 0, E, 0, 0});
        Code = cast<SetFieldExpr>(E)->value();
        continue;
      case ExprKind::TokenValue: {
        const auto *T = cast<TokenValueExpr>(E);
        Value V = local(E->layoutA());
        if (V.Kind != ValueKind::Token || !V.Tok) {
          trap("token value of a null or non-token");
          return;
        }
        Cell *C = V.Tok;
        C->H.Tag = static_cast<uint8_t>(P.ctor(T->ctor()).Tag);
        C->H.Kind = CellKind::Ctor;
        ++Run->ReuseHits;
        if (Sink) {
          Sink->setSite(E, "token-value", E->loc());
          Sink->record(RcEvent::ReuseHit, Cell::allocSize(C->H.Arity));
        }
        Result = Value::makeRef(C);
        Code = nullptr;
        continue;
      }
      }
      trap("unhandled expression kind");
      return;
    }

    // Apply phase: feed Result to the top continuation.
    if (Konts.empty())
      return; // run complete
    Kont K = Konts.back();
    Konts.pop_back();
    switch (K.Kind) {
    case Kont::K::Ret:
      Locals.resize(K.FrameStart);
      CurBase = K.Base;
      --CallDepth;
      continue;
    case Kont::K::Let: {
      const auto *L = cast<LetExpr>(K.Node);
      local(L->layoutA()) = Result;
      Code = L->body();
      continue;
    }
    case Kont::K::Seq:
      Code = K.Node;
      continue;
    case Kont::K::If: {
      const auto *I = cast<IfExpr>(K.Node);
      if (Result.Kind != ValueKind::Bool) {
        trap("if condition is not a boolean");
        return;
      }
      Code = Result.asBool() ? I->thenExpr() : I->elseExpr();
      continue;
    }
    case Kont::K::SetField: {
      const auto *S = cast<SetFieldExpr>(K.Node);
      Value Tok = local(S->layoutA());
      if (Tok.Kind != ValueKind::Token || !Tok.Tok) {
        trap("field assignment through a null token");
        return;
      }
      H.setField(Tok.Tok, S->index(), Result);
      Code = S->rest();
      continue;
    }
    case Kont::K::Args: {
      // Collect the just-produced component, then go on with the next.
      Operands.push_back(Result);
      bool Ok;
      switch (K.Node->kind()) {
      case ExprKind::App:
        Ok = continueArgs(cast<AppExpr>(K.Node), K.Next - 1, K.Base);
        break;
      case ExprKind::Con:
        Ok = continueArgs(cast<ConExpr>(K.Node), K.Next, K.Base);
        break;
      case ExprKind::Prim:
        Ok = continueArgs(cast<PrimExpr>(K.Node), K.Next, K.Base);
        break;
      default:
        trap("corrupt argument continuation");
        return;
      }
      if (!Ok)
        return;
      continue;
    }
    }
    return;
  }
}

void Machine::doCall(size_t OperandBase, SourceLoc Loc) {
  Value Callee = Operands[OperandBase];
  size_t NArgs = Operands.size() - OperandBase - 1;

  const Expr *Body = nullptr;
  uint32_t FrameSize = 0;
  const LamExpr *Lam = nullptr;
  Cell *Closure = nullptr;

  if (Callee.Kind == ValueKind::FnRef) {
    const FunctionDecl &Fn = P.function(Callee.fnId());
    if (Fn.Params.size() != NArgs) {
      trap("arity mismatch calling '" +
           std::string(P.symbols().name(Fn.Name)) + "'");
      return;
    }
    Body = Fn.Body;
    FrameSize = Layout.FuncFrameSize[Callee.fnId()];
  } else if (Callee.Kind == ValueKind::HeapRef &&
             Callee.Ref->H.Kind == CellKind::Closure) {
    Closure = Callee.Ref;
    Lam = static_cast<const LamExpr *>(Closure->field(0).rawPtr());
    if (Lam->params().size() != NArgs) {
      trap("arity mismatch calling a closure");
      return;
    }
    Body = Lam->body();
    FrameSize = Lam->layoutB();
  } else {
    trap("calling a non-function value");
    return;
  }

  // Tail call: the continuation is this frame's return — reuse it.
  size_t NewBase;
  if (!Konts.empty() && Konts.back().Kind == Kont::K::Ret) {
    ++Run->TailCalls;
    // Keep the frame's Ret continuation; replace the frame itself.
    NewBase = Konts.back().FrameStart;
  } else {
    if (CallDepthLimit && CallDepth >= CallDepthLimit) {
      trap("call depth limit exceeded (stack overflow)",
           TrapKind::StackOverflow);
      return;
    }
    ++CallDepth;
    if (CallDepth > Run->MaxCallDepth)
      Run->MaxCallDepth = CallDepth;
    NewBase = Locals.size();
    Konts.push_back(Kont{Kont::K::Ret, 0, nullptr,
                         static_cast<uint32_t>(CurBase),
                         static_cast<uint32_t>(NewBase)});
  }

  // Bind arguments (params occupy slots 0..n-1) over a fresh frame, then
  // captures, then pop the operands.
  assert(NArgs <= FrameSize && "parameters fit the frame");
  Locals.reframe(NewBase + FrameSize, NewBase + NArgs);
  Value *Frame = Locals.data() + NewBase;
  const Value *ArgVals = Operands.data() + OperandBase + 1;
  for (size_t I = 0; I != NArgs; ++I)
    Frame[I] = ArgVals[I];
  CurBase = NewBase;
  Operands.resize(OperandBase);
  noteFrameGrowth();

  if (Lam) {
    // Rule (app_r): dup the captured environment, then drop the closure.
    if (Sink)
      Sink->setSite(Lam, "app", Loc);
    const std::vector<uint32_t> &List = Layout.SlotLists[Lam->layoutA()];
    size_t NCaps = Lam->captures().size();
    const uint32_t *Targets = List.data() + NCaps;
    for (size_t I = 0; I != NCaps; ++I) {
      Value Cap = Closure->field(static_cast<uint32_t>(1 + I));
      ++Run->Rc.ImplicitDups;
      H.dup(Cap);
      Locals[NewBase + Targets[I]] = Cap;
    }
    ++Run->Rc.ImplicitDrops;
    H.drop(Value::makeRef(Closure));
  }

  Code = Body;
}

void Machine::finishCon(const ConExpr *C, size_t OperandBase) {
  const CtorDecl &D = P.ctor(C->ctor());
  Cell *Cl = nullptr;
  if (Sink)
    Sink->setSite(C, C->hasReuseToken() ? "con@ru" : "con", C->loc());
  if (C->hasReuseToken()) {
    Value Tok = local(C->layoutA());
    if (Tok.Kind != ValueKind::Token) {
      trap("constructor reuse with a non-token");
      return;
    }
    if (Tok.Tok) {
      Cl = Tok.Tok; // in-place reuse: same memory, fresh identity
      assert(Cl->H.Arity == D.Arity && "reuse token arity mismatch");
      H.clearBoxes(Cl); // every field is rewritten below
      Cl->H.Rc.store(1, std::memory_order_relaxed);
      Cl->H.Tag = static_cast<uint8_t>(D.Tag);
      Cl->H.Kind = CellKind::Ctor;
      ++Run->ReuseHits;
      if (Sink)
        Sink->record(RcEvent::ReuseHit, Cell::allocSize(D.Arity));
    } else {
      ++Run->ReuseMisses;
      if (Sink)
        Sink->record(RcEvent::ReuseMiss, 0);
    }
  }
  if (!Cl) {
    Cl = H.alloc(D.Arity, D.Tag, CellKind::Ctor);
    if (!Cl) {
      // The field values stay on the operand stack for the unwind.
      trap("out of memory allocating a constructor", TrapKind::OutOfMemory);
      return;
    }
  }
  for (uint32_t I = 0; I != D.Arity; ++I)
    H.initField(Cl, I, Operands[OperandBase + I]);
  Operands.resize(OperandBase);
  Result = Value::makeRef(Cl);
  Code = nullptr;
}

void Machine::finishPrim(const PrimExpr *Pr, size_t OperandBase) {
  size_t N = Operands.size() - OperandBase;
  auto arg = [&](size_t I) { return Operands[OperandBase + I]; };
  auto intArg = [&](size_t I, bool &OkFlag) {
    if (arg(I).Kind != ValueKind::Int) {
      OkFlag = false;
      return int64_t(0);
    }
    return arg(I).Int;
  };

  bool OkArgs = true;
  Value Out = Value::unit();
  switch (Pr->op()) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
  case PrimOp::Mod: {
    if (N != 2) {
      trap("arithmetic primitive arity");
      return;
    }
    int64_t A = intArg(0, OkArgs);
    int64_t B = intArg(1, OkArgs);
    if (!OkArgs) {
      trap("arithmetic on a non-integer");
      return;
    }
    switch (Pr->op()) {
    case PrimOp::Add:
      Out = Value::makeInt(wrapAdd(A, B));
      break;
    case PrimOp::Sub:
      Out = Value::makeInt(wrapSub(A, B));
      break;
    case PrimOp::Mul:
      Out = Value::makeInt(wrapMul(A, B));
      break;
    case PrimOp::Div:
      if (B == 0) {
        trap("division by zero");
        return;
      }
      if (A == INT64_MIN && B == -1) {
        trap("integer overflow in division");
        return;
      }
      Out = Value::makeInt(A / B);
      break;
    default:
      if (B == 0) {
        trap("modulo by zero");
        return;
      }
      if (A == INT64_MIN && B == -1) {
        trap("integer overflow in modulo");
        return;
      }
      Out = Value::makeInt(A % B);
      break;
    }
    break;
  }
  case PrimOp::Neg: {
    int64_t A = intArg(0, OkArgs);
    if (!OkArgs) {
      trap("negation of a non-integer");
      return;
    }
    if (A == INT64_MIN) {
      trap("integer overflow in negation");
      return;
    }
    Out = Value::makeInt(-A);
    break;
  }
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Gt:
  case PrimOp::Ge: {
    int64_t A = intArg(0, OkArgs);
    int64_t B = intArg(1, OkArgs);
    if (!OkArgs) {
      trap("comparison of non-integers");
      return;
    }
    bool R = false;
    switch (Pr->op()) {
    case PrimOp::Lt:
      R = A < B;
      break;
    case PrimOp::Le:
      R = A <= B;
      break;
    case PrimOp::Gt:
      R = A > B;
      break;
    default:
      R = A >= B;
      break;
    }
    Out = Value::makeBool(R);
    break;
  }
  case PrimOp::EqInt:
  case PrimOp::NeInt: {
    Value A = arg(0);
    Value B = arg(1);
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else {
      trap("equality on incompatible or heap values");
      return;
    }
    Out = Value::makeBool(Pr->op() == PrimOp::EqInt ? Eq : !Eq);
    break;
  }
  case PrimOp::Not: {
    if (arg(0).Kind != ValueKind::Bool) {
      trap("negation of a non-boolean");
      return;
    }
    Out = Value::makeBool(!arg(0).asBool());
    break;
  }
  case PrimOp::PrintLn: {
    if (arg(0).Kind == ValueKind::Int)
      Run->Output += std::to_string(arg(0).Int);
    else if (arg(0).Kind == ValueKind::Bool)
      Run->Output += arg(0).asBool() ? "True" : "False";
    else if (arg(0).Kind == ValueKind::Unit)
      Run->Output += "()";
    else {
      trap("println of a non-printable value");
      return;
    }
    Run->Output += '\n';
    break;
  }
  case PrimOp::MarkShared: {
    // tshare consumes its argument (the reference is transferred in).
    if (Sink)
      Sink->setSite(Pr, "tshare", Pr->loc());
    H.markShared(arg(0));
    ++Run->Rc.ImplicitDrops;
    H.drop(arg(0));
    break;
  }
  case PrimOp::Abort:
    trap("abort: non-exhaustive match or explicit failure");
    return;
  case PrimOp::RefNew: {
    // Ownership of the content moves into the cell.
    if (Sink)
      Sink->setSite(Pr, "ref-new", Pr->loc());
    Cell *C = H.alloc(1, 0, CellKind::Ref);
    if (!C) {
      trap("out of memory allocating a reference", TrapKind::OutOfMemory);
      return;
    }
    H.initField(C, 0, arg(0));
    Out = Value::makeRef(C);
    break;
  }
  case PrimOp::RefGet: {
    Value R = arg(0);
    if (R.Kind != ValueKind::HeapRef || R.Ref->H.Kind != CellKind::Ref) {
      trap("deref of a non-reference");
      return;
    }
    Out = R.Ref->field(0);
    // The paper's read: dup the content, then release the handle. (Our
    // machine is single-threaded; Section 2.7.3's dup/write race needs
    // the atomic path only under concurrent mutation.)
    if (Sink)
      Sink->setSite(Pr, "ref-get", Pr->loc());
    ++Run->Rc.ImplicitDups;
    H.dup(Out);
    ++Run->Rc.ImplicitDrops;
    H.drop(R);
    break;
  }
  case PrimOp::RefSet: {
    Value R = arg(0);
    if (R.Kind != ValueKind::HeapRef || R.Ref->H.Kind != CellKind::Ref) {
      trap("set-ref of a non-reference");
      return;
    }
    Value Old = R.Ref->field(0);
    H.setField(R.Ref, 0, arg(1)); // content ownership moves in
    if (Sink)
      Sink->setSite(Pr, "ref-set", Pr->loc());
    Run->Rc.ImplicitDrops += 2;
    H.drop(Old);
    H.drop(R); // release the handle
    break;
  }
  }
  Operands.resize(OperandBase);
  Result = Out;
  Code = nullptr;
}

/// If \p E is a chain of RC statements ending in the unit literal,
/// executes the chain and returns the terminal; otherwise returns null
/// without side effects (the shape is validated before execution).
const Expr *Machine::tryRunRcChainToUnit(const Expr *E) {
  const Expr *T = E;
  while (isa<RcStmtExpr>(T))
    T = cast<RcStmtExpr>(T)->rest();
  const auto *L = dyn_cast<LitExpr>(T);
  if (!L || L->value().Kind != LitKind::Unit)
    return nullptr;
  runRcChain(E, T);
  return T;
}

/// Like tryRunRcChainToUnit but for chains ending in `&v` or `NULL`
/// (the drop-reuse specialized branches); yields the token value.
bool Machine::tryRunRcChainToToken(const Expr *E, Value &Tok) {
  const Expr *T = E;
  while (isa<RcStmtExpr>(T))
    T = cast<RcStmtExpr>(T)->rest();
  if (const auto *R = dyn_cast<ReuseAddrExpr>(T)) {
    runRcChain(E, T);
    Value V = local(R->layoutA());
    if (V.Kind != ValueKind::HeapRef) {
      trap("reuse-addr of a non-heap value");
      return false;
    }
    Tok = Value::makeToken(V.Ref);
    return true;
  }
  if (isa<NullTokenExpr>(T)) {
    runRcChain(E, T);
    Tok = Value::makeToken(nullptr);
    return true;
  }
  return false;
}

/// Executes the RC statements from \p E up to (excluding) \p End.
void Machine::runRcChain(const Expr *E, const Expr *End) {
  while (E != End) {
    const auto *R = cast<RcStmtExpr>(E);
    Value V = local(R->layoutA());
    switch (E->kind()) {
    case ExprKind::Dup:
      if (Sink)
        Sink->setSite(E, "dup", E->loc());
      ++Run->Rc.Dups;
      H.dup(V);
      break;
    case ExprKind::Drop:
      if (Sink)
        Sink->setSite(E, "drop", E->loc());
      ++Run->Rc.Drops;
      H.drop(V);
      break;
    case ExprKind::DecRef:
      if (Sink)
        Sink->setSite(E, "decref", E->loc());
      ++Run->Rc.DecRefs;
      H.decref(V);
      break;
    default: // Free
      if (Sink)
        Sink->setSite(E, "free", E->loc());
      ++Run->Rc.Frees;
      if (V.Kind == ValueKind::HeapRef)
        H.freeMemoryOnly(V.Ref);
      else if (V.Kind == ValueKind::Token && V.Tok)
        H.freeMemoryOnly(V.Tok);
      break;
    }
    E = R->rest();
  }
}

void Machine::enumerateRoots(const std::function<void(Value)> &Fn) const {
  for (const Value &V : Locals)
    Fn(V);
  for (const Value &V : Operands)
    Fn(V);
  if (!Code)
    Fn(Result);
}

//===- bytecode/Bytecode.h - Flat register bytecode -------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, register-based bytecode for the RC-instrumented IR. The
/// compiler (bytecode/Compiler.h) lowers each function and each lambda
/// body into a Chunk of fixed-width instructions over the frame layout
/// the CEK machine already uses: the layout pass's named slots become the
/// low registers of the frame, and expression temporaries live above
/// them. Operand windows for calls, constructors and primitives are
/// contiguous register ranges, Lua-style, so a call binds its arguments
/// by re-basing the register file instead of copying.
///
/// Design constraints, in priority order:
///
///  1. *Observable parity with the CEK machine.* The VM must issue the
///     exact same sequence of heap operations (alloc, dup, drop, decref,
///     is-unique, free, markShared) with the same telemetry sites, so
///     HeapStats, RcInstrCounts, reuse counters and fault-injection
///     behaviour are bit-identical across engines. This dictates the
///     evaluation order baked into the compiler (callee before
///     arguments, constructor fields before the allocation, value before
///     the token check in set-field) and the first-class RC opcodes.
///  2. *Dispatch speed.* Every RC instruction, the is-unique and
///     null-token branches, and each primitive is a single opcode;
///     constructor tag/arity are inline immediates resolved at compile
///     time (the "inline cache" — no CtorDecl lookup at run time); calls
///     to statically-known functions skip callee resolution entirely.
///
/// Instructions are 12 bytes: opcode, an 8-bit immediate A, three 16-bit
/// register/immediate fields B/C/D, and a 32-bit extended field E used
/// for jump targets, pool indices and function/lambda ids. Register
/// indices are frame-relative; a frame holds at most 65535 registers.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_BYTECODE_H
#define PERCEUS_BYTECODE_BYTECODE_H

#include "ir/Program.h"
#include "runtime/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perceus {

/// Bytecode operations. Operand conventions are listed per opcode;
/// unnamed fields are unused. "window" is the first register of a
/// contiguous run of operands.
enum class Op : uint8_t {
  //===--- Moves and constants --------------------------------------------===//
  LoadConst,   ///< B=dst, E=constant-pool index
  Move,        ///< B=dst, C=src

  //===--- Control flow ---------------------------------------------------===//
  Jump,        ///< E=target pc
  JumpIfFalse, ///< B=cond, E=target pc (traps on a non-boolean)
  MatchOp,     ///< B=scrutinee slot, E=match-table index
  Call,        ///< A=nargs, B=dst, C=window (callee; args at window+1)
  CallStatic,  ///< A=nargs, B=dst, C=window (args), E=FuncId
  TailCall,    ///< A=nargs, C=window (callee; args at window+1)
  TailCallStatic, ///< A=nargs, C=window (args), E=FuncId
  Ret,         ///< B=src

  //===--- Heap allocation ------------------------------------------------===//
  MakeClosure, ///< B=dst, E=LamId (captures resolved via the lam chunk)
  Con,         ///< A=arity, B=dst, C=window (fields), D=ctor tag
  ConReuse,    ///< A=arity, B=dst, C=window, D=token slot, E=ctor tag

  //===--- RC instructions (first-class; see eval/Machine.h) --------------===//
  Dup,          ///< C=slot
  Drop,         ///< C=slot
  FreeOp,       ///< C=slot (memory-only disposal)
  DecRef,       ///< C=slot
  IsUniqueBr,   ///< C=slot, E=else target (unique path falls through)
  DropReuse,    ///< C=var slot, D=token slot
  ReuseAddr,    ///< B=dst, C=var slot
  IsNullTokenBr,///< C=token slot, E=else target (null path falls through)
  SetField,     ///< A=field index, C=token slot, D=value reg
  TokenValue,   ///< B=dst, C=token slot, D=ctor tag

  //===--- Primitives (one opcode each; fast unboxed paths) ---------------===//
  Add,          ///< B=dst, C=lhs, D=rhs (likewise through Ge)
  Sub,
  Mul,
  Div,
  Mod,
  Neg,          ///< B=dst, C=src
  Lt,
  Le,
  Gt,
  Ge,
  EqVal,        ///< B=dst, C=lhs, D=rhs (Int/Bool/Enum equality)
  NeVal,
  Not,          ///< B=dst, C=src
  PrintLn,      ///< B=dst, C=src
  MarkSharedOp, ///< B=dst, C=src (tshare: markShared + consuming drop)
  AbortOp,      ///< traps
  RefNew,       ///< B=dst, C=src
  RefGet,       ///< B=dst, C=src
  RefSet,       ///< B=dst, C=ref reg, D=value reg

  TrapOp,       ///< E=message index (compile-time-known runtime error)

  //===--- Superinstructions (emitted only by bytecode/Peephole.h) --------===//
  // Each fused opcode is semantically the exact concatenation of its
  // component handlers: same heap calls, same counter increments, same
  // telemetry stamps, same trap points. The compiler never emits these;
  // the peephole pass rewrites hot adjacent pairs/triples post-compile.
  DupMove,       ///< D=dup slot, B=move dst, C=move src
  Dup2,          ///< C=slot1, D=slot2
  Drop2,         ///< C=slot1, D=slot2
  Dup3,          ///< C=slot1, D=slot2, E=slot3
  Drop3,         ///< C=slot1, D=slot2, E=slot3
  DupCallStatic, ///< A=nargs, B=dst, C=window, D=dup slot, E=FuncId
  DupCall,       ///< A=nargs, B=dst, C=window (callee; args at window+1),
                 ///< D=dup slot
  IsUniqueReuse, ///< B=token dst, C=slot, E=else target (unique path
                 ///< materializes the reuse token and falls through)
  SetFieldToken, ///< A=field index, B=dst, C=token slot, D=value reg,
                 ///< E=ctor tag
  Move2,         ///< B=dst1, C=src1, D=dst2, E=src2 (sequential semantics)
  LoadConstMove, ///< D=const dst, E=constant-pool index, B=move dst,
                 ///< C=move src (const first, then the move)
  RetConst,      ///< E=constant-pool index
  LtBr,          ///< C=lhs, D=rhs, E=target (branches when the compare
  LeBr,          ///< is false, like JumpIfFalse; the boolean register
  GtBr,          ///< write of the component compare is elided — the
  GeBr,          ///< compiler only ever materializes it into a dead temp)
  EqBr,
  NeBr,
  CmpConstBr,    ///< A=CmpBrKind, C=lhs, D=constant-pool index, E=target
  CmpJmp,        ///< A=CmpBrKind, C=lhs, D=rhs, B=pc when true, E=pc when
                 ///< false. Jump-threads `cmp; Jump L` when L is the
                 ///< JumpIfFalse consuming the compare's dead temp: the
                 ///< loop-rotation shape every while-style recursion
                 ///< compiles into. Skips the target test entirely.
  MoveArith,     ///< A=0 add/1 sub/2 mul, B=dst, C=lhs, D=rhs,
                 ///< E=(move dst<<16)|move src — move first, then arith
  ArithMove,     ///< same fields as MoveArith; arith first, then move
  ArithConst,    ///< A=0 x+K/1 x-K/2 K-x/3 x*K, B=dst, C=x,
                 ///< D=constant-pool index of K
  Move3,         ///< B=dst1, C=src1, D=dst2, E=(dst3<<16)|src2, A=src3
                 ///< (sequential; src3 must fit in 8 bits)
  MoveTailCallStatic, ///< A=nargs, C=window, E=FuncId, B=move dst,
                 ///< D=move src (move first, then the tail call)
  IsUniqueBrDup2,///< C=slot, E=else target, B=dup1, D=dup2 — the dups
                 ///< run only on the unique fall-through path
  DecLoadConst,  ///< C=decref slot, B=dst, E=constant-pool index
  JfMove,        ///< B=cond, E=target, C=move dst, D=move src (the move
                 ///< runs only on the true fall-through path)
  JfDrop,        ///< B=cond, E=target, C=drop slot (drop only if true)
  DropLoadConst, ///< C=drop slot, B=dst, E=constant-pool index
  DropRetConst,  ///< C=drop slot, E=constant-pool index
  DupDecLoadConst,  ///< C=dup slot, D=decref slot, B=dst,
                    ///< E=constant-pool index — the shared-cell match
                    ///< arm epilogue (dup the field, decref the cell,
                    ///< load the null token)
  Dup2DecLoadConst, ///< C=dup1, D=dup2, B=decref slot, A=dst (must fit
                    ///< 8 bits), E=constant-pool index
  Dup2Move2,        ///< B=dst1, C=dup1 (also src1), D=dst2,
                    ///< E=dup2 (also src2) — two dup-then-copy pairs
  MoveDupMove,      ///< B=dst1, C=src1, D=dup slot (also src2), E=dst2
  MoveArithConst,   ///< A=0 x+K/1 x-K/2 K-x/3 x*K, B=dst, C=x,
                    ///< D=constant-pool index of K,
                    ///< E=(move dst<<16)|move src — move first, then arith
  ArithConstMove,   ///< same fields as MoveArithConst; arith first
  MoveCmpConstBr,   ///< A=CmpBrKind, B=move src, C=move dst (also lhs),
                    ///< D=constant-pool index, E=target when false
  ConRet,           ///< A=arity, B=dst, C=window, D=ctor tag — Con, then
                    ///< return the fresh cell
  DropMove,         ///< C=drop slot, B=move dst, D=move src
  ArithConstRet,    ///< A=kind, B=dst, C=x, D=constant-pool index — the
                    ///< ArithConst whose result is immediately returned
  IsUniqueReuseJmp, ///< B=token dst, C=slot, D=pc when unique, E=else
                    ///< target — IsUniqueReuse whose unique path jumps
};

/// The compare kind carried in CmpConstBr's A field; numbering matches
/// the LtBr..NeBr opcode order.
enum class CmpBrKind : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

constexpr size_t NumOpcodes = static_cast<size_t>(Op::IsUniqueReuseJmp) + 1;

/// One fixed-width instruction; see the Op comments for field use.
struct Instr {
  Op O;
  uint8_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint16_t D = 0;
  uint32_t E = 0;
};

/// One arm of a compiled match. Arms keep their source order — the VM
/// scans them exactly like the CEK machine does, including recording a
/// default arm and *continuing* the scan (a later ill-typed arm still
/// traps even when a default exists). MatchTable::TagOnly is the one
/// shortcut: it skips the scan where no arm could trap.
struct MatchArmCode {
  /// The Tag of every non-Ctor arm: above any constructor tag, so a
  /// tag compare alone never selects it.
  static constexpr uint32_t NoTag = UINT32_MAX;

  ArmKind Kind = ArmKind::Default;
  uint32_t Tag = NoTag;    ///< Ctor arms: the constructor tag
  int64_t Lit = 0;         ///< IntLit/BoolLit arms
  uint32_t BinderBase = 0; ///< into CompiledProgram::BinderSlots
  uint32_t NumBinders = 0;
  uint32_t Target = 0;     ///< pc of the arm body
};

struct MatchTable {
  static constexpr uint32_t NoArm = UINT32_MAX;

  std::vector<MatchArmCode> Arms;
  /// Every arm is a Ctor or Default arm. On a constructor scrutinee (a
  /// constructor cell or a nullary tag) no such arm can trap, so the
  /// scan reduces to its outcome: the first arm whose Tag equals the
  /// scrutinee's, else the last Default arm (DefaultArm), else the
  /// non-exhaustive trap.
  bool TagOnly = false;
  uint32_t DefaultArm = NoArm; ///< index of the last Default arm
};

/// The compiled body of one function or one lambda.
struct Chunk {
  std::vector<Instr> Code;
  /// Telemetry sites, parallel to Code: the IR node an instruction's
  /// heap events attribute to (null when the instruction reports none).
  /// Only consulted when a StatsSink is installed.
  std::vector<const Expr *> Sites;
  /// Secondary/tertiary telemetry sites for fused instructions whose
  /// components each stamp a site (e.g. Dup2/Drop2). Empty on chunks the
  /// peephole pass has not rewritten; parallel to Code otherwise.
  std::vector<const Expr *> Sites2;
  std::vector<const Expr *> Sites3;
  uint32_t NumRegs = 0;   ///< frame size: named slots + temporaries
  uint32_t NumParams = 0; ///< parameters occupy registers 0..NumParams-1
  /// First expression-temporary register: the layout's named slots occupy
  /// 0..FirstTemp-1. Temporaries above this line are dead outside the
  /// single expression that allocates them (every read is dominated by a
  /// write within that expression), which is what licenses the peephole
  /// pass to elide writes into them when fusing.
  uint32_t FirstTemp = 0;

  //===--- Lambda chunks only ---------------------------------------------===//
  const LamExpr *Lam = nullptr;    ///< the IR node (telemetry site identity)
  std::vector<uint16_t> CaptureSrc;///< capture slots in the enclosing frame
  std::vector<uint16_t> CaptureDst;///< capture slots in this chunk's frame

  //===--- Function chunks only -------------------------------------------===//
  const FunctionDecl *Fn = nullptr; ///< for arity-mismatch trap messages
};

/// A whole compiled program: per-function and per-lambda chunks over
/// shared constant/match/message pools. Read-only after compilation, so
/// one CompiledProgram can back any number of concurrent VMs (the
/// parallel engine compiles once and shares it across workers).
struct CompiledProgram {
  const Program *Prog = nullptr;
  std::vector<Chunk> Funcs; ///< indexed by FuncId
  std::vector<Chunk> Lams;  ///< indexed by LamId
  std::vector<Value> Consts;
  std::vector<MatchTable> Matches;
  std::vector<uint16_t> BinderSlots; ///< flat per-arm binder slot lists
  std::vector<std::string> Messages; ///< TrapOp messages

  //===--- Peephole tier (set by bytecode/Peephole.h) ---------------------===//
  /// True once runPeephole has rewritten Funcs/Lams in place. The
  /// pre-peephole chunks are retained: the RC elision in the rewritten
  /// code assumes every heap cell reachable during the run was built by
  /// this program's own constructor sites, which holds for any run whose
  /// entry arguments are all immediates. VM::run checks that at entry and
  /// falls back to the raw tables otherwise (e.g. a parallel run handed a
  /// thread-shared heap segment).
  bool Peepholed = false;
  std::vector<Chunk> RawFuncs;
  std::vector<Chunk> RawLams;
};

} // namespace perceus

#endif // PERCEUS_BYTECODE_BYTECODE_H

//===- perceus/Perceus.cpp - Precise dup/drop insertion ---------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Perceus.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace perceus;

namespace {

/// True when \p E always evaluates to unit (so a discarding sequence
/// needs no drop of the discarded value).
bool producesUnit(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Lit:
    return cast<LitExpr>(E)->value().Kind == LitKind::Unit;
  case ExprKind::Prim: {
    PrimOp Op = cast<PrimExpr>(E)->op();
    return Op == PrimOp::PrintLn || Op == PrimOp::MarkShared ||
           Op == PrimOp::Abort || Op == PrimOp::RefSet;
  }
  case ExprKind::Seq:
    return producesUnit(cast<SeqExpr>(E)->second());
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Perceus insertion (Figure 8)
//===----------------------------------------------------------------------===//

/// The borrowed environment Delta of the derivation. No rule reads Delta
/// to choose an instruction: it only appears in the invariants of
/// Section 3.4 (fv(e) within Delta,Gamma; Delta and Gamma disjoint). So
/// builds with assertions carry the real set and check the invariants at
/// every node, and release builds carry this empty stand-in and skip the
/// set algebra.
#ifndef NDEBUG
using BorrowedEnv = VarSet;
#else
struct BorrowedEnv {
  template <typename T> BorrowedEnv unite(const T &) const { return {}; }
  template <typename T> BorrowedEnv minus(const T &) const { return {}; }
  void insert(Symbol) {}
  void insertAll(VarSetRef) {}
};
#endif

class PerceusInserter {
public:
  PerceusInserter(Program &P, const BorrowSignatures *Borrow)
      : P(P), B(P), Borrow(Borrow) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    assert(Fn.Body && "function has no body");
    FV.clear(); // one table per function; its memory carries over
    // Function entry: Gamma = owned params that occur free in the body;
    // unused owned parameters are dropped immediately (the function-level
    // analogue of rule slam-drop). Borrowed parameters (Section 6
    // extension) live in Delta: the caller retains ownership, so they
    // are never consumed nor dropped here.
    VarSetRef BodyFree = FV.freeVars(Fn.Body);
    VarSet Gamma;
    BorrowedEnv Delta;
    for (size_t I = 0; I != Fn.Params.size(); ++I) {
      Symbol Pm = Fn.Params[I];
      if (isBorrowedParam(F, I))
        Delta.insert(Pm);
      else if (BodyFree.contains(Pm))
        Gamma.insert(Pm);
    }
    const Expr *Body = transform(Fn.Body, Delta, Gamma);
    for (size_t I = Fn.Params.size(); I-- > 0;)
      if (!BodyFree.contains(Fn.Params[I]) && !isBorrowedParam(F, I))
        Body = B.drop(Fn.Params[I], Body);
    P.setBody(F, Body);
  }

  bool isBorrowedParam(FuncId F, size_t I) const {
    return Borrow && I < (*Borrow)[F].size() && (*Borrow)[F][I];
  }

private:
  /// Wraps `drop z; ...` around \p Body for each z of \p Drops, so the
  /// drops run in ascending id order.
  const Expr *dropAll(VarSetRef Drops, const Expr *Body, SourceLoc L) {
    for (const Symbol *It = Drops.end(); It != Drops.begin();)
      Body = B.drop(*--It, Body, L);
    return Body;
  }

  /// The syntax-directed derivation `Delta | Gamma |-s e ~> e'`.
  const Expr *transform(const Expr *E, const BorrowedEnv &Delta,
                        const VarSet &Gamma) {
#ifndef NDEBUG
    VarSetRef Free = FV.freeVars(E);
    assert(Gamma.minus(Free).empty() && "Gamma must be within fv(e)");
    assert(VarSet(Free).minus(Delta.unite(Gamma)).empty() &&
           "fv(e) must be within Delta,Gamma");
    assert(Delta.intersect(Gamma).empty() && "Delta and Gamma overlap");
#endif
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      assert(Gamma.empty() && "leaf with owned variables");
      return E;

    case ExprKind::Var: {
      Symbol X = cast<VarExpr>(E)->name();
      if (Gamma.contains(X)) { // [svar]: consume the owned reference
        assert(Gamma.size() == 1 && "svar with extra owned variables");
        return E;
      }
      return B.dup(X, E, E->loc()); // [svar-dup]: borrow needs a dup
    }

    case ExprKind::Lam:
      return transformLam(cast<LamExpr>(E), Gamma);

    case ExprKind::App:
      return transformApp(cast<AppExpr>(E), Delta, Gamma);

    case ExprKind::Con: {
      // [scon].
      const auto *C = cast<ConExpr>(E);
      assert(!C->hasReuseToken() && "reuse tokens appear only after reuse "
                                    "analysis");
      return splitAndTransform(
          nullptr, C->args(), Delta, Gamma, nullptr, [&](Components Out) {
            return B.con(C->ctor(), Out, Symbol(), E->loc());
          });
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      return splitAndTransform(
          nullptr, Pr->args(), Delta, Gamma, nullptr,
          [&](Components Out) { return B.prim(Pr->op(), Out, E->loc()); });
    }

    case ExprKind::Let: {
      // [sbind] / [sbind-drop].
      const auto *L = cast<LetExpr>(E);
      VarSetRef BodyFree = FV.freeVars(L->body());
      bool Used = BodyFree.contains(L->name());
      // Gamma2 = Gamma meet (fv(body) - x); x is bound here, so it is
      // not in Gamma.
      VarSet Gamma2 = Gamma.intersect(BodyFree);
      Gamma2.erase(L->name());
      const Expr *Bound =
          transform(L->bound(), Delta.unite(Gamma2), Gamma.minus(Gamma2));
      if (Used)
        Gamma2.insert(L->name());
      const Expr *Body = transform(L->body(), Delta, Gamma2);
      if (!Used)
        Body = B.drop(L->name(), Body, E->loc());
      return B.let(L->name(), Bound, Body, E->loc());
    }

    case ExprKind::Seq: {
      // `a; b` is `val tmp = a; b` with tmp unused (sbind-drop), so the
      // discarded value is dropped and cannot leak. When `a` is provably
      // unit-valued the binding is elided.
      const auto *S = cast<SeqExpr>(E);
      VarSet Gamma2 = Gamma.intersect(FV.freeVars(S->second()));
      const Expr *First =
          transform(S->first(), Delta.unite(Gamma2), Gamma.minus(Gamma2));
      const Expr *Second = transform(S->second(), Delta, Gamma2);
      if (producesUnit(S->first()))
        return B.seq(First, Second, E->loc());
      Symbol Tmp = P.symbols().fresh("seq");
      return B.let(Tmp, First, B.drop(Tmp, Second, E->loc()), E->loc());
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      VarSet GammaBr = Gamma.intersect(FV.freeVars(I->thenExpr()));
      GammaBr.insertAll(Gamma.intersect(FV.freeVars(I->elseExpr())));
      const Expr *Cond =
          transform(I->cond(), Delta.unite(GammaBr), Gamma.minus(GammaBr));
      const Expr *Then = transformBranch(I->thenExpr(), Delta, GammaBr);
      const Expr *Else = transformBranch(I->elseExpr(), Delta, GammaBr);
      return B.iff(Cond, Then, Else, E->loc());
    }

    case ExprKind::Match:
      return transformMatch(cast<MatchExpr>(E), Delta, Gamma);

    default:
      assert(false && "RC instruction in pre-insertion IR");
      return E;
    }
  }

  /// [slam] / [slam-drop].
  const Expr *transformLam(const LamExpr *L, const VarSet &Gamma) {
    VarSet Ys;
    for (Symbol C : L->captures())
      Ys.insert(C);
    VarSet Delta1 = Ys.minus(Gamma); // borrowed captures need a dup
    assert(Gamma.minus(Ys).empty() && "owned vars not captured by lambda");

    VarSetRef BodyFree = FV.freeVars(L->body());
    VarSet BodyOwned = Ys; // every capture is free in the body
    for (Symbol Pm : L->params())
      if (BodyFree.contains(Pm))
        BodyOwned.insert(Pm);
    const Expr *Body = transform(L->body(), BorrowedEnv(), BodyOwned);
    for (auto It = L->params().rbegin(); It != L->params().rend(); ++It)
      if (!BodyFree.contains(*It))
        Body = B.drop(*It, Body, L->loc());

    const Expr *Result =
        B.lamWithId(L->lamId(), L->params(), L->captures(), Body, L->loc());
    // Wrap dups so they print in ascending order.
    for (const Symbol *It = Delta1.end(); It != Delta1.begin();)
      Result = B.dup(*--It, Result, L->loc());
    return Result;
  }

  /// [sapp] generalized to n-ary: ownership is claimed right-to-left so
  /// dups happen as late as possible; earlier components borrow the
  /// owned sets of later ones.
  const Expr *transformApp(const AppExpr *A, const BorrowedEnv &Delta,
                           const VarSet &Gamma) {
    const auto *G = dyn_cast<GlobalExpr>(A->fn());
    const std::vector<bool> *Sig =
        Borrow && G ? &(*Borrow)[G->func()] : nullptr;
    SourceLoc Loc = A->loc();

    // Section 6 extension: direct calls at borrowed positions.
    bool AnyBorrowed = false;
    bool NeedHoist = false;
    for (size_t I = 0; Sig && I != A->args().size() && I < Sig->size(); ++I) {
      if (!(*Sig)[I])
        continue;
      AnyBorrowed = true;
      if (!isa<VarExpr>(A->args()[I]))
        NeedHoist = true;
    }
    if (NeedHoist) {
      // Normalize complex borrowed arguments to let-bound variables
      // (pre-insertion IR), then transform the whole let chain.
      std::vector<const Expr *> Args(A->args().begin(), A->args().end());
      std::vector<std::pair<Symbol, const Expr *>> Hoisted;
      for (size_t I = 0; I != Args.size() && I < Sig->size(); ++I) {
        if (!(*Sig)[I] || isa<VarExpr>(Args[I]))
          continue;
        Symbol Tmp = P.symbols().fresh("barg");
        Hoisted.push_back({Tmp, Args[I]});
        Args[I] = B.var(Tmp, Loc);
      }
      const Expr *NewApp = B.app(
          A->fn(), std::span<const Expr *const>(Args.data(), Args.size()),
          Loc);
      for (size_t I = Hoisted.size(); I-- > 0;)
        NewApp = B.let(Hoisted[I].first, Hoisted[I].second, NewApp, Loc);
      // The rewritten nodes are fresh: the table computes their sets on
      // first query.
      return transform(NewApp, Delta, Gamma);
    }
    auto MakeCall = [&](Components Out) {
      return B.app(Out[0], Out.subspan(1), Loc);
    };
    if (!AnyBorrowed)
      return splitAndTransform(A->fn(), A->args(), Delta, Gamma, nullptr,
                               MakeCall);

    // Borrowed variable arguments: the caller keeps ownership. If this
    // was the variable's last owned use, it is dropped right after the
    // call returns (losing strict garbage-freedom for the call's
    // duration — the paper's stated trade-off).
    VarSet BorrowArgs;
    for (size_t I = 0; I != A->args().size() && I < Sig->size(); ++I)
      if ((*Sig)[I])
        BorrowArgs.insert(cast<VarExpr>(A->args()[I])->name());
    VarSet PostDrop = Gamma.intersect(BorrowArgs);
    const Expr *Call =
        splitAndTransform(A->fn(), A->args(), Delta.unite(PostDrop),
                          Gamma.minus(PostDrop), Sig, MakeCall);
    if (PostDrop.empty())
      return Call;
    Symbol R = P.symbols().fresh("bres");
    return B.let(R, Call, dropAll(PostDrop, B.var(R, Loc), Loc), Loc);
  }

  /// [smatch]: binders that the arm uses are dup'ed at arm entry, the
  /// scrutinee is dropped if the arm no longer needs it, and owned
  /// variables dead in this arm are dropped (Gamma'_i).
  const Expr *transformMatch(const MatchExpr *M, const BorrowedEnv &Delta,
                             const VarSet &Gamma) {
    Symbol X = M->scrutinee();
    bool OwnedScrutinee = Gamma.contains(X);
    size_t Base = Arms.size();
    for (const MatchArm &Arm : M->arms()) {
      VarSetRef BodyFree = FV.freeVars(Arm.Body);
      VarSet ArmOwned = Gamma;
      for (Symbol Bv : Arm.Binders)
        ArmOwned.insert(Bv);
      VarSet GammaI = ArmOwned.intersect(BodyFree);
      VarSet DropSet = ArmOwned;
      DropSet.eraseAll(GammaI);

      // Section 6 extension: if the scrutinee outlives this arm (it is
      // borrowed, or still owned by the body), binders whose uses are
      // all borrow-compatible can themselves stay borrowed — no dup at
      // arm entry at all (e.g. the fields of a borrowed fold).
      BorrowedEnv ArmDelta = Delta;
      // Only when the scrutinee is itself borrowed (alive for the whole
      // enclosing scope) is a borrowed binder unconditionally safe; an
      // owned-but-live scrutinee could be consumed between two binder
      // uses.
      if (Borrow && !OwnedScrutinee) {
        for (Symbol Bv : Arm.Binders) {
          if (GammaI.contains(Bv) &&
              onlyBorrowUses(P, Arm.Body, Bv, *Borrow, FV)) {
            GammaI.erase(Bv);
            ArmDelta.insert(Bv);
          }
        }
      }

      const Expr *Body = transform(Arm.Body, ArmDelta, GammaI);

      // Emit: dup used binders; drop scrutinee; drop dead owned vars.
      // (Built in reverse since each op wraps the rest.)
      auto isBinder = [&Arm](Symbol Z) {
        return std::find(Arm.Binders.begin(), Arm.Binders.end(), Z) !=
               Arm.Binders.end();
      };
      for (const Symbol *It = DropSet.end(); It != DropSet.begin();) {
        Symbol Z = *--It;
        if (Z != X && !isBinder(Z))
          Body = B.drop(Z, Body, M->loc());
      }
      if (OwnedScrutinee && DropSet.contains(X))
        Body = B.drop(X, Body, M->loc());
      for (size_t BI = Arm.Binders.size(); BI-- > 0;)
        if (GammaI.contains(Arm.Binders[BI]))
          Body = B.dup(Arm.Binders[BI], Body, M->loc());

      MatchArm NewArm = Arm;
      NewArm.Body = Body;
      Arms.push_back(NewArm);
    }
    const Expr *Out = B.match(
        X, std::span<const MatchArm>(Arms.data() + Base, Arms.size() - Base),
        M->loc());
    Arms.resize(Base);
    return Out;
  }

  /// Handles the shared Gamma'_i-drop logic for if-branches.
  const Expr *transformBranch(const Expr *Branch, const BorrowedEnv &Delta,
                              const VarSet &GammaBr) {
    VarSet GammaI = GammaBr.intersect(FV.freeVars(Branch));
    const Expr *Out = transform(Branch, Delta, GammaI);
    VarSet DropSet = GammaBr;
    DropSet.eraseAll(GammaI);
    return dropAll(DropSet, Out, Branch->loc());
  }

  using Components = std::span<const Expr *const>;

  /// Splits Gamma over the components \p Fn (if any) and \p Args
  /// (evaluated left-to-right; ownership claimed right-to-left),
  /// transforms each one, and returns \p Make of the results. Arguments
  /// at positions \p Sig flags are whole-variable borrowed arguments:
  /// they are emitted verbatim (no dup, no ownership claim).
  template <typename MakeNode>
  const Expr *splitAndTransform(const Expr *Fn, Components Args,
                                const BorrowedEnv &Delta, const VarSet &Gamma,
                                const std::vector<bool> *Sig,
                                MakeNode &&Make) {
    // The results go on the shared Scratch stack; nested calls push and
    // pop above Base, so index (not point) into it.
    size_t Base = Scratch.size();
    size_t First = Fn ? 1 : 0;
    size_t N = First + Args.size();
    Scratch.resize(Base + N);
    VarSet Rem = Gamma;
    BorrowedEnv Later; // owned sets of later components, borrowed by
                       // earlier ones
    for (size_t I = N; I-- > 0;) {
      const Expr *C = I < First ? Fn : Args[I - First];
      size_t ArgI = I - First;
      if (I >= First && Sig && ArgI < Sig->size() && (*Sig)[ArgI]) {
        Scratch[Base + I] = C;
        continue;
      }
      VarSet GammaI = Rem.intersect(FV.freeVars(C));
      Rem.eraseAll(GammaI);
      const Expr *Out = transform(C, Delta.unite(Later).minus(GammaI), GammaI);
      Scratch[Base + I] = Out;
      Later.insertAll(GammaI);
    }
    assert(Rem.empty() && "owned variable free in no component");
    const Expr *Node = Make(Components(Scratch.data() + Base, N));
    Scratch.resize(Base);
    return Node;
  }

  Program &P;
  IRBuilder B;
  FreeVarAnalysis FV;
  const BorrowSignatures *Borrow;
  /// Stacks of finished components and match arms, shared by every
  /// nesting level (each level pops what it pushed).
  std::vector<const Expr *> Scratch;
  std::vector<MatchArm> Arms;
};

//===----------------------------------------------------------------------===//
// Scoped-lifetime RC insertion (the Section 2.2 baseline)
//===----------------------------------------------------------------------===//

class ScopedInserter {
public:
  ScopedInserter(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    assert(Fn.Body && "function has no body");
    const Expr *Body = transform(Fn.Body);
    P.setBody(F, wrapScopeEnd(Body, Fn.Params));
  }

private:
  /// `val r = body; drop x1; ...; drop xn; r` — release a scope's
  /// bindings only after its result is computed.
  const Expr *wrapScopeEnd(const Expr *Body, std::span<const Symbol> Owned) {
    if (Owned.empty())
      return Body;
    Symbol R = P.symbols().fresh("ret");
    const Expr *Out = B.var(R);
    for (size_t I = Owned.size(); I-- > 0;)
      Out = B.drop(Owned[I], Out);
    return B.let(R, Body, Out);
  }

  const Expr *transform(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      return E;

    case ExprKind::Var:
      // Every use copies its reference, shared_ptr style.
      return B.dup(cast<VarExpr>(E)->name(), E, E->loc());

    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      const Expr *Body = transform(L->body());
      std::vector<Symbol> Owned(L->params().begin(), L->params().end());
      Owned.insert(Owned.end(), L->captures().begin(), L->captures().end());
      Body = wrapScopeEnd(Body,
                          std::span<const Symbol>(Owned.data(), Owned.size()));
      const Expr *Result =
          B.lamWithId(L->lamId(), L->params(), L->captures(), Body, E->loc());
      // Closure construction copies each captured reference.
      for (size_t I = L->captures().size(); I-- > 0;)
        Result = B.dup(L->captures()[I], Result, E->loc());
      return Result;
    }

    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : A->args())
        Args.push_back(transform(Arg));
      return B.app(transform(A->fn()),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   E->loc());
    }

    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : C->args())
        Args.push_back(transform(Arg));
      return B.con(C->ctor(),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   Symbol(), E->loc());
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : Pr->args())
        Args.push_back(transform(Arg));
      return B.prim(Pr->op(),
                    std::span<const Expr *const>(Args.data(), Args.size()),
                    E->loc());
    }

    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      Symbol X = L->name();
      const Expr *Body = transform(L->body());
      Body = wrapScopeEnd(Body, std::span<const Symbol>(&X, 1));
      return B.let(X, transform(L->bound()), Body, E->loc());
    }

    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      const Expr *First = transform(S->first());
      const Expr *Second = transform(S->second());
      if (producesUnit(S->first()))
        return B.seq(First, Second, E->loc());
      Symbol Tmp = P.symbols().fresh("seq");
      const Expr *Body = wrapScopeEnd(Second, std::span<const Symbol>(&Tmp, 1));
      return B.let(Tmp, First, Body, E->loc());
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return B.iff(transform(I->cond()), transform(I->thenExpr()),
                   transform(I->elseExpr()), E->loc());
    }

    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        const Expr *Body = transform(Arm.Body);
        Body = wrapScopeEnd(Body, Arm.Binders);
        // Binding a field copies its reference.
        for (size_t I = Arm.Binders.size(); I-- > 0;)
          Body = B.dup(Arm.Binders[I], Body, E->loc());
        MatchArm NewArm = Arm;
        NewArm.Body = Body;
        Arms.push_back(NewArm);
      }
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    default:
      assert(false && "RC instruction in pre-insertion IR");
      return E;
    }
  }

  Program &P;
  IRBuilder B;
};

} // namespace

void perceus::insertPerceus(Program &P, const BorrowSignatures *Borrow) {
  PerceusInserter I(P, Borrow);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    I.runOnFunction(F);
}

void perceus::insertPerceus(Program &P, FuncId F,
                            const BorrowSignatures *Borrow) {
  PerceusInserter I(P, Borrow);
  I.runOnFunction(F);
}

void perceus::insertScopedRc(Program &P) {
  ScopedInserter I(P);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    I.runOnFunction(F);
}

void perceus::insertScopedRc(Program &P, FuncId F) {
  ScopedInserter I(P);
  I.runOnFunction(F);
}

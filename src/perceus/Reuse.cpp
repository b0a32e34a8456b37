//===- perceus/Reuse.cpp - Reuse analysis and specialization ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Reuse.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "support/Casting.h"

#include <unordered_map>

using namespace perceus;

namespace {

//===----------------------------------------------------------------------===//
// Reuse analysis
//===----------------------------------------------------------------------===//

class ReuseAnalyzer {
public:
  ReuseAnalyzer(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    P.setBody(F, rewrite(Fn.Body));
  }

private:
  const Expr *rewrite(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      bool Changed = false;
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        MatchArm NewArm = Arm;
        if (Arm.Kind == ArmKind::Ctor) {
          // Inside this arm the scrutinee has a known shape.
          auto Saved = Shape.find(M->scrutinee());
          CtorId Old = Saved == Shape.end() ? InvalidId : Saved->second;
          Shape[M->scrutinee()] = Arm.Ctor;
          NewArm.Body = rewrite(Arm.Body);
          if (Old == InvalidId)
            Shape.erase(M->scrutinee());
          else
            Shape[M->scrutinee()] = Old;
        } else {
          NewArm.Body = rewrite(Arm.Body);
        }
        Changed |= NewArm.Body != Arm.Body;
        Arms.push_back(NewArm);
      }
      if (!Changed)
        return E;
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    case ExprKind::Drop: {
      const auto *D = cast<DropExpr>(E);
      // Inner drops pair first (innermost pairing, as in Lean/Koka),
      // then this drop tries the remaining allocations.
      const Expr *Rest = rewrite(D->rest());
      auto It = Shape.find(D->var());
      if (It != Shape.end() && P.ctor(It->second).Arity > 0) {
        uint32_t Arity = P.ctor(It->second).Arity;
        Symbol Ru = P.symbols().fresh("ru");
        // Prefer pairing with the same constructor (better for reuse
        // specialization), then any same-size allocation.
        auto [WithToken, Used] =
            attach(Rest, Ru, Arity, It->second, /*SameCtorOnly=*/true);
        if (!Used)
          std::tie(WithToken, Used) =
              attach(Rest, Ru, Arity, It->second, /*SameCtorOnly=*/false);
        if (Used)
          return B.dropReuse(D->var(), Ru, WithToken, E->loc());
      }
      return Rest == D->rest() ? E : B.drop(D->var(), Rest, E->loc());
    }

    case ExprKind::Lam:
      // Reuse tokens cannot cross a closure boundary (the body runs in a
      // later activation), but the body gets its own analysis.
      return mapChildren(B, E,
                         [&](const Expr *C) { return rewrite(C); });

    default:
      return mapChildren(B, E,
                         [&](const Expr *C) { return rewrite(C); });
    }
  }

  /// Tries to attach reuse token \p Ru to a constructor allocation of
  /// arity \p Arity along every path of \p E. Branches without a use get
  /// an explicit `free ru` so the token cannot leak. Returns the new
  /// expression and whether the token was consumed (on all paths).
  std::pair<const Expr *, bool> attach(const Expr *E, Symbol Ru,
                                       uint32_t Arity, CtorId Origin,
                                       bool SameCtorOnly) {
    switch (E->kind()) {
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      // The cell itself is allocated after its arguments, but pairing
      // with the outermost eligible allocation keeps same-constructor
      // pairing stable under nesting (bal-left), so try self first.
      if (!C->hasReuseToken() && P.ctor(C->ctor()).Arity == Arity &&
          (!SameCtorOnly || C->ctor() == Origin)) {
        return {B.con(C->ctor(), C->args(), Ru, E->loc()), true};
      }
      for (size_t I = 0; I != C->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(C->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(C->args().begin(), C->args().end());
        Args[I] = NewArg;
        return {B.con(C->ctor(),
                      std::span<const Expr *const>(Args.data(), Args.size()),
                      C->reuseToken(), E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      for (size_t I = 0; I != A->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(A->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(A->args().begin(), A->args().end());
        Args[I] = NewArg;
        return {B.app(A->fn(),
                      std::span<const Expr *const>(Args.data(), Args.size()),
                      E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      for (size_t I = 0; I != Pr->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(Pr->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(Pr->args().begin(), Pr->args().end());
        Args[I] = NewArg;
        return {B.prim(Pr->op(),
                       std::span<const Expr *const>(Args.data(), Args.size()),
                       E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      auto [Bound, UsedB] = attach(L->bound(), Ru, Arity, Origin,
                                   SameCtorOnly);
      if (UsedB)
        return {B.let(L->name(), Bound, L->body(), E->loc()), true};
      auto [Body, UsedBody] =
          attach(L->body(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedBody)
        return {B.let(L->name(), L->bound(), Body, E->loc()), true};
      return {E, false};
    }

    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      auto [First, UsedF] =
          attach(S->first(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedF)
        return {B.seq(First, S->second(), E->loc()), true};
      auto [Second, UsedS] =
          attach(S->second(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedS)
        return {B.seq(S->first(), Second, E->loc()), true};
      return {E, false};
    }

    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      const auto *R = cast<RcStmtExpr>(E);
      auto [Rest, Used] = attach(R->rest(), Ru, Arity, Origin, SameCtorOnly);
      if (!Used)
        return {E, false};
      switch (E->kind()) {
      case ExprKind::Dup:
        return {B.dup(R->var(), Rest, E->loc()), true};
      case ExprKind::Drop:
        return {B.drop(R->var(), Rest, E->loc()), true};
      case ExprKind::Free:
        return {B.freeCell(R->var(), Rest, E->loc()), true};
      default:
        return {B.decref(R->var(), Rest, E->loc()), true};
      }
    }

    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      auto [Rest, Used] = attach(D->rest(), Ru, Arity, Origin, SameCtorOnly);
      if (!Used)
        return {E, false};
      return {B.dropReuse(D->var(), D->token(), Rest, E->loc()), true};
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      auto [Cond, UsedC] = attach(I->cond(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedC)
        return {B.iff(Cond, I->thenExpr(), I->elseExpr(), E->loc()), true};
      auto [Then, UsedT] =
          attach(I->thenExpr(), Ru, Arity, Origin, SameCtorOnly);
      auto [Else, UsedE] =
          attach(I->elseExpr(), Ru, Arity, Origin, SameCtorOnly);
      if (!UsedT && !UsedE)
        return {E, false};
      if (!UsedT)
        Then = B.freeCell(Ru, Then, E->loc());
      if (!UsedE)
        Else = B.freeCell(Ru, Else, E->loc());
      return {B.iff(I->cond(), Then, Else, E->loc()), true};
    }

    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::vector<const Expr *> Bodies;
      bool Any = false;
      std::vector<bool> UsedArm;
      for (const MatchArm &Arm : M->arms()) {
        auto [Body, Used] = attach(Arm.Body, Ru, Arity, Origin, SameCtorOnly);
        Bodies.push_back(Body);
        UsedArm.push_back(Used);
        Any |= Used;
      }
      if (!Any)
        return {E, false};
      std::vector<MatchArm> Arms;
      for (size_t I = 0; I != M->arms().size(); ++I) {
        MatchArm NewArm = M->arms()[I];
        NewArm.Body =
            UsedArm[I] ? Bodies[I] : B.freeCell(Ru, Bodies[I], E->loc());
        Arms.push_back(NewArm);
      }
      return {B.match(M->scrutinee(),
                      std::span<const MatchArm>(Arms.data(), Arms.size()),
                      E->loc()),
              true};
    }

    default:
      // Leaves, lambdas (token must not escape into a closure), and
      // token forms: no attachment here.
      return {E, false};
    }
  }

  Program &P;
  IRBuilder B;
  std::unordered_map<Symbol, CtorId> Shape;
};

//===----------------------------------------------------------------------===//
// Reuse specialization
//===----------------------------------------------------------------------===//

class ReuseSpecializer {
public:
  ReuseSpecializer(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    Tokens.clear();
    FV.clear();
    P.setBody(F, rewrite(Fn.Body));
  }

private:
  struct TokenOrigin {
    CtorId Ctor = InvalidId;
    std::span<const Symbol> Binders;
  };

  const Expr *rewrite(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      bool Changed = false;
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        MatchArm NewArm = Arm;
        if (Arm.Kind == ArmKind::Ctor) {
          auto Saved = Shape.find(M->scrutinee());
          bool Had = Saved != Shape.end();
          TokenOrigin Old = Had ? Saved->second : TokenOrigin();
          Shape[M->scrutinee()] = {Arm.Ctor, Arm.Binders};
          NewArm.Body = rewrite(Arm.Body);
          if (Had)
            Shape[M->scrutinee()] = Old;
          else
            Shape.erase(M->scrutinee());
        } else {
          NewArm.Body = rewrite(Arm.Body);
        }
        Changed |= NewArm.Body != Arm.Body;
        Arms.push_back(NewArm);
      }
      if (!Changed)
        return E;
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      auto It = Shape.find(D->var());
      if (It != Shape.end())
        Tokens[D->token()] = It->second;
      const Expr *Rest = rewrite(D->rest());
      return Rest == D->rest() ? E
                               : B.dropReuse(D->var(), D->token(), Rest,
                                             E->loc());
    }

    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      // First rewrite the arguments themselves.
      const Expr *Rewritten =
          mapChildren(B, E, [&](const Expr *Ch) { return rewrite(Ch); });
      C = cast<ConExpr>(Rewritten);
      if (!C->hasReuseToken())
        return Rewritten;
      auto It = Tokens.find(C->reuseToken());
      if (It == Tokens.end() || It->second.Ctor != C->ctor())
        return Rewritten; // cross-constructor reuse: all fields change
      return specializeCon(C, It->second);
    }

    case ExprKind::Lam: {
      // Outer binders are out of scope inside a lambda body.
      std::unordered_map<Symbol, TokenOrigin> SavedShape;
      std::unordered_map<Symbol, TokenOrigin> SavedTokens;
      SavedShape.swap(Shape);
      SavedTokens.swap(Tokens);
      const Expr *Out =
          mapChildren(B, E, [&](const Expr *C) { return rewrite(C); });
      Shape.swap(SavedShape);
      Tokens.swap(SavedTokens);
      return Out;
    }

    default:
      return mapChildren(B, E, [&](const Expr *C) { return rewrite(C); });
    }
  }

  /// Is \p Arg the unchanged field \p Binder — either the bare variable
  /// (last use) or `dup b; b` (non-last use)?
  static bool isUnchangedField(const Expr *Arg, Symbol Binder, bool &HasDup) {
    if (const auto *V = dyn_cast<VarExpr>(Arg)) {
      HasDup = false;
      return V->name() == Binder;
    }
    if (const auto *D = dyn_cast<DupExpr>(Arg)) {
      if (D->var() != Binder)
        return false;
      if (const auto *V = dyn_cast<VarExpr>(D->rest())) {
        HasDup = true;
        return V->name() == Binder;
      }
    }
    return false;
  }

  const Expr *specializeCon(const ConExpr *C, const TokenOrigin &Origin) {
    auto Args = C->args();
    size_t N = Args.size();
    assert(Origin.Binders.size() == N && "token origin arity mismatch");

    std::vector<bool> Unchanged(N, false);
    std::vector<bool> HasDup(N, false);
    unsigned NumUnchanged = 0;
    for (size_t I = 0; I != N; ++I) {
      bool Dup = false;
      if (!isUnchangedField(Args[I], Origin.Binders[I], Dup))
        continue;
      // A dup'ed unchanged field may not be hoisted past a later argument
      // that consumes the binder; demote it to "changed" in that case.
      if (Dup) {
        bool Escapes = false;
        for (size_t J = I + 1; J != N && !Escapes; ++J)
          Escapes = FV.freeVars(Args[J]).contains(Origin.Binders[I]);
        if (Escapes)
          continue;
      }
      Unchanged[I] = true;
      HasDup[I] = Dup;
      ++NumUnchanged;
    }
    // Specialization only pays off when a field can be kept (2.5).
    if (NumUnchanged == 0)
      return C;

    // Hoist the changed arguments (in evaluation order), then dispatch on
    // the token.
    std::vector<Symbol> Hoisted(N);
    std::vector<const Expr *> FreshArgs(N);
    for (size_t I = 0; I != N; ++I) {
      if (Unchanged[I]) {
        FreshArgs[I] = Args[I]; // evaluated only on the fresh path
        continue;
      }
      Hoisted[I] = P.symbols().fresh("fld");
      FreshArgs[I] = B.var(Hoisted[I], C->loc());
    }

    // Fresh path: allocate normally (token is NULL, nothing to release).
    const Expr *FreshPath =
        B.con(C->ctor(),
              std::span<const Expr *const>(FreshArgs.data(), FreshArgs.size()),
              Symbol(), C->loc());

    // Reuse path: assign only the changed fields; keep the rest.
    std::vector<Symbol> Kept;
    for (size_t I = 0; I != N; ++I)
      if (Unchanged[I])
        Kept.push_back(Origin.Binders[I]);
    const Expr *ReusePath =
        B.tokenValue(C->reuseToken(), C->ctor(),
                     std::span<const Symbol>(Kept.data(), Kept.size()),
                     C->loc());
    for (size_t I = N; I-- > 0;) {
      if (Unchanged[I]) {
        if (HasDup[I])
          ReusePath = B.dup(Origin.Binders[I], ReusePath, C->loc());
        continue;
      }
      ReusePath = B.setField(C->reuseToken(), static_cast<uint32_t>(I),
                             B.var(Hoisted[I], C->loc()), ReusePath,
                             C->loc());
    }

    const Expr *Out =
        B.isNullToken(C->reuseToken(), FreshPath, ReusePath, C->loc());
    for (size_t I = N; I-- > 0;)
      if (!Unchanged[I])
        Out = B.let(Hoisted[I], Args[I], Out, C->loc());
    return Out;
  }

  Program &P;
  IRBuilder B;
  FreeVarAnalysis FV;
  std::unordered_map<Symbol, TokenOrigin> Shape;
  std::unordered_map<Symbol, TokenOrigin> Tokens;
};

} // namespace

void perceus::runReuseAnalysis(Program &P) {
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    runReuseAnalysis(P, F);
}

void perceus::runReuseAnalysis(Program &P, FuncId F) {
  ReuseAnalyzer A(P);
  A.runOnFunction(F);
}

void perceus::runReuseSpecialization(Program &P) {
  ReuseSpecializer S(P); // reuses its free-variable table's memory
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    S.runOnFunction(F);
}

void perceus::runReuseSpecialization(Program &P, FuncId F) {
  ReuseSpecializer S(P);
  S.runOnFunction(F);
}

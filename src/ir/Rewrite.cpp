//===- ir/Rewrite.cpp - Generic child-rewriting helper ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Rewrite.h"

#include "support/Casting.h"

using namespace perceus;

namespace {

bool unchanged(const Expr *Old, const Expr *New) { return Old == New; }
bool unchanged(const MatchArm &Old, const MatchArm &New) {
  return Old.Body == New.Body;
}

/// Applies \p Map to each of \p Kids in order. The results are collected
/// in \p Out only from the first one that differs from its input (the
/// unchanged prefix is copied then), so a node whose children all stay
/// put costs no allocation. Returns whether any child changed. Forced
/// inline: passes recurse through mapChildren, and a frame of its own
/// would cost stack on every nesting level.
template <typename T, typename MapOne>
[[gnu::always_inline]] inline bool mapAll(std::span<const T> Kids,
                                          std::vector<T> &Out, MapOne &&Map) {
  bool Changed = false;
  for (size_t I = 0; I != Kids.size(); ++I) {
    T K = Map(Kids[I]);
    if (!Changed && !unchanged(Kids[I], K)) {
      Changed = true;
      Out.assign(Kids.begin(), Kids.begin() + I);
    }
    if (Changed)
      Out.push_back(K);
  }
  return Changed;
}

} // namespace

const Expr *perceus::mapChildren(
    IRBuilder &B, const Expr *E,
    const std::function<const Expr *(const Expr *)> &Fn) {
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Var:
  case ExprKind::Global:
  case ExprKind::ReuseAddr:
  case ExprKind::NullToken:
  case ExprKind::TokenValue:
    return E;

  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    const Expr *Body = Fn(L->body());
    if (Body == L->body())
      return E;
    return B.lamWithId(L->lamId(), L->params(), L->captures(), Body,
                       E->loc());
  }

  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    const Expr *FnE = Fn(A->fn());
    std::vector<const Expr *> Args;
    if (mapAll(A->args(), Args, Fn))
      return B.app(FnE, std::span<const Expr *const>(Args.data(), Args.size()),
                   E->loc());
    if (FnE == A->fn())
      return E;
    return B.app(FnE, A->args(), E->loc());
  }

  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    const Expr *Bound = Fn(L->bound());
    const Expr *Body = Fn(L->body());
    if (Bound == L->bound() && Body == L->body())
      return E;
    return B.let(L->name(), Bound, Body, E->loc());
  }

  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    const Expr *First = Fn(S->first());
    const Expr *Second = Fn(S->second());
    if (First == S->first() && Second == S->second())
      return E;
    return B.seq(First, Second, E->loc());
  }

  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    const Expr *C = Fn(I->cond());
    const Expr *T = Fn(I->thenExpr());
    const Expr *El = Fn(I->elseExpr());
    if (C == I->cond() && T == I->thenExpr() && El == I->elseExpr())
      return E;
    return B.iff(C, T, El, E->loc());
  }

  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    std::vector<MatchArm> Arms;
    auto MapArm = [&Fn](const MatchArm &Arm) {
      MatchArm NewArm = Arm;
      NewArm.Body = Fn(Arm.Body);
      return NewArm;
    };
    if (!mapAll(M->arms(), Arms, MapArm))
      return E;
    return B.match(M->scrutinee(),
                   std::span<const MatchArm>(Arms.data(), Arms.size()),
                   E->loc());
  }

  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    std::vector<const Expr *> Args;
    if (!mapAll(C->args(), Args, Fn))
      return E;
    return B.con(C->ctor(),
                 std::span<const Expr *const>(Args.data(), Args.size()),
                 C->reuseToken(), E->loc());
  }

  case ExprKind::Prim: {
    const auto *Pr = cast<PrimExpr>(E);
    std::vector<const Expr *> Args;
    if (!mapAll(Pr->args(), Args, Fn))
      return E;
    return B.prim(Pr->op(),
                  std::span<const Expr *const>(Args.data(), Args.size()),
                  E->loc());
  }

  case ExprKind::Dup: {
    const auto *D = cast<DupExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.dup(D->var(), Rest, E->loc());
  }
  case ExprKind::Drop: {
    const auto *D = cast<DropExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.drop(D->var(), Rest, E->loc());
  }
  case ExprKind::Free: {
    const auto *D = cast<FreeExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.freeCell(D->var(), Rest, E->loc());
  }
  case ExprKind::DecRef: {
    const auto *D = cast<DecRefExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.decref(D->var(), Rest, E->loc());
  }

  case ExprKind::IsUnique: {
    const auto *U = cast<IsUniqueExpr>(E);
    const Expr *T = Fn(U->thenExpr());
    const Expr *El = Fn(U->elseExpr());
    if (T == U->thenExpr() && El == U->elseExpr())
      return E;
    return B.isUnique(U->var(), T, El, E->loc());
  }

  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E
                             : B.dropReuse(D->var(), D->token(), Rest,
                                           E->loc());
  }

  case ExprKind::IsNullToken: {
    const auto *N = cast<IsNullTokenExpr>(E);
    const Expr *T = Fn(N->thenExpr());
    const Expr *El = Fn(N->elseExpr());
    if (T == N->thenExpr() && El == N->elseExpr())
      return E;
    return B.isNullToken(N->token(), T, El, E->loc());
  }

  case ExprKind::SetField: {
    const auto *F = cast<SetFieldExpr>(E);
    const Expr *V = Fn(F->value());
    const Expr *Rest = Fn(F->rest());
    if (V == F->value() && Rest == F->rest())
      return E;
    return B.setField(F->token(), F->index(), V, Rest, E->loc());
  }
  }
  return E;
}

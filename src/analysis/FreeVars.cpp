//===- analysis/FreeVars.cpp - Free variable analysis ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/FreeVars.h"

#include "support/Casting.h"

#include <cassert>

using namespace perceus;

namespace {

/// Symbols per pool chunk (larger sets get a chunk of their own size).
constexpr size_t ChunkSymbols = 4096;
constexpr size_t InitialSlots = 64;

/// Calls \p F on every direct subexpression of \p E.
template <typename Fn> void forEachChild(const Expr *E, Fn &&F) {
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Var:
  case ExprKind::Global:
  case ExprKind::ReuseAddr:
  case ExprKind::NullToken:
  case ExprKind::TokenValue:
    return;
  case ExprKind::Lam:
    F(cast<LamExpr>(E)->body());
    return;
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    F(A->fn());
    for (const Expr *Arg : A->args())
      F(Arg);
    return;
  }
  case ExprKind::Let:
    F(cast<LetExpr>(E)->bound());
    F(cast<LetExpr>(E)->body());
    return;
  case ExprKind::Seq:
    F(cast<SeqExpr>(E)->first());
    F(cast<SeqExpr>(E)->second());
    return;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    F(I->cond());
    F(I->thenExpr());
    F(I->elseExpr());
    return;
  }
  case ExprKind::Match:
    for (const MatchArm &Arm : cast<MatchExpr>(E)->arms())
      F(Arm.Body);
    return;
  case ExprKind::Con:
    for (const Expr *Arg : cast<ConExpr>(E)->args())
      F(Arg);
    return;
  case ExprKind::Prim:
    for (const Expr *Arg : cast<PrimExpr>(E)->args())
      F(Arg);
    return;
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef:
    F(cast<RcStmtExpr>(E)->rest());
    return;
  case ExprKind::IsUnique:
    F(cast<IsUniqueExpr>(E)->thenExpr());
    F(cast<IsUniqueExpr>(E)->elseExpr());
    return;
  case ExprKind::DropReuse:
    F(cast<DropReuseExpr>(E)->rest());
    return;
  case ExprKind::IsNullToken:
    F(cast<IsNullTokenExpr>(E)->thenExpr());
    F(cast<IsNullTokenExpr>(E)->elseExpr());
    return;
  case ExprKind::SetField:
    F(cast<SetFieldExpr>(E)->value());
    F(cast<SetFieldExpr>(E)->rest());
    return;
  }
}

} // namespace

VarSetRef FreeVarAnalysis::computeTree(const Expr *Root) {
  assert(Stack.empty() && "re-entrant free-variable walk");
  Stack.push_back({Root, false});
  VarSetRef Result;
  while (!Stack.empty()) {
    auto [E, Expanded] = Stack.back();
    if (!Expanded) {
      if (find(E)) { // a shared subtree, tabled since it was pushed
        Stack.pop_back();
        continue;
      }
      Stack.back().second = true;
      forEachChild(E, [this](const Expr *C) {
        if (!find(C))
          Stack.push_back({C, false});
      });
      continue;
    }
    Stack.pop_back();
    computeNode(E);
    Result = record(E);
  }
  return Result;
}

VarSetRef FreeVarAnalysis::freeVarsOfChild(const Expr *Child) const {
  const Slot *S = find(Child);
  assert(S && "child visited before its parent");
  return VarSetRef(S->Data, S->Size);
}

void FreeVarAnalysis::merge(const Symbol *First, const Symbol *Last) {
  if (First == Last)
    return;
  if (Acc.empty()) {
    Acc.assign(First, Last);
    return;
  }
  Tmp.clear();
  std::set_union(Acc.begin(), Acc.end(), First, Last,
                 std::back_inserter(Tmp));
  Acc.swap(Tmp);
}

void FreeVarAnalysis::computeNode(const Expr *E) {
  Acc.clear();
  auto add = [this](Symbol X) {
    auto It = std::lower_bound(Acc.begin(), Acc.end(), X);
    if (It == Acc.end() || *It != X)
      Acc.insert(It, X);
  };
  auto remove = [this](Symbol X) {
    auto It = std::lower_bound(Acc.begin(), Acc.end(), X);
    if (It != Acc.end() && *It == X)
      Acc.erase(It);
  };
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Global:
  case ExprKind::NullToken:
    break;
  case ExprKind::Var:
    Acc.push_back(cast<VarExpr>(E)->name());
    break;
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    unionChild(L->body());
    for (Symbol P : L->params())
      remove(P);
    break;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    unionChild(L->body());
    remove(L->name());
    unionChild(L->bound());
    break;
  }
  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    // Each arm's binders scope over that arm only: strip them from the
    // arm's set before it joins the others.
    for (const MatchArm &Arm : M->arms()) {
      VarSetRef Body = freeVarsOfChild(Arm.Body);
      ArmSet.assign(Body.begin(), Body.end());
      for (Symbol X : Arm.Binders) {
        auto It = std::lower_bound(ArmSet.begin(), ArmSet.end(), X);
        if (It != ArmSet.end() && *It == X)
          ArmSet.erase(It);
      }
      merge(ArmSet.data(), ArmSet.data() + ArmSet.size());
    }
    add(M->scrutinee());
    break;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    for (const Expr *Arg : C->args())
      unionChild(Arg);
    if (C->hasReuseToken())
      add(C->reuseToken());
    break;
  }
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef:
    unionChild(cast<RcStmtExpr>(E)->rest());
    add(cast<RcStmtExpr>(E)->var());
    break;
  case ExprKind::IsUnique:
    forEachChild(E, [this](const Expr *C) { unionChild(C); });
    add(cast<IsUniqueExpr>(E)->var());
    break;
  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    unionChild(D->rest());
    remove(D->token());
    add(D->var());
    break;
  }
  case ExprKind::ReuseAddr:
    Acc.push_back(cast<ReuseAddrExpr>(E)->var());
    break;
  case ExprKind::IsNullToken:
    forEachChild(E, [this](const Expr *C) { unionChild(C); });
    add(cast<IsNullTokenExpr>(E)->token());
    break;
  case ExprKind::SetField:
    forEachChild(E, [this](const Expr *C) { unionChild(C); });
    add(cast<SetFieldExpr>(E)->token());
    break;
  case ExprKind::TokenValue: {
    const auto *T = cast<TokenValueExpr>(E);
    add(T->token());
    for (Symbol K : T->keptFields())
      add(K);
    break;
  }
  case ExprKind::App:
  case ExprKind::Seq:
  case ExprKind::If:
  case ExprKind::Prim:
    forEachChild(E, [this](const Expr *C) { unionChild(C); });
    break;
  }
}

VarSetRef FreeVarAnalysis::record(const Expr *E) {
  Slot S;
  S.Key = E;
  S.Size = uint32_t(Acc.size());
  S.Epoch = Epoch;
  if (S.Size) {
    if (ChunkLeft < S.Size) {
      // Move on to the next chunk that fits, allocating one if none is
      // left from before the last clear().
      while (ChunkIdx < Chunks.size() && Chunks[ChunkIdx].Size < S.Size)
        ++ChunkIdx;
      if (ChunkIdx == Chunks.size()) {
        size_t N = std::max(ChunkSymbols, Acc.size());
        Chunks.push_back({std::make_unique<Symbol[]>(N), N});
      }
      ChunkFree = Chunks[ChunkIdx].Mem.get();
      ChunkLeft = Chunks[ChunkIdx].Size;
      ++ChunkIdx;
    }
    std::copy(Acc.begin(), Acc.end(), ChunkFree);
    S.Data = ChunkFree;
    ChunkFree += S.Size;
    ChunkLeft -= S.Size;
  }
  if ((Count + 1) * 2 > Slots.size())
    grow();
  insertSlot(S);
  ++Count;
  return VarSetRef(S.Data, S.Size);
}

void FreeVarAnalysis::insertSlot(const Slot &S) {
  size_t I = hash(S.Key) & Mask;
  while (Slots[I].Epoch == Epoch)
    I = (I + 1) & Mask;
  Slots[I] = S;
}

void FreeVarAnalysis::grow() {
  std::vector<Slot> Old(Slots.empty() ? InitialSlots : Slots.size() * 2);
  Old.swap(Slots);
  Mask = Slots.size() - 1;
  for (const Slot &S : Old)
    if (S.Epoch == Epoch)
      insertSlot(S);
}

void FreeVarAnalysis::clear() {
  Count = 0;
  ChunkIdx = 0;
  ChunkFree = nullptr;
  ChunkLeft = 0;
  if (++Epoch == 0) { // wrapped: no stale slot may look live
    std::fill(Slots.begin(), Slots.end(), Slot());
    Epoch = 1;
  }
}

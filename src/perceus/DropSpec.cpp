//===- perceus/DropSpec.cpp - Drop specialization ----------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/DropSpec.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "support/Casting.h"

#include <unordered_map>

using namespace perceus;

namespace {

class DropSpecializer {
public:
  DropSpecializer(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    FV.clear();
    P.setBody(F, rewrite(Fn.Body));
  }

private:
  struct ShapeInfo {
    CtorId Ctor = InvalidId;
    std::span<const Symbol> Binders;
    bool ChildrenUsed = false;
  };

  const Expr *rewrite(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      bool Changed = false;
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        MatchArm NewArm = Arm;
        if (Arm.Kind == ArmKind::Ctor && !Arm.Binders.empty()) {
          ShapeInfo Info;
          Info.Ctor = Arm.Ctor;
          Info.Binders = Arm.Binders;
          VarSetRef BodyFree = FV.freeVars(Arm.Body);
          for (Symbol Bv : Arm.Binders)
            if (BodyFree.contains(Bv)) {
              Info.ChildrenUsed = true;
              break;
            }
          auto Saved = Shape.find(M->scrutinee());
          bool Had = Saved != Shape.end();
          ShapeInfo Old = Had ? Saved->second : ShapeInfo();
          Shape[M->scrutinee()] = Info;
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

    case ExprKind::Drop: {
      const auto *D = cast<DropExpr>(E);
      const Expr *Rest = rewrite(D->rest());
      auto It = Shape.find(D->var());
      if (It == Shape.end() || !It->second.ChildrenUsed)
        return Rest == D->rest() ? E : B.drop(D->var(), Rest, E->loc());
      // if is-unique(x) then { drop children; free x } else decref x
      const ShapeInfo &Info = It->second;
      const Expr *Then = B.freeCell(D->var(), B.unit(E->loc()), E->loc());
      for (size_t I = Info.Binders.size(); I-- > 0;)
        Then = B.drop(Info.Binders[I], Then, E->loc());
      const Expr *Else = B.decref(D->var(), B.unit(E->loc()), E->loc());
      return B.seq(B.isUnique(D->var(), Then, Else, E->loc()), Rest,
                   E->loc());
    }

    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      const Expr *Rest = rewrite(D->rest());
      auto It = Shape.find(D->var());
      if (It == Shape.end())
        return Rest == D->rest()
                   ? E
                   : B.dropReuse(D->var(), D->token(), Rest, E->loc());
      // val ru = if is-unique(x) then { drop children; &x }
      //          else { decref x; NULL }
      const ShapeInfo &Info = It->second;
      const Expr *Then = B.reuseAddr(D->var(), E->loc());
      for (size_t I = Info.Binders.size(); I-- > 0;)
        Then = B.drop(Info.Binders[I], Then, E->loc());
      const Expr *Else =
          B.decref(D->var(), B.nullToken(E->loc()), E->loc());
      return B.let(D->token(),
                   B.isUnique(D->var(), Then, Else, E->loc()), Rest,
                   E->loc());
    }

    case ExprKind::Lam: {
      // A lambda body runs in its own activation: the enclosing match
      // binders are not in scope there, so specialization must not use
      // the outer shapes.
      std::unordered_map<Symbol, ShapeInfo> Saved;
      Saved.swap(Shape);
      const Expr *Out =
          mapChildren(B, E, [&](const Expr *C) { return rewrite(C); });
      Shape.swap(Saved);
      return Out;
    }

    default:
      return mapChildren(B, E, [&](const Expr *C) { return rewrite(C); });
    }
  }

  Program &P;
  IRBuilder B;
  FreeVarAnalysis FV;
  std::unordered_map<Symbol, ShapeInfo> Shape;
};

} // namespace

void perceus::runDropSpecialization(Program &P) {
  DropSpecializer S(P); // reuses its free-variable table's memory
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    S.runOnFunction(F);
}

void perceus::runDropSpecialization(Program &P, FuncId F) {
  DropSpecializer S(P);
  S.runOnFunction(F);
}

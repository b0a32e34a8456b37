//===- calculus/Generator.cpp - Random lambda-1 program generator -------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "calculus/Generator.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"

#include <vector>

using namespace perceus;

namespace {

/// Simple types: `box` or `box -> box` (rank-1 unary functions).
enum class Ty : uint8_t { Box, Fun };

class GeneratorImpl {
public:
  GeneratorImpl(Program &P, Rng &R) : P(P), B(P), R(R) {}

  Program &P;
  IRBuilder B;
  Rng &R;
  FreeVarAnalysis FV;
  CtorId Atom = InvalidId, Wrap = InvalidId, Pair = InvalidId;
  std::vector<std::pair<Symbol, Ty>> Env;

  void setupTypes() {
    Symbol BoxName = P.symbols().intern("box");
    uint32_t DataId = P.findData(BoxName);
    if (DataId == InvalidId) {
      DataId = P.addData(BoxName);
      P.addCtor(DataId, P.symbols().intern("BAtom"), 0);
      P.addCtor(DataId, P.symbols().intern("BWrap"), 1);
      P.addCtor(DataId, P.symbols().intern("BPair"), 2);
    }
    Atom = P.findCtor(P.symbols().intern("BAtom"));
    Wrap = P.findCtor(P.symbols().intern("BWrap"));
    Pair = P.findCtor(P.symbols().intern("BPair"));
  }

  /// A random in-scope variable of type \p T, or invalid.
  Symbol pickVar(Ty T) {
    std::vector<Symbol> Cands;
    for (const auto &[S, VT] : Env)
      if (VT == T)
        Cands.push_back(S);
    if (Cands.empty())
      return Symbol();
    return Cands[R.below(Cands.size())];
  }

  const Expr *gen(Ty T, unsigned Depth) {
    if (T == Ty::Fun)
      return genFun(Depth);
    return genBox(Depth);
  }

  const Expr *genBox(unsigned Depth) {
    // Leaves when out of depth.
    if (Depth == 0) {
      if (Symbol V = pickVar(Ty::Box); V && R.chance(2, 3))
        return B.var(V);
      return B.con(Atom, {});
    }
    switch (R.below(10)) {
    case 0:
    case 1: { // variable or atom
      if (Symbol V = pickVar(Ty::Box); V && R.chance(1, 2))
        return B.var(V);
      return B.con(Atom, {});
    }
    case 2: // BWrap
      return B.con(Wrap, {genBox(Depth - 1)});
    case 3: // BPair
      return B.con(Pair, {genBox(Depth - 1), genBox(Depth - 1)});
    case 4: { // application
      const Expr *F = genFun(Depth - 1);
      const Expr *A = genBox(Depth - 1);
      return B.app(F, {A});
    }
    case 5: { // let of a box
      Symbol X = P.symbols().fresh("v");
      const Expr *Bound = genBox(Depth - 1);
      Env.push_back({X, Ty::Box});
      const Expr *Body = genBox(Depth - 1);
      Env.pop_back();
      return B.let(X, Bound, Body);
    }
    case 6: { // let of a function
      Symbol X = P.symbols().fresh("f");
      const Expr *Bound = genFun(Depth - 1);
      Env.push_back({X, Ty::Fun});
      const Expr *Body = genBox(Depth - 1);
      Env.pop_back();
      return B.let(X, Bound, Body);
    }
    default: { // match on a box
      Symbol S = P.symbols().fresh("s");
      const Expr *Scrut = genBox(Depth - 1);
      Env.push_back({S, Ty::Box});

      const Expr *AtomBody = genBox(Depth - 1);

      Symbol W = P.symbols().fresh("w");
      Env.push_back({W, Ty::Box});
      const Expr *WrapBody = genBox(Depth - 1);
      Env.pop_back();

      Symbol A = P.symbols().fresh("a");
      Symbol Bv = P.symbols().fresh("b");
      Env.push_back({A, Ty::Box});
      Env.push_back({Bv, Ty::Box});
      const Expr *PairBody = genBox(Depth - 1);
      Env.pop_back();
      Env.pop_back();

      Env.pop_back(); // S
      MatchArm Arms[3] = {
          B.ctorArm(Atom, {}, AtomBody),
          B.ctorArm(Wrap, {W}, WrapBody),
          B.ctorArm(Pair, {A, Bv}, PairBody),
      };
      return B.let(S, Scrut,
                   B.match(S, std::span<const MatchArm>(Arms, 3)));
    }
    }
  }

  const Expr *genFun(unsigned Depth) {
    if (Symbol V = pickVar(Ty::Fun); V && (Depth == 0 || R.chance(1, 3)))
      return B.var(V);
    // A fresh lambda box -> box.
    Symbol X = P.symbols().fresh("x");
    Env.push_back({X, Ty::Box});
    const Expr *Body = genBox(Depth == 0 ? 0 : Depth - 1);
    Env.pop_back();
    // Captures are the free variables of the body minus the parameter.
    VarSet Free(FV.freeVars(Body));
    Free.erase(X);
    std::vector<Symbol> Caps(Free.begin(), Free.end());
    Symbol Params[1] = {X};
    return B.lam(std::span<const Symbol>(Params, 1),
                 std::span<const Symbol>(Caps.data(), Caps.size()), Body);
  }
};

} // namespace

GeneratedTerm perceus::generateTerm(Program &P, Rng &R, unsigned MaxDepth) {
  GeneratorImpl G(P, R);
  G.setupTypes();
  const Expr *Body = G.genBox(MaxDepth);
  Symbol Name = P.symbols().fresh("calc-main");
  FuncId F = P.addFunction(Name, {}, Body);
  return {F, Body};
}

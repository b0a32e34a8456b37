//===- perfbench/src/Corpus.cpp - The compile workload's corpus -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Util.h"

#include "native/Native.h"
#include "programs/Programs.h"

#include <algorithm>
#include <cmath>
#include <functional>

using namespace perfbench;
using namespace perceus;

namespace {

/// Every generated value stays in [0, Mod), so no product overflows and
/// `%` never sees a negative operand.
constexpr int64_t Mod = 1000003;

std::string num(int64_t V) { return std::to_string(V); }

size_t lineCount(const std::string &S) {
  size_t N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

/// One generated module: its source text and its meaning, evaluated by
/// the generator in C++.
struct Module {
  std::string Text;
  std::function<int64_t(int64_t)> Eval;
};

/// A list ADT built by non-tail recursion and folded by a `match`.
Module listModule(const std::string &I, Rng &R) {
  int64_t A = R.range(1, 999), B = R.range(0, 999), C = R.range(2, 97),
          L = R.range(3, 40), L0 = R.range(1, 10);
  std::string T = "type lst" + I + " {\n  Cons" + I + "(hd" + I + ", tl" + I +
                  ")\n  Nil" + I + "\n}\n\n";
  T += "fun build" + I + "(k, n) {\n  if k >= n then Nil" + I +
       "\n  else Cons" + I + "((k * " + num(A) + " + " + num(B) +
       ") % 1000003, build" + I + "(k + 1, n))\n}\n\n";
  T += "fun fold" + I + "(xs, acc) {\n  match xs {\n    Nil" + I +
       " -> acc\n    Cons" + I + "(h, t) -> fold" + I + "(t, (acc * " +
       num(C) + " + h) % 1000003)\n  }\n}\n\n";
  T += "fun mod" + I + "(x) {\n  fold" + I + "(build" + I + "(0, x % " +
       num(L) + " + " + num(L0) + "), x % 1000003)\n}\n\n";
  return {T, [=](int64_t X) {
            int64_t N = X % L + L0, Acc = X % Mod;
            for (int64_t K = 0; K < N; ++K)
              Acc = (Acc * C + (K * A + B) % Mod) % Mod;
            return Acc;
          }};
}

/// A binary tree ADT walked with nested constructor patterns.
Module treeModule(const std::string &I, Rng &R) {
  int64_t A = R.range(0, 999), B = R.range(0, 999), C = R.range(2, 31),
          E = R.range(0, 999), F = R.range(0, 999), D = R.range(1, 5);
  std::string T = "type tr" + I + " {\n  Lf" + I + "\n  Nd" + I + "(lft" + I +
                  ", key" + I + ", rgt" + I + ")\n}\n\n";
  T += "fun mk" + I + "(d, x) {\n  if d == 0 then Lf" + I + "\n  else Nd" + I +
       "(mk" + I + "(d - 1, (x * 2 + " + num(A) + ") % 1000003), x, mk" + I +
       "(d - 1, (x * 3 + " + num(B) + ") % 1000003))\n}\n\n";
  T += "fun walk" + I + "(t) {\n  match t {\n    Nd" + I + "(Nd" + I +
       "(ll, lk, lr), k, r) ->\n      (walk" + I + "(Nd" + I +
       "(ll, lk, lr)) * " + num(C) + " + k + walk" + I +
       "(r)) % 1000003\n    Nd" + I + "(Lf" + I + ", k, r) -> (k + " + num(E) +
       " + walk" + I + "(r)) % 1000003\n    Lf" + I + " -> " + num(F) +
       "\n  }\n}\n\n";
  T += "fun mod" + I + "(x) {\n  walk" + I + "(mk" + I + "(x % " + num(D) +
       " + 1, x % 1000003))\n}\n\n";
  return {T, [=](int64_t X) {
            std::function<int64_t(int64_t, int64_t)> W = [&](int64_t Depth,
                                                             int64_t K) {
              if (Depth == 0)
                return F;
              int64_t Right = W(Depth - 1, (K * 3 + B) % Mod);
              if (Depth == 1)
                return (K + E + Right) % Mod;
              int64_t Left = W(Depth - 1, (K * 2 + A) % Mod);
              return (Left * C + K + Right) % Mod;
            };
            return W(X % D + 1, X % Mod);
          }};
}

/// A straight-line chain of \p K `val` bindings, each reading two
/// earlier ones.
Module valChain(const std::string &I, Rng &R, int64_t K) {
  std::vector<int64_t> A, B, P;
  std::string T = "fun mod" + I + "(x) {\n  val v0 = x % 1000003\n";
  for (int64_t J = 1; J <= K; ++J) {
    A.push_back(R.range(1, 999));
    B.push_back(R.range(0, 999));
    P.push_back(R.range(0, J - 1));
    T += "  val v" + num(J) + " = (v" + num(J - 1) + " * " + num(A.back()) +
         " + v" + num(P.back()) + " + " + num(B.back()) + ") % 1000003\n";
  }
  T += "  v" + num(K) + "\n}\n\n";
  return {T, [=](int64_t X) {
            std::vector<int64_t> V{X % Mod};
            for (int64_t J = 1; J <= K; ++J)
              V.push_back((V[J - 1] * A[J - 1] + V[P[J - 1]] + B[J - 1]) % Mod);
            return V.back();
          }};
}

Module valChainModule(const std::string &I, Rng &R) {
  return valChain(I, R, R.range(3, 40));
}

/// An `if` / `elif` ladder over a residue.
Module ladderModule(const std::string &I, Rng &R) {
  int64_t M = R.range(8, 200), K = R.range(2, 24);
  std::vector<int64_t> Cut, A, B;
  for (int64_t J = 0; J < K; ++J)
    Cut.push_back(R.range(0, M));
  std::sort(Cut.begin(), Cut.end());
  for (int64_t J = 0; J <= K; ++J) {
    A.push_back(R.range(1, 999));
    B.push_back(R.range(0, 999));
  }
  std::string T = "fun mod" + I + "(x) {\n  val y = x % " + num(M) + "\n";
  for (int64_t J = 0; J < K; ++J)
    T += std::string(J ? "  elif" : "  if") + " y < " + num(Cut[J]) +
         " then (x * " + num(A[J]) + " + " + num(B[J]) + ") % 1000003\n";
  T += "  else (x * " + num(A[K]) + " + " + num(B[K]) + ") % 1000003\n}\n\n";
  return {T, [=](int64_t X) {
            int64_t Y = X % M;
            for (int64_t J = 0; J < K; ++J)
              if (Y < Cut[J])
                return (X * A[J] + B[J]) % Mod;
            return (X * A[K] + B[K]) % Mod;
          }};
}

/// Constructors of arity one to three, built by an `if` ladder and
/// consumed by a `match`.
Module shapeModule(const std::string &I, Rng &R) {
  int64_t M1 = R.range(2, 999), M2 = R.range(2, 999), M3 = R.range(2, 999),
          M4 = R.range(2, 999), K1 = R.range(0, 999), K2 = R.range(0, 999),
          A = R.range(1, 999), B = R.range(1, 999);
  std::string T = "type sh" + I + " {\n  Ao" + I + "(pa" + I + ")\n  Bo" + I +
                  "(pb" + I + ", qb" + I + ")\n  Co" + I + "(pc" + I + ", qc" +
                  I + ", rc" + I + ")\n}\n\n";
  T += "fun make" + I + "(x) {\n  if x % 3 == 0 then Ao" + I + "(x % " +
       num(M1) + ")\n  elif x % 3 == 1 then Bo" + I + "(x % " + num(M2) +
       ", " + num(K1) + ")\n  else Co" + I + "(x % " + num(M3) + ", x % " +
       num(M4) + ", " + num(K2) + ")\n}\n\n";
  T += "fun score" + I + "(s) {\n  match s {\n    Ao" + I + "(p) -> (p * " +
       num(A) + ") % 1000003\n    Bo" + I + "(p, q) -> (p + q * " + num(B) +
       ") % 1000003\n    Co" + I +
       "(p, q, r) -> (p * q + r) % 1000003\n  }\n}\n\n";
  T += "fun mod" + I + "(x) {\n  (score" + I + "(make" + I + "(x)) + score" +
       I + "(make" + I + "(x + 1))) % 1000003\n}\n\n";
  return {T, [=](int64_t X) {
            auto Score = [&](int64_t Y) {
              if (Y % 3 == 0)
                return (Y % M1 * A) % Mod;
              if (Y % 3 == 1)
                return (Y % M2 + K1 * B) % Mod;
              return (Y % M3 * (Y % M4) + K2) % Mod;
            };
            return (Score(X) + Score(X + 1)) % Mod;
          }};
}

/// A tail-recursive accumulator loop.
Module loopModule(const std::string &I, Rng &R) {
  int64_t A = R.range(2, 999), B = R.range(0, 999), C = R.range(0, 999),
          L = R.range(2, 60), S = R.range(0, 999);
  std::string T = "fun loop" + I + "(k, n, acc) {\n  if k >= n then acc\n  "
                  "else loop" + I + "(k + 1, n, (acc * " + num(A) + " + k * " +
                  num(B) + " + " + num(C) + ") % 1000003)\n}\n\n";
  T += "fun mod" + I + "(x) {\n  loop" + I + "(0, x % " + num(L) + " + 1, " +
       num(S) + ")\n}\n\n";
  return {T, [=](int64_t X) {
            int64_t Acc = S, N = X % L + 1;
            for (int64_t K = 0; K < N; ++K)
              Acc = (Acc * A + K * B + C) % Mod;
            return Acc;
          }};
}

/// One generated program of about \p TargetLines lines.
CorpusProgram generate(size_t Index, size_t TargetLines, Rng &R) {
  CorpusProgram P;
  P.Name = "gen-" + std::to_string(Index);
  P.Entry = "main";
  int64_t X = R.range(1, 50);
  P.Args = {X};

  using Maker = Module (*)(const std::string &, Rng &);
  static const Maker Makers[] = {listModule,   treeModule,  valChainModule,
                                 ladderModule, shapeModule, loopModule};
  // The templates take turns from a seeded start, so every program of a
  // given size has about the same mix whatever the seed.
  size_t First = size_t(R.next() % 6);
  std::vector<Module> Mods;
  size_t Lines = 0;
  // Every template is at most 45 lines long; a final `val` chain pads the
  // program to its target size.
  const size_t Frame = 3, Largest = 46;
  do {
    Mods.push_back(
        Makers[(First + Mods.size()) % 6](std::to_string(Mods.size()), R));
    Lines += lineCount(Mods.back().Text) + 1; // plus its line in main
  } while (Lines + Frame + Largest < TargetLines);
  if (Lines + Frame + 6 < TargetLines) {
    // A chain of K bindings takes K + 4 lines, plus one in main.
    int64_t K = int64_t(TargetLines - Lines - Frame) - 5;
    Mods.push_back(valChain(std::to_string(Mods.size()), R, K));
    Lines += lineCount(Mods.back().Text) + 1;
  }

  std::string Main = "fun main(x) {\n  val r0 = mod0(x)\n";
  int64_t Acc = Mods[0].Eval(X);
  for (size_t J = 1; J != Mods.size(); ++J) {
    std::string Jn = std::to_string(J), Prev = std::to_string(J - 1);
    Main += "  val r" + Jn + " = (r" + Prev + " * 31 + mod" + Jn + "(x + (r" +
            Prev + " % 97))) % 1000003\n";
    Acc = (Acc * 31 + Mods[J].Eval(X + Acc % 97)) % Mod;
  }
  Main += "  r" + std::to_string(Mods.size() - 1) + "\n}\n";
  for (const Module &M : Mods)
    P.Source += M.Text;
  P.Source += Main;
  P.Want = Acc;
  P.Lines = lineCount(P.Source);
  return P;
}

/// Sum of the perfect tree `build(d, x)` of the shared-tree program.
int64_t sharedTreeSum(int64_t D, int64_t X) {
  if (D == 0)
    return 0;
  return sharedTreeSum(D - 1, X * 2) + X + D + sharedTreeSum(D - 1, X * 2 + 1);
}

/// The ten programs of src/programs on tiny inputs, each with its
/// reference.
std::vector<CorpusProgram> realPrograms() {
  auto prog = [](const char *Name, std::string Src, const char *Entry,
                 std::vector<int64_t> Args, int64_t Want) {
    CorpusProgram P;
    P.Name = Name;
    P.Source = std::move(Src);
    P.Entry = Entry;
    P.Args = std::move(Args);
    P.Want = Want;
    P.Lines = lineCount(P.Source);
    return P;
  };
  int64_t MapSum = 0;
  for (int64_t I = 1; I <= 100; ++I)
    MapSum += I + 1;
  return {
      prog("rbtree", rbtreeSource(), "bench_rbtree", {200},
           native::rbtree(200)),
      prog("rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", {200},
           native::rbtree(200)),
      prog("deriv", derivSource(), "bench_deriv", {5}, native::deriv(5)),
      prog("nqueens", nqueensSource(), "bench_nqueens", {5},
           native::nqueens(5)),
      prog("cfold", cfoldSource(), "bench_cfold", {6}, native::cfold(6)),
      prog("tmap", tmapSource(), "bench_tmap_fbip", {6},
           native::tmapMorris(6)),
      prog("mapsum", mapSumSource(), "bench_mapsum", {100}, MapSum),
      prog("msort", msortSource(), "bench_msort", {100}, native::msort(100)),
      prog("queue", queueSource(), "bench_queue", {50}, native::queue(50)),
      // bench_shared_sum takes a tree; a one-line wrapper builds it.
      prog("shared-tree",
           std::string(sharedTreeSource()) +
               "\nfun check_shared(n, d) {\n  bench_shared_sum(n, "
               "build_tree(d))\n}\n",
           "check_shared", {3, 5}, 3 * sharedTreeSum(5, 1)),
  };
}

} // namespace

std::vector<CorpusProgram> perfbench::makeCorpus(uint64_t Seed,
                                                 bool CorruptReference) {
  std::vector<CorpusProgram> Corpus = realPrograms();
  Rng R(Seed ^ 0xC0FFEEull);
  const double MinLines = 20, MaxLines = 3000;
  for (size_t I = 0; I != GeneratedPrograms; ++I) {
    // Stratified on a log scale: one draw per equal-width stratum.
    double U = (double(I) + R.uniform()) / double(GeneratedPrograms);
    size_t Target = size_t(MinLines * std::pow(MaxLines / MinLines, U));
    Corpus.push_back(generate(I, Target, R));
  }
  if (CorruptReference)
    Corpus[realPrograms().size()].Want += 1;
  return Corpus;
}

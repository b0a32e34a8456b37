//===- bench/bench_fig1_map.cpp - Figure 1: the map pipeline ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 1: prints the seven transformation stages of the
/// polymorphic `map` function — (a) source, (b) dup/drop insertion,
/// (c) drop specialization, (d) fusion, (e) reuse token insertion,
/// (f) drop-reuse specialization, (g) fusion — and then, as the dynamic
/// counterpart, the executed RC-operation counts of `map` over a 100k
/// list under each ablation of the pass pipeline.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "lang/Resolver.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {});
  // Part 1: the static stages (Figure 1 a-g).
  {
    Program P;
    DiagnosticEngine Diags;
    if (!compileSource(mapSumSource(), P, Diags)) {
      std::printf("compile error:\n%s", Diags.str().c_str());
      return 1;
    }
    FuncId MapF = P.findFunction(P.symbols().intern("map"));
    std::vector<StageDump> Stages = runPipelineWithStages(P, MapF);
    std::printf("Figure 1: transformation stages of map\n");
    for (const StageDump &S : Stages) {
      std::printf("\n----- %s -----\n%s", S.Stage.c_str(), S.Text.c_str());
    }
  }

  // Part 2: dynamic RC-operation counts per ablation.
  int64_t N = 100000;
  BenchProgram Prog{"mapsum", mapSumSource(), "bench_mapsum", N, nullptr};

  struct Ablation {
    const char *Name;
    PassConfig Config;
  };
  PassConfig OnlyDropSpec = PassConfig::perceusNoOpt();
  OnlyDropSpec.EnableDropSpec = true;
  PassConfig DropSpecFusion = OnlyDropSpec;
  DropSpecFusion.EnableFusion = true;
  PassConfig ReuseNoSpec = PassConfig::perceusFull();
  ReuseNoSpec.EnableReuseSpec = false;

  std::vector<Ablation> Ablations = {
      {"(b) insertion only", PassConfig::perceusNoOpt()},
      {"(c) + drop specialization", OnlyDropSpec},
      {"(d) + fusion", DropSpecFusion},
      {"(e/f/g) + reuse", ReuseNoSpec},
      {"full (+ reuse spec)", PassConfig::perceusFull()},
  };

  std::printf("\nDynamic counts for map+sum over a %lld-element list:\n",
              (long long)N);
  std::printf("  %-28s %10s %10s %10s %10s %10s\n", "pipeline stage", "dup",
              "drop", "decref", "allocs", "reuses");
  for (const Ablation &A : Ablations) {
    Measurement M = measure(Prog, A.Config);
    if (!M.Ran) {
      std::printf("  %-28s failed\n", A.Name);
      continue;
    }
    std::printf("  %-28s %10llu %10llu %10llu %10llu %10llu\n", A.Name,
                (unsigned long long)M.Heap.DupOps,
                (unsigned long long)M.Heap.DropOps,
                (unsigned long long)M.Heap.DecRefOps,
                (unsigned long long)M.Heap.Allocs,
                (unsigned long long)M.Run.ReuseHits);
  }
  return 0;
}

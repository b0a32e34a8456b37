//===- bench/bench_rcops.cpp - Section 2.3-2.5: RC operations vanish ----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's central optimization claim (Sections 2.3-2.5,
/// Figure 1): after drop specialization, fusion and reuse, almost all
/// reference-count operations disappear from the fast path. We report
/// the *dynamically executed* RC instruction counts per configuration
/// for each benchmark — the quantity the static transformations are
/// designed to minimize.
///
/// Usage: bench_rcops [--scale=X] [--json=PATH | --no-json]
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--scale=X", "--json=PATH", "--no-json"});
  double Scale = parseScale(Argc, Argv, 0.2);
  std::string JsonPath = parseJsonPath("rcops", Argc, Argv);
  std::vector<BenchProgram> Programs = figure9Programs(Scale);
  BenchReport Report("rcops", Scale);

  std::vector<std::pair<std::string, PassConfig>> Configs = {
      {"perceus", PassConfig::perceusFull()},
      {"perceus-noopt", PassConfig::perceusNoOpt()},
      {"scoped-rc", PassConfig::scoped()},
  };

  std::printf("Dynamically executed reference-count operations "
              "(--scale=%.2f)\n",
              Scale);
  for (const BenchProgram &Prog : Programs) {
    std::printf("\n%s (n=%lld):\n", Prog.Name, (long long)Prog.BaseScale);
    std::printf("  %-14s %12s %12s %12s %12s %12s %12s\n", "config", "dup",
                "drop", "decref", "is-unique", "allocs", "reuses");
    uint64_t BaselineOps = 0;
    for (const auto &[Name, Config] : Configs) {
      Measurement M = measure(Prog, Config);
      Report.add(Prog.Name, Name, M);
      if (!M.Ran) {
        std::printf("  %-14s failed\n", Name.c_str());
        continue;
      }
      uint64_t Total = M.Heap.DupOps + M.Heap.DropOps + M.Heap.DecRefOps;
      if (Name == "perceus")
        BaselineOps = Total;
      std::printf("  %-14s %12llu %12llu %12llu %12llu %12llu %12llu",
                  Name.c_str(), (unsigned long long)M.Heap.DupOps,
                  (unsigned long long)M.Heap.DropOps,
                  (unsigned long long)M.Heap.DecRefOps,
                  (unsigned long long)M.Heap.IsUniqueTests,
                  (unsigned long long)M.Heap.Allocs,
                  (unsigned long long)M.Run.ReuseHits);
      if (BaselineOps && Total)
        std::printf("   (%.2fx perceus rc-ops)", double(Total) / BaselineOps);
      std::printf("\n");
    }
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

//===- bench/bench_borrow.cpp - Section 6: selective borrowing ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work experiment, implemented: Section 6 proposes
/// integrating *selective borrowing* into Perceus ("no longer garbage
/// free, but ... further performance improvements if judiciously
/// applied"). We infer borrowed parameters (predicates, folds — never
/// allocating functions, so reuse analysis keeps its fuel) and measure
/// the executed RC operations and time against plain Perceus.
///
/// Usage: bench_borrow [--scale=X]
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--scale=X"});
  double Scale = parseScale(Argc, Argv, 0.5);
  std::vector<BenchProgram> Programs = figure9Programs(Scale);
  Programs.push_back(
      {"mapsum", mapSumSource(), "bench_mapsum",
       static_cast<int64_t>(100000 * Scale), nullptr});

  std::printf("Selective borrowing (Section 6 extension), --scale=%.2f\n",
              Scale);
  std::printf("  %-11s %22s %22s %10s %10s\n", "benchmark",
              "perceus rc-ops (time)", "borrow rc-ops (time)", "rc-ops",
              "reuse kept");
  for (const BenchProgram &Prog : Programs) {
    Measurement Base = measure(Prog, PassConfig::perceusFull());
    Measurement Bor = measure(Prog, PassConfig::perceusBorrow());
    if (!Base.Ran || !Bor.Ran) {
      std::printf("  %-11s failed\n", Prog.Name);
      continue;
    }
    if (Base.Checksum != Bor.Checksum)
      std::printf("  WARNING: %s checksum mismatch\n", Prog.Name);
    auto Ops = [](const Measurement &M) {
      return M.Heap.DupOps + M.Heap.DropOps + M.Heap.DecRefOps;
    };
    char L[64], R[64];
    std::snprintf(L, sizeof(L), "%llu (%.3fs)",
                  (unsigned long long)Ops(Base), Base.Seconds);
    std::snprintf(R, sizeof(R), "%llu (%.3fs)",
                  (unsigned long long)Ops(Bor), Bor.Seconds);
    std::printf("  %-11s %22s %22s %9.1f%% %9.1f%%\n", Prog.Name, L, R,
                Ops(Base) ? 100.0 * Ops(Bor) / Ops(Base) : 0.0,
                Base.Run.ReuseHits
                    ? 100.0 * Bor.Run.ReuseHits / Base.Run.ReuseHits
                    : 100.0);
  }
  std::printf("\n(rc-ops: executed dup+drop+decref, borrow relative to "
              "perceus; reuse kept: borrowing must not lose in-place "
              "reuse, so this stays at 100%%.)\n");
  return 0;
}

//===- bench/bench_fbip.cpp - Section 2.6: functional but in-place ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the FBIP claims of Section 2.6 (Figures 2 and 3): the
/// visitor-based tree map is purely functional yet, on a unique tree,
/// runs with zero fresh allocations in the steady state (every matched
/// cell pairs with a same-size allocation) and — unlike the naive
/// recursive map — in constant stack space, like Morris's in-place
/// traversal. We compare:
///
///   tmap-fbip    Figure 3, under the full Perceus pipeline
///   tmap-naive   plain recursion (also reuses, but stack ~ depth)
///   morris (C++) Figure 2, the native mutating algorithm
///   recursive (C++) native recursion baseline
///
/// Usage: bench_fbip [--depth=D] [--json=PATH | --no-json]
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "native/Native.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--depth=N", "--json=PATH", "--no-json"});
  int64_t Depth = 16;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--depth=", 8) == 0)
      Depth = std::atoll(Argv[I] + 8);
  std::string JsonPath = parseJsonPath("fbip", Argc, Argv);
  BenchReport Report("fbip", double(Depth));

  std::printf("FBIP tree traversal, perfect tree of depth %lld "
              "(%lld nodes)\n",
              (long long)Depth, (long long)((1ll << Depth) - 1));
  std::printf("  %-22s %10s %12s %12s %14s %10s\n", "variant", "time",
              "allocs", "reuse-hits", "net-allocs*", "stack");
  std::printf("  (*allocations after the initial tree build; 0 = fully "
              "in-place)\n");

  int64_t TreeNodes = (1ll << Depth) - 1;
  int64_t Expected = native::tmapMorris(Depth);

  for (const char *Entry : {"bench_tmap_fbip", "bench_tmap_naive"}) {
    BenchProgram Prog{Entry, tmapSource(), Entry, Depth, nullptr};
    Measurement M = measure(Prog, PassConfig::perceusFull());
    Report.add(Entry, "perceus", M);
    if (!M.Ran) {
      std::printf("  %-22s failed\n", Entry);
      continue;
    }
    if (M.Checksum != Expected)
      std::printf("  WARNING: %s checksum %lld != native %lld\n", Entry,
                  (long long)M.Checksum, (long long)Expected);
    int64_t NetAllocs = int64_t(M.Heap.Allocs) - TreeNodes;
    std::printf("  %-22s %9.3fs %12llu %12llu %14lld %10llu\n", Entry,
                M.Seconds, (unsigned long long)M.Heap.Allocs,
                (unsigned long long)M.Run.ReuseHits, (long long)NetAllocs,
                (unsigned long long)M.Run.MaxLocalsSlots);
  }

  {
    auto T0 = std::chrono::steady_clock::now();
    int64_t R = native::tmapMorris(Depth);
    auto Dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    std::printf("  %-22s %9.3fs %12s %12s %14s %10s   (checksum %lld)\n",
                "morris (native C++)", Dt, "-", "-", "0", "O(1)",
                (long long)R);
    Measurement M;
    M.Ran = true;
    M.Seconds = Dt;
    M.Checksum = R;
    Report.add("tmap_morris", "native-c++", M);
  }
  {
    auto T0 = std::chrono::steady_clock::now();
    int64_t R = native::tmapRecursive(Depth);
    auto Dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    std::printf("  %-22s %9.3fs %12s %12s %14s %10s   (checksum %lld)\n",
                "recursive (native C++)", Dt, "-", "-", "0", "O(depth)",
                (long long)R);
    Measurement M;
    M.Ran = true;
    M.Seconds = Dt;
    M.Checksum = R;
    Report.add("tmap_recursive", "native-c++", M);
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

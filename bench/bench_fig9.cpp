//===- bench/bench_fig9.cpp - Figure 9: time and peak memory ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Figure 9 (and Figure 11, which is the same
/// experiment on a second machine — run this binary there): relative
/// execution time and relative peak working set for the five benchmarks
/// under every memory-management configuration.
///
/// Configuration mapping (see DESIGN.md for the substitution argument):
///   perceus        <- Koka
///   perceus-noopt  <- Koka, no-opt
///   scoped-rc      <- Swift (lexical-lifetime RC)
///   gc             <- OCaml/Haskell/Java (tracing collection)
///   native-c++     <- C++ (std::map rbtree; no-reclaim others)
///
/// Times are interpreter times: comparable across rows (same machine,
/// same dispatch cost), not to the paper's absolute numbers. The
/// native-c++ row runs compiled code and is reported for completeness
/// with that caveat. Peak working set is exact live-heap bytes.
///
/// Usage: bench_fig9 [--scale=X] [--engine=cek|vm] [--json=PATH | --no-json]
///        (X=1 is the CI-friendly default; results also land in
///        BENCH_fig9.json at the repo root unless --no-json)
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--scale=X", "--engine=cek|vm", "--json=PATH",
                          "--no-json"});
  double Scale = parseScale(Argc, Argv);
  std::string JsonPath = parseJsonPath("fig9", Argc, Argv);
  EngineKind Engine = parseEngine(Argc, Argv);
  std::vector<BenchProgram> Programs = figure9Programs(Scale);
  BenchReport Report("fig9", Scale);

  struct Row {
    std::string Name;
    PassConfig Config;
    bool Native = false;
  };
  std::vector<Row> Rows = {
      {"perceus", PassConfig::perceusFull(), false},
      {"perceus-noopt", PassConfig::perceusNoOpt(), false},
      {"scoped-rc", PassConfig::scoped(), false},
      {"gc", PassConfig::gc(), false},
      {"native-c++", PassConfig::gc(), true},
  };

  std::printf("Figure 9 reproduction: %zu benchmarks x %zu configurations "
              "(--scale=%.2f)\n",
              Programs.size(), Rows.size(), Scale);

  std::vector<std::string> RowNames, ColNames;
  for (const Row &R : Rows)
    RowNames.push_back(R.Name);
  for (const BenchProgram &B : Programs)
    ColNames.push_back(B.Name);

  std::vector<std::vector<double>> Times(Rows.size()),
      Peaks(Rows.size());
  std::vector<int64_t> Checksums(Programs.size(), INT64_MIN);

  for (size_t RI = 0; RI != Rows.size(); ++RI) {
    for (size_t CI = 0; CI != Programs.size(); ++CI) {
      Measurement M = Rows[RI].Native
                          ? measureNative(Programs[CI])
                          : measure(Programs[CI], Rows[RI].Config,
                                    EngineConfig{}.withEngine(Engine));
      Report.add(Programs[CI].Name, Rows[RI].Name, M);
      Times[RI].push_back(M.Ran ? M.Seconds : -1);
      Peaks[RI].push_back(
          M.Ran && !Rows[RI].Native ? double(M.PeakBytes) : -1);
      if (M.Ran) {
        if (Checksums[CI] == INT64_MIN)
          Checksums[CI] = M.Checksum;
        else if (Checksums[CI] != M.Checksum)
          std::printf("WARNING: checksum mismatch on %s under %s: %lld vs "
                      "%lld\n",
                      Programs[CI].Name, Rows[RI].Name.c_str(),
                      (long long)M.Checksum, (long long)Checksums[CI]);
      }
    }
  }

  printRelativeTable("Figure 9 (top): execution time", "s", RowNames,
                     ColNames, Times);
  printRelativeTable("Figure 9 (bottom): peak working set", "bytes",
                     RowNames, ColNames, Peaks);

  std::printf("\nChecksums:");
  for (size_t CI = 0; CI != Programs.size(); ++CI)
    std::printf(" %s=%lld", Programs[CI].Name, (long long)Checksums[CI]);
  std::printf("\n");

  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

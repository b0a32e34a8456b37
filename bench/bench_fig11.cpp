//===- bench/bench_fig11.cpp - Figure 11: the second machine -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 11 of the paper is Figure 9 re-run on a second machine (an
/// Intel i9-7900X there). The experiment is identical; only the machine
/// differs — so this binary *is* the Figure 9 harness, and reproducing
/// Figure 11 means running it on different hardware. The paper's claim
/// carried by the figure (the relative shape is machine-independent) is
/// approximated here with a built-in scale sweep: the orderings must
/// agree across workload sizes on this machine.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perceus;
using namespace perceus::bench;

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--json=PATH", "--no-json"});
  std::printf("Figure 11 = Figure 9 on another machine. Running the "
              "scale-stability check instead\n(run bench_fig9 on a second "
              "machine for the literal reproduction).\n");
  std::string JsonPath = parseJsonPath("fig11", Argc, Argv);
  // The sweep visits several scales; the report's scale field carries
  // the largest one and each row is tagged "<benchmark>@<scale>".
  BenchReport Report("fig11", 1.0);

  std::vector<PassConfig> Configs = {
      PassConfig::perceusFull(), PassConfig::scoped(), PassConfig::gc()};
  const char *Names[] = {"perceus", "scoped-rc", "gc"};

  for (double Scale : {0.25, 0.5, 1.0}) {
    std::printf("\n--scale=%.2f (peak-memory ordering per benchmark):\n",
                Scale);
    for (const BenchProgram &Prog : figure9Programs(Scale)) {
      size_t Peaks[3] = {0, 0, 0};
      for (size_t I = 0; I != Configs.size(); ++I) {
        Measurement M = measure(Prog, Configs[I]);
        char Tag[64];
        std::snprintf(Tag, sizeof(Tag), "%s@%.2f", Prog.Name, Scale);
        Report.add(Tag, Names[I], M);
        Peaks[I] = M.Ran ? M.PeakBytes : 0;
      }
      bool PerceusBest = Peaks[0] <= Peaks[1] && Peaks[0] <= Peaks[2];
      std::printf("  %-10s perceus=%.2fMB scoped=%.2fMB gc=%.2fMB  %s\n",
                  Prog.Name, Peaks[0] / 1048576.0, Peaks[1] / 1048576.0,
                  Peaks[2] / 1048576.0,
                  PerceusBest ? "[perceus lowest: ok]"
                              : "[ORDERING CHANGED]");
    }
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

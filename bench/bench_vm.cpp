//===- bench/bench_vm.cpp - CEK vs bytecode VM speedup -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Head-to-head of the two execution engines on the Figure 9 benchmark
/// set under the full Perceus configuration: the tree-walking CEK
/// machine vs the flat register-based bytecode VM. Both engines run the
/// same instrumented IR against the same heap, so the only variable is
/// dispatch — the table isolates what flattening the tree walk buys.
///
/// Beyond time, every row cross-checks the observable-equivalence
/// contract: checksums, allocs/frees, dup/drop, and reuse hits must be
/// bit-identical across engines (steps are engine-specific and exempt).
/// A mismatch fails the run — this harness doubles as a smoke test.
///
///   bench_vm [--scale=X] [--reps=N] [--json=PATH | --no-json]
///
/// Writes BENCH_vm.json ("perceus-bench-v1"; config = cek | vm-nopeep |
/// vm) and prints the per-benchmark speedup plus the geometric mean —
/// the vm-nopeep rows isolate the superinstruction/RC-elision tier from
/// the flattening itself.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>

using namespace perceus;
using namespace perceus::bench;

namespace {

uint64_t parseReps(int Argc, char **Argv, uint64_t Default) {
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--reps=", 7) == 0)
      return std::max(1l, std::atol(Argv[I] + 7));
  return Default;
}

/// Best-of-N wall clock; the stats come from the last rep (they are
/// identical across reps by determinism).
Measurement measureBest(const BenchProgram &Prog, const EngineConfig &EC,
                        uint64_t Reps) {
  Measurement Best;
  for (uint64_t I = 0; I != Reps; ++I) {
    Measurement M = measure(Prog, PassConfig::perceusFull(), EC);
    if (!M.Ran)
      return M;
    if (!Best.Ran || M.Seconds < Best.Seconds)
      Best = M;
  }
  return Best;
}

bool statsMatch(const BenchProgram &P, const Measurement &A,
                const Measurement &B) {
  auto check = [&](const char *What, uint64_t X, uint64_t Y) {
    if (X == Y)
      return true;
    std::fprintf(stderr, "%s: %s diverge across engines: cek=%llu vm=%llu\n",
                 P.Name, What, (unsigned long long)X, (unsigned long long)Y);
    return false;
  };
  bool Ok = check("checksums", A.Checksum, B.Checksum);
  Ok &= check("allocs", A.Heap.Allocs, B.Heap.Allocs);
  Ok &= check("frees", A.Heap.Frees, B.Heap.Frees);
  Ok &= check("dups", A.Heap.DupOps, B.Heap.DupOps);
  Ok &= check("drops", A.Heap.DropOps, B.Heap.DropOps);
  Ok &= check("reuse hits", A.Run.ReuseHits, B.Run.ReuseHits);
  Ok &= check("peak bytes", A.PeakBytes, B.PeakBytes);
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--scale=X", "--reps=N", "--json=PATH", "--no-json"});
  double Scale = parseScale(Argc, Argv);
  uint64_t Reps = parseReps(Argc, Argv, 3);
  std::string JsonPath = parseJsonPath("vm", Argc, Argv);
  std::vector<BenchProgram> Programs = figure9Programs(Scale);
  BenchReport Report("vm", Scale);

  std::printf("Engine comparison: CEK tree-walker vs bytecode VM "
              "(perceus config, --scale=%.2f, best of %llu)\n\n",
              Scale, (unsigned long long)Reps);
  std::printf("%-12s %12s %12s %12s %10s %10s\n", "benchmark", "cek [s]",
              "vm-raw [s]", "vm [s]", "vs cek", "vs raw");

  double LogSum = 0, RawLogSum = 0;
  size_t N = 0;
  bool Parity = true;
  for (const BenchProgram &P : Programs) {
    Measurement Cek =
        measureBest(P, EngineConfig{}.withEngine(EngineKind::Cek), Reps);
    // The raw VM row pins what the peephole tier itself buys, holding
    // everything else (compiler, heap, dispatch loop) constant.
    Measurement Raw = measureBest(
        P, EngineConfig{}.withEngine(EngineKind::Vm).withPeephole(false),
        Reps);
    Measurement Vm =
        measureBest(P, EngineConfig{}.withEngine(EngineKind::Vm), Reps);
    if (!Cek.Ran || !Raw.Ran || !Vm.Ran) {
      std::fprintf(stderr, "%s failed to run\n", P.Name);
      return 1;
    }
    Parity = statsMatch(P, Cek, Vm) && Parity;
    Parity = statsMatch(P, Cek, Raw) && Parity;
    Report.add(P.Name, "cek", Cek);
    Report.add(P.Name, "vm-nopeep", Raw);
    Report.add(P.Name, "vm", Vm);
    double Speedup = Cek.Seconds / Vm.Seconds;
    double RawSpeedup = Raw.Seconds / Vm.Seconds;
    LogSum += std::log(Speedup);
    RawLogSum += std::log(RawSpeedup);
    ++N;
    std::printf("%-12s %12.4f %12.4f %12.4f %9.2fx %9.2fx\n", P.Name,
                Cek.Seconds, Raw.Seconds, Vm.Seconds, Speedup, RawSpeedup);
  }
  double Geomean = std::exp(LogSum / double(N));
  double RawGeomean = std::exp(RawLogSum / double(N));
  std::printf("%-12s %12s %12s %12s %9.2fx %9.2fx  (geomean)\n", "", "", "",
              "", Geomean, RawGeomean);

  if (!Parity) {
    std::fprintf(stderr, "\nengine parity violated — see above\n");
    return 1;
  }

  // The report must satisfy the same schema CI validates for every
  // other harness; checking in-process keeps the failure local.
  std::string SchemaErr = validateBenchJson(Report.json());
  if (!SchemaErr.empty()) {
    std::fprintf(stderr, "BENCH_vm.json schema violation: %s\n",
                 SchemaErr.c_str());
    return 1;
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

//===- bench/bench_governor.cpp - Resource governor overhead ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the happy-path cost of the resource governor: the same
/// allocate/drop loops and end-to-end machine runs with the governor
/// disarmed (no limits, the default) versus armed with limits far too
/// large to ever fire. The acceptance bar is that the armed column is
/// within noise of the disarmed one — the governor is a single
/// predicted-false branch on the allocation path.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "eval/Runner.h"
#include "programs/Programs.h"
#include "runtime/Heap.h"
#include "support/FaultInjector.h"

#include <benchmark/benchmark.h>

using namespace perceus;

namespace {

HeapLimits hugeLimits() {
  HeapLimits L;
  L.MaxLiveBytes = size_t(1) << 40;
  L.MaxLiveCells = uint64_t(1) << 40;
  L.AllocBudget = uint64_t(1) << 60;
  return L;
}

void allocDropLoop(benchmark::State &State, Heap &H) {
  for (auto _ : State) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    H.initField(C, 0, Value::makeInt(1));
    H.initField(C, 1, Value::unit());
    H.drop(Value::makeRef(C));
  }
}

void BM_AllocFree_Disarmed(benchmark::State &State) {
  Heap H;
  allocDropLoop(State, H);
}
BENCHMARK(BM_AllocFree_Disarmed);

void BM_AllocFree_ArmedLimits(benchmark::State &State) {
  Heap H;
  H.setLimits(hugeLimits());
  allocDropLoop(State, H);
}
BENCHMARK(BM_AllocFree_ArmedLimits);

void BM_AllocFree_ArmedInjector(benchmark::State &State) {
  // A fault injector that never fires (fail attempt 2^62).
  Heap H;
  FaultInjector FI = FaultInjector::failNth(uint64_t(1) << 62);
  H.setFaultInjector(&FI);
  allocDropLoop(State, H);
  H.setFaultInjector(nullptr);
}
BENCHMARK(BM_AllocFree_ArmedInjector);

void machineRun(benchmark::State &State, bool Armed) {
  Runner R(mapSumSource(), PassConfig::perceusFull());
  if (Armed) {
    RunLimits L;
    L.Heap = hugeLimits();
    L.Fuel = uint64_t(1) << 60;
    L.MaxCallDepth = uint64_t(1) << 40;
    R.setLimits(L);
  }
  const int64_t N = State.range(0);
  for (auto _ : State) {
    RunResult Res = R.callInt("bench_mapsum", {N});
    benchmark::DoNotOptimize(Res.Result.Int);
  }
  State.SetItemsProcessed(State.iterations() * N);
}

void BM_MachineMapSum_Disarmed(benchmark::State &State) {
  machineRun(State, false);
}
BENCHMARK(BM_MachineMapSum_Disarmed)->Arg(10000);

void BM_MachineMapSum_Armed(benchmark::State &State) {
  machineRun(State, true);
}
BENCHMARK(BM_MachineMapSum_Armed)->Arg(10000);

/// One timed end-to-end mapsum run for the JSON report; \p Armed turns
/// on never-firing limits (the configuration BM_MachineMapSum_Armed
/// times via google-benchmark).
bench::Measurement measureMapSum(bool Armed) {
  bench::Measurement M;
  Runner R(mapSumSource(), PassConfig::perceusFull());
  if (!R.ok())
    return M;
  if (Armed) {
    RunLimits L;
    L.Heap = hugeLimits();
    L.Fuel = uint64_t(1) << 60;
    L.MaxCallDepth = uint64_t(1) << 40;
    R.setLimits(L);
  }
  auto T0 = std::chrono::steady_clock::now();
  RunResult Res = R.callInt("bench_mapsum", {10000});
  auto T1 = std::chrono::steady_clock::now();
  if (!Res.Ok)
    return M;
  M.Ran = true;
  M.Seconds = std::chrono::duration<double>(T1 - T0).count();
  M.PeakBytes = R.heap().stats().PeakBytes;
  M.Checksum = Res.Result.Int;
  M.Heap = R.heap().stats();
  M.Run = Res;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::checkFlags(Argc, Argv,
                    {"--json=PATH", "--no-json", "--benchmark_*"});
  std::string JsonPath = bench::parseJsonPath("governor", Argc, Argv);
  // benchmark::Initialize aborts on flags it does not know; strip ours.
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--json=", 7) != 0 &&
        std::strcmp(Argv[I], "--no-json") != 0)
      Args.push_back(Argv[I]);
  int BenchArgc = int(Args.size());
  benchmark::Initialize(&BenchArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (JsonPath.empty())
    return 0;
  bench::BenchReport Report("governor", 1.0);
  Report.add("mapsum", "disarmed", measureMapSum(false));
  Report.add("mapsum", "armed", measureMapSum(true));
  return Report.write(JsonPath) ? 0 : 1;
}

//===- bench/bench_heap.cpp - Substrate microbenchmarks -----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the runtime substrate (google-benchmark):
/// allocator throughput (fresh vs free-list vs reuse-token paths), the
/// recursive drop of a long list, and end-to-end abstract-machine
/// dispatch. These characterize the simulator so the Figure 9 relative
/// numbers can be interpreted (see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"
#include "programs/Programs.h"
#include "runtime/Heap.h"

#include <benchmark/benchmark.h>

using namespace perceus;

namespace {

void BM_AllocFree(benchmark::State &State) {
  Heap H;
  for (auto _ : State) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    H.initField(C, 0, Value::makeInt(1));
    H.initField(C, 1, Value::unit());
    H.drop(Value::makeRef(C));
  }
}
BENCHMARK(BM_AllocFree);

void BM_AllocChainThenDrop(benchmark::State &State) {
  Heap H;
  const int64_t N = State.range(0);
  for (auto _ : State) {
    // Build a list of N cells, then drop the head (recursive free).
    Value Tail = Value::unit();
    for (int64_t I = 0; I != N; ++I) {
      Cell *C = H.alloc(2, 0, CellKind::Ctor);
      H.initField(C, 0, Value::makeInt(I));
      H.initField(C, 1, Tail);
      Tail = Value::makeRef(C);
    }
    H.drop(Tail);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_AllocChainThenDrop)->Arg(1024)->Arg(65536);

void BM_MachineMapSum(benchmark::State &State) {
  Runner R(mapSumSource(), PassConfig::perceusFull());
  const int64_t N = State.range(0);
  for (auto _ : State) {
    RunResult Res = R.callInt("bench_mapsum", {N});
    benchmark::DoNotOptimize(Res.Result.Int);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_MachineMapSum)->Arg(1000)->Arg(10000);

void BM_MachineRbtreeInsert(benchmark::State &State) {
  Runner R(rbtreeSource(), PassConfig::perceusFull());
  const int64_t N = State.range(0);
  for (auto _ : State) {
    RunResult Res = R.callInt("bench_rbtree", {N});
    benchmark::DoNotOptimize(Res.Result.Int);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_MachineRbtreeInsert)->Arg(1000)->Arg(10000);

} // namespace

BENCHMARK_MAIN();

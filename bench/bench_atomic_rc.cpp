//===- bench/bench_atomic_rc.cpp - Section 2.7.2: atomic RC costs -------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the concurrency story of Section 2.7.2 as google-benchmark
/// microbenchmarks: dup/drop on thread-local cells use the plain
/// fast path; marking an object thread-shared (the paper's `tshare`)
/// flips its count negative and all further operations take the atomic
/// slow path, through the single fused `rc <= 1` test. Ungar et al.
/// report up to 50% slowdown when every operation must be atomic — the
/// Local/Shared ratio below is our measurement of that gap, and the
/// Mixed benchmark shows why the static thread-sharing information
/// matters.
///
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

using namespace perceus;

namespace {

void BM_DupDropLocal(benchmark::State &State) {
  Heap H;
  Cell *C = H.alloc(2, 0, CellKind::Ctor);
  H.initField(C, 0, Value::unit());
  H.initField(C, 1, Value::unit());
  Value V = Value::makeRef(C);
  for (auto _ : State) {
    H.dup(V);
    H.drop(V);
  }
  benchmark::DoNotOptimize(C);
  H.drop(V);
}
BENCHMARK(BM_DupDropLocal);

void BM_DupDropShared(benchmark::State &State) {
  Heap H;
  Cell *C = H.alloc(2, 0, CellKind::Ctor);
  H.initField(C, 0, Value::unit());
  H.initField(C, 1, Value::unit());
  Value V = Value::makeRef(C);
  H.markShared(V); // the paper's tshare: all further RC ops are atomic
  for (auto _ : State) {
    H.dup(V);
    H.drop(V);
  }
  benchmark::DoNotOptimize(C);
}
BENCHMARK(BM_DupDropShared);

/// The realistic mixture the paper argues for: most objects stay
/// thread-local; only the explicitly shared ones pay for atomics.
void BM_DupDropMixed(benchmark::State &State) {
  Heap H;
  constexpr int N = 64;
  std::vector<Value> Vals;
  for (int I = 0; I != N; ++I) {
    Cell *C = H.alloc(1, 0, CellKind::Ctor);
    H.initField(C, 0, Value::unit());
    Value V = Value::makeRef(C);
    if (I % 16 == 0) // 1 in 16 objects is thread-shared
      H.markShared(V);
    Vals.push_back(V);
  }
  size_t I = 0;
  for (auto _ : State) {
    Value V = Vals[I++ % N];
    H.dup(V);
    H.drop(V);
  }
}
BENCHMARK(BM_DupDropMixed);

/// Contended atomic counting from several threads — the case unrestricted
/// multithreading (Swift) must assume everywhere.
void BM_SharedContended(benchmark::State &State) {
  static Heap H;
  // Thread-safe one-time setup (all benchmark threads enter here).
  static Cell *C = [] {
    Cell *New = H.alloc(1, 0, CellKind::Ctor);
    H.initField(New, 0, Value::unit());
    H.markShared(Value::makeRef(New));
    return New;
  }();
  Value V = Value::makeRef(C);
  for (auto _ : State) {
    H.dup(V);
    H.drop(V);
  }
}
// Fixed iteration count: google-benchmark's auto-timing converges very
// slowly for multi-threaded runs on a single hardware core.
BENCHMARK(BM_SharedContended)->Threads(2)->UseRealTime()->Iterations(1 << 21);

/// The sticky count: saturated objects skip all updates entirely.
void BM_DupDropSticky(benchmark::State &State) {
  Heap H;
  Cell *C = H.alloc(1, 0, CellKind::Ctor);
  H.initField(C, 0, Value::unit());
  C->H.Rc.store(INT32_MIN, std::memory_order_relaxed); // sticky
  Value V = Value::makeRef(C);
  for (auto _ : State) {
    H.dup(V);
    H.drop(V);
  }
}
BENCHMARK(BM_DupDropSticky);

} // namespace

BENCHMARK_MAIN();

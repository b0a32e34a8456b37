//===- bench/bench_parallel.cpp - Worker-pool scaling curve --------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scaling curve for the parallel execution layer (src/parallel): runs
/// 1/2/4/8 concurrent machine instances on three embarrassingly-parallel
/// Section 4 programs (rbtree, deriv, nqueens — private heaps, zero
/// cross-thread RC traffic) plus the contended shared-tree traversal,
/// where every worker hammers one tshare'd input and all RC updates on
/// it are atomic (Section 2.7.2).
///
/// Reported per cell: wall-clock seconds for N workers each executing
/// the *same* workload once. Perfect scaling keeps the wall clock flat
/// as workers grow, i.e. aggregate throughput (runs/second) grows
/// linearly — expect ~N× up to the host's core count and flat beyond it
/// (a single-core host shows ~1× everywhere, honestly).
///
///   bench_parallel [--scale=X] [--engine=cek|vm] [--json=PATH | --no-json]
///
/// Writes BENCH_parallel.json ("perceus-bench-v1"; config = workers=N).
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "parallel/ParallelRunner.h"

#include <cstdio>
#include <thread>

using namespace perceus;
using namespace perceus::bench;

namespace {

struct ParallelWorkload {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t Arg;             ///< entry argument (scaled)
  const char *Builder;     ///< shared-input builder, or null
  int64_t BuilderArg;      ///< builder argument (unscaled: tree shape)
};

/// True when two workers' heap statistics differ on any counter that the
/// workload determines. Every worker runs identical code on an identical
/// input, so the RC-operation classification and allocation counts must
/// match exactly, worker to worker and worker-count to worker-count.
/// Race-dependent counters are excluded: which worker frees a parked
/// shared cell, and how shared-count updates batch into atomic RMWs
/// (AtomicRcOps/CoalescedRcOps), legitimately vary with scheduling.
bool statsDiverge(const HeapStats &A, const HeapStats &B) {
  return A.Allocs != B.Allocs || A.DupOps != B.DupOps ||
         A.DropOps != B.DropOps || A.DecRefOps != B.DecRefOps ||
         A.IsUniqueTests != B.IsUniqueTests ||
         A.NonHeapRcOps != B.NonHeapRcOps;
}

/// Runs one workload cell. With \p CaptureBaseline set (the workers=1
/// run), records the single worker's stats as the workload's baseline;
/// with \p Baseline set (every other run), refuses — returns a
/// not-ran Measurement — if any worker's stats diverge from it: a
/// speedup over differently-counted work would be meaningless.
Measurement runOnce(ParallelRunner &PR, const ParallelWorkload &W,
                    unsigned Workers, EngineKind Engine,
                    const HeapStats *Baseline, HeapStats *CaptureBaseline) {
  EngineConfig EC;
  EC.Engine = Engine;
  EC.Workers = Workers;
  if (W.Builder) {
    EC.SharedBuilder = W.Builder;
    EC.SharedArgs = {Value::makeInt(W.BuilderArg)};
  }
  ParallelOutcome Out = PR.run(EC, W.Entry, {Value::makeInt(W.Arg)});
  Measurement M;
  if (!Out.Ok || !Out.AllHeapsEmpty) {
    if (!Out.Error.empty())
      std::fprintf(stderr, "%s: %s\n", W.Name, Out.Error.c_str());
    return M;
  }
  // Workers run identical code on identical inputs: one checksum.
  for (const WorkerOutcome &WO : Out.Workers)
    if (WO.Run.Result.Int != Out.Workers[0].Run.Result.Int) {
      std::fprintf(stderr, "%s: checksum mismatch across workers\n",
                   W.Name);
      return M;
    }
  if (Baseline)
    for (size_t I = 0; I != Out.Workers.size(); ++I)
      if (statsDiverge(Out.Workers[I].Heap, *Baseline)) {
        std::fprintf(stderr,
                     "%s: workers=%u worker %zu stats diverge from the "
                     "1-worker run — refusing to report a speedup\n",
                     W.Name, Workers, I);
        return M;
      }
  if (CaptureBaseline)
    *CaptureBaseline = Out.Workers[0].Heap;
  M.Ran = true;
  M.Seconds = Out.Seconds;
  M.Checksum = Out.Workers[0].Run.Result.Int;
  M.Heap = Out.Combined;
  accumulate(M.Heap, Out.Shared);
  M.PeakBytes = M.Heap.PeakBytes;
  M.Run = Out.Workers[0].Run;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  checkFlags(Argc, Argv, {"--scale=X", "--engine=cek|vm", "--json=PATH",
                          "--no-json"});
  double Scale = parseScale(Argc, Argv);
  std::string JsonPath = parseJsonPath("parallel", Argc, Argv);
  EngineKind Engine = parseEngine(Argc, Argv);
  const unsigned WorkerCounts[] = {1, 2, 4, 8};

  const ParallelWorkload Workloads[] = {
      {"rbtree", rbtreeSource(), "bench_rbtree",
       int64_t(42000 * Scale), nullptr, 0},
      {"deriv", derivSource(), "bench_deriv", int64_t(8 * Scale),
       nullptr, 0},
      {"nqueens", nqueensSource(), "bench_nqueens", int64_t(8 + Scale),
       nullptr, 0},
      {"shared-tree", sharedTreeSource(), "bench_shared_sum",
       int64_t(400 * Scale), "build_tree", 10},
  };

  std::printf("Parallel scaling (workers x same workload; wall seconds; "
              "host has %u hardware threads)\n\n",
              std::thread::hardware_concurrency());

  BenchReport Report("parallel", Scale);
  std::vector<std::string> RowNames, ColNames;
  std::vector<std::vector<double>> Seconds;
  for (unsigned N : WorkerCounts)
    RowNames.push_back("workers=" + std::to_string(N));

  // One compile per workload, reused across every worker count — the
  // Program and layout are read-only at run time by design.
  std::vector<std::vector<Measurement>> Cells(std::size(WorkerCounts));
  for (const ParallelWorkload &W : Workloads) {
    ParallelRunner PR(W.Source, PassConfig::perceusFull());
    if (!PR.ok()) {
      std::fprintf(stderr, "%s failed to compile:\n%s", W.Name,
                   PR.diagnostics().str().c_str());
      return 1;
    }
    ColNames.push_back(W.Name);
    HeapStats Baseline;
    for (size_t R = 0; R != std::size(WorkerCounts); ++R) {
      bool First = R == 0;
      Measurement M =
          runOnce(PR, W, WorkerCounts[R], Engine,
                  First ? nullptr : &Baseline, First ? &Baseline : nullptr);
      if (!M.Ran)
        return 1;
      Report.add(W.Name, RowNames[R], M);
      Cells[R].push_back(M);
    }
  }

  for (size_t R = 0; R != std::size(WorkerCounts); ++R) {
    Seconds.emplace_back();
    for (const Measurement &M : Cells[R])
      Seconds.back().push_back(M.Seconds);
  }
  printRelativeTable("wall clock vs 1 worker (1.0 = perfect scaling)",
                     "s", RowNames, ColNames, Seconds);

  std::printf("\nAggregate throughput speedup (runs/second vs 1 worker; "
              "ideal = worker count):\n");
  for (size_t R = 1; R != std::size(WorkerCounts); ++R) {
    std::printf("  workers=%u:", WorkerCounts[R]);
    for (size_t C = 0; C != ColNames.size(); ++C) {
      double Speedup = (WorkerCounts[R] * Cells[0][C].Seconds) /
                       Cells[R][C].Seconds;
      std::printf("  %s=%.2fx", ColNames[C].c_str(), Speedup);
    }
    std::printf("\n");
  }

  // The report must satisfy the same schema CI validates for every
  // other harness; checking in-process keeps the failure local.
  std::string SchemaErr = validateBenchJson(Report.json());
  if (!SchemaErr.empty()) {
    std::fprintf(stderr, "BENCH_parallel.json schema violation: %s\n",
                 SchemaErr.c_str());
    return 1;
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

//===- perfbench/src/Fig9.cpp - The fig9 workload -------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own evaluation: the five Figure-9 programs under full
/// Perceus, each run in-process on the bytecode VM (peephole on) and on
/// the CEK machine, in a closed loop on one thread. Every round compiles
/// each program afresh for both engines (the set-up, outside the timed
/// runs) and times one `Runner::callInt` per engine. Every checksum is
/// checked against bench/native, every heap must end empty with
/// allocs == frees, and both engines must agree on HeapStats and
/// RcInstrCounts.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "eval/Runner.h"

#include <cmath>

using namespace perfbench;
using namespace perceus;

namespace {

/// Sizes at which no program dominates the round (tens of milliseconds
/// each on the VM). nqueens, cfold and deriv take discrete sizes, so they
/// stay fixed; the seed draws the two rbtree insert counts from a +-2%
/// band.
constexpr int64_t RbtreeBase = 7000;
constexpr int64_t RbtreeCkBase = 6000;
constexpr int64_t DerivN = 20;
constexpr int64_t NqueensN = 9;
constexpr int64_t CfoldN = 16;

int64_t sizeFor(const std::string &Name, Rng &R) {
  auto band = [&](int64_t Base) {
    return int64_t(std::llround(double(Base) * (0.98 + 0.04 * R.uniform())));
  };
  if (Name == "rbtree")
    return band(RbtreeBase);
  if (Name == "rbtree-ck")
    return band(RbtreeCkBase);
  if (Name == "deriv")
    return DerivN;
  if (Name == "nqueens")
    return NqueensN;
  return CfoldN;
}

EngineRun fromRunner(Runner &R, RunResult Res, double Seconds) {
  EngineRun E;
  E.Run = std::move(Res);
  E.Heap = R.heap().stats();
  E.HeapEmpty = R.heapIsEmpty();
  E.Seconds = Seconds;
  return E;
}

} // namespace

void perfbench::runFig9(const RunOptions &O, double Seconds, Tracer &T,
                        Metrics &M, Outcomes &Out) {
  const std::vector<Fig9Program> &Progs = fig9Programs();
  Rng R(O.Seed);
  std::vector<int64_t> Size, Want;
  for (const Fig9Program &P : Progs) {
    Size.push_back(sizeFor(P.Name, R));
    Want.push_back(fig9Reference(P.Name, Size.back()));
  }
  if (O.CorruptReference)
    Want[0] += 1;

  size_t NP = Progs.size();
  std::vector<std::vector<double>> VmT(NP), CekT(NP);
  std::vector<double> SetupT, CompileT, AllJobs;
  std::vector<ProgramRuns> Last(NP);
  double Busy = 0;
  uint64_t Jobs = 0;

  sampleHostSpeed(3);
  int64_t Root = T.begin("bench.fig9");
  double Start = now();
  const size_t MinRounds = 3, MaxRounds = 1000;
  for (size_t Round = 0;
       Round < MinRounds || (now() - Start < Seconds && Round < MaxRounds);
       ++Round) {
    sampleHostSpeed();
    ScopedSpan RoundSpan(T, "bench.round", Round + 1);
    double Setup = 0, Compile = 0;
    for (size_t I = 0; I != NP; ++I) {
      const Fig9Program &P = Progs[I];
      Clock::time_point T0 = Clock::now();
      std::optional<Runner> Vm, Cek;
      {
        ScopedSpan S(T, "eval.runner_setup", Round + 1);
        Vm.emplace(P.Source, PassConfig::perceusFull(),
                   EngineConfig{}.withEngine(EngineKind::Vm));
      }
      Clock::time_point T1 = Clock::now();
      {
        ScopedSpan S(T, "eval.runner_setup", Round + 1);
        Cek.emplace(P.Source, PassConfig::perceusFull(),
                    EngineConfig{}.withEngine(EngineKind::Cek));
      }
      Clock::time_point T2 = Clock::now();
      Setup += secondsBetween(T0, T2);
      Compile += secondsBetween(T0, T1);
      if (!Vm->ok() || !Cek->ok()) {
        Out.fail(std::string(P.Name) + ": does not compile");
        continue;
      }

      RunResult VmRes, CekRes;
      double VmS, CekS;
      {
        ScopedSpan S(T, "bytecode.vm_run", Round + 1);
        Clock::time_point A = Clock::now();
        VmRes = Vm->callInt(P.Entry, {Size[I]});
        VmS = secondsBetween(A, Clock::now());
      }
      {
        ScopedSpan S(T, "eval.cek_run", Round + 1);
        Clock::time_point A = Clock::now();
        CekRes = Cek->callInt(P.Entry, {Size[I]});
        CekS = secondsBetween(A, Clock::now());
      }
      EngineRun VmRun = fromRunner(*Vm, std::move(VmRes), VmS);
      EngineRun CekRun = fromRunner(*Cek, std::move(CekRes), CekS);
      std::string Tag =
          std::string(P.Name) + "(" + std::to_string(Size[I]) + ")";
      checkResult(Out, Tag + " on vm", VmRun, Want[I]);
      checkResult(Out, Tag + " on cek", CekRun, Want[I]);
      std::string Diff = parityMismatch(CekRun, VmRun);
      Out.check(Diff.empty(), Tag + ": engines disagree: " + Diff);

      VmT[I].push_back(VmS);
      CekT[I].push_back(CekS);
      AllJobs.push_back(VmS * 1e3);
      AllJobs.push_back(CekS * 1e3);
      Busy += VmS + CekS;
      Jobs += 2;
      Last[I] = {P.Name, 0, 0, VmRun.Run, CekRun.Run, VmRun.Heap};
    }
    SetupT.push_back(Setup);
    CompileT.push_back(Compile);
  }
  T.end(Root);

  double VmSum = 0, CekSum = 0, Peak = 0;
  std::vector<double> JobMedians;
  for (size_t I = 0; I != NP; ++I) {
    Last[I].VmSeconds = median(VmT[I]);
    Last[I].CekSeconds = median(CekT[I]);
    VmSum += Last[I].VmSeconds;
    CekSum += Last[I].CekSeconds;
    Peak += double(Last[I].VmHeap.PeakBytes);
    JobMedians.push_back(Last[I].VmSeconds * 1e3);
    JobMedians.push_back(Last[I].CekSeconds * 1e3);
  }
  M.set("setup_s", median(SetupT), "s");
  M.set("vm_run_s", VmSum, "s");
  M.set("cek_run_s", CekSum, "s");
  M.set("peak_bytes", Peak, "B");
  M.set("compile_s", median(CompileT), "s");
  M.set("p50_ms", median(JobMedians), "ms");
  M.set("p99_ms", quantile(JobMedians, 0.99), "ms");
  M.set("p99_ms_high", quantile(AllJobs, 0.99), "ms");
  M.set("max_rps", Busy > 0 ? double(Jobs) / Busy : 0, "req/s");
  M.set("fig9.rounds", double(SetupT.size()), "count");
  reportEngineLayers(Last, M);

  // Compile-phase layers: one staged compile per program, the median of
  // three by total time.
  std::vector<StagedCompile> Staged;
  for (const Fig9Program &P : Progs) {
    std::vector<StagedCompile> Three;
    for (int K = 0; K != 3; ++K)
      Three.push_back(compileStaged(P.Source, T));
    std::sort(Three.begin(), Three.end(),
              [](const StagedCompile &A, const StagedCompile &B) {
                return A.TotalS < B.TotalS;
              });
    Staged.push_back(std::move(Three[1]));
  }
  std::vector<const StagedCompile *> Set;
  for (const StagedCompile &C : Staged)
    Set.push_back(&C);
  reportCompileLayers(Set, M);
}

//===- perfbench/src/Compile.cpp - The compile workload -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cold compiles of a seeded corpus (Corpus.h) through the VM path, one
/// timed call per public function of lang, perceus, eval and bytecode;
/// each compiled program then runs once on a tiny input on the VM and on
/// the CEK machine. The set-up is generating the corpus. Every result is
/// checked against the generator's own C++ evaluation (or bench/native
/// for the real programs), every heap must end empty, and both engines
/// must agree on HeapStats and RcInstrCounts.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Workloads.h"

using namespace perfbench;
using namespace perceus;

void perfbench::runCompile(const RunOptions &O, double Seconds, Tracer &T,
                           Metrics &M, Outcomes &Out) {
  sampleHostSpeed(3);
  // Set-up: generating the corpus, timed here and again at the start of
  // every round (the same corpus each time), so the samples spread over
  // the run.
  std::vector<double> SetupT;
  std::vector<CorpusProgram> Corpus;
  auto generate = [&] {
    ScopedSpan S(T, "bench.generate");
    Clock::time_point T0 = Clock::now();
    Corpus = makeCorpus(O.Seed, O.CorruptReference);
    SetupT.push_back(secondsBetween(T0, Clock::now()));
  };
  generate();

  size_t NP = Corpus.size();
  std::vector<std::vector<double>> CompileT(NP), VmT(NP), CekT(NP);
  std::vector<double> RoundCompile, AllJobs;
  std::vector<Metrics> LayerRounds;
  std::vector<ProgramRuns> Last(NP);
  uint64_t Lines = 0;
  for (const CorpusProgram &P : Corpus)
    Lines += P.Lines;

  int64_t Root = T.begin("bench.compile_corpus");
  double Start = now();
  const size_t MinRounds = 3, MaxRounds = 1000;
  for (size_t Round = 0;
       Round < MinRounds || (now() - Start < Seconds && Round < MaxRounds);
       ++Round) {
    sampleHostSpeed();
    if (Round)
      generate();
    ScopedSpan RoundSpan(T, "bench.round");
    double Total = 0;
    std::vector<StagedCompile> Done;
    Done.reserve(NP);
    for (size_t I = 0; I != NP; ++I) {
      const CorpusProgram &P = Corpus[I];
      uint64_t Req = Round * NP + I + 1;
      Done.push_back(compileStaged(P.Source, T, Req));
      const StagedCompile &C = Done.back();
      if (!C.Ok) {
        Out.fail(P.Name + ": does not compile: " + C.Error);
        continue;
      }
      Total += C.TotalS;
      CompileT[I].push_back(C.TotalS);
      AllJobs.push_back(C.TotalS * 1e3);

      EngineRun Vm = runStaged(C, P.Entry, P.Args, /*Vm=*/true, T, Req);
      EngineRun Cek = runStaged(C, P.Entry, P.Args, /*Vm=*/false, T, Req);
      checkResult(Out, P.Name + " on vm", Vm, P.Want);
      checkResult(Out, P.Name + " on cek", Cek, P.Want);
      std::string Diff = parityMismatch(Cek, Vm);
      Out.check(Diff.empty(), P.Name + ": engines disagree: " + Diff);
      VmT[I].push_back(Vm.Seconds);
      CekT[I].push_back(Cek.Seconds);
      Last[I] = {P.Name, 0, 0, Vm.Run, Cek.Run, Vm.Heap};
    }
    RoundCompile.push_back(Total);
    std::vector<const StagedCompile *> Set;
    for (const StagedCompile &C : Done)
      if (C.Ok)
        Set.push_back(&C);
    Metrics Layers;
    reportCompileLayers(Set, Layers);
    LayerRounds.push_back(std::move(Layers));
  }
  T.end(Root);

  double VmSum = 0, CekSum = 0, Peak = 0, Busy = 0;
  std::vector<double> JobMedians;
  for (size_t I = 0; I != NP; ++I) {
    Last[I].VmSeconds = median(VmT[I]);
    Last[I].CekSeconds = median(CekT[I]);
    VmSum += Last[I].VmSeconds;
    CekSum += Last[I].CekSeconds;
    Peak += double(Last[I].VmHeap.PeakBytes);
    JobMedians.push_back(median(CompileT[I]) * 1e3);
  }
  for (double C : RoundCompile)
    Busy += C;
  M.set("setup_s", median(SetupT), "s");
  M.set("compile_s", median(RoundCompile), "s");
  M.set("vm_run_s", VmSum, "s");
  M.set("cek_run_s", CekSum, "s");
  M.set("peak_bytes", Peak, "B");
  M.set("p50_ms", median(JobMedians), "ms");
  M.set("p99_ms", quantile(JobMedians, 0.99), "ms");
  M.set("p99_ms_high", quantile(AllJobs, 0.99), "ms");
  M.set("max_rps", Busy > 0 ? double(AllJobs.size()) / Busy : 0, "req/s");
  M.set("compile.rounds", double(RoundCompile.size()), "count");
  M.set("compile.programs", double(NP), "count");
  M.set("compile.lines", double(Lines), "count");
  Metrics Layers = Metrics::medianOf(LayerRounds);
  for (const Metrics::Entry &E : Layers.entries())
    M.set(E.Name, E.Value, E.Unit);
  reportEngineLayers(Last, M);
}

//===- perfbench/src/Workloads.h - The three workloads ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload measures for a given number of seconds and fills in
/// every metric it can (end-to-end and per-layer); main.cpp decides
/// which set a run prints. README.md defines every metric per workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"
#include "Util.h"

#include "bytecode/Bytecode.h"
#include "bytecode/Peephole.h"
#include "eval/Engine.h"
#include "eval/Layout.h"
#include "ir/Program.h"
#include "perceus/Pipeline.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using perceus::CompiledProgram;
using perceus::HeapStats;
using perceus::IrOpCounts;
using perceus::PeepholeReport;
using perceus::Program;
using perceus::ProgramLayout;
using perceus::RunResult;

/// One Figure-9 program of the fig9 workload.
struct Fig9Program {
  const char *Name;  ///< metric suffix: rbtree, rbtree-ck, ...
  const char *Source;
  const char *Entry;
};
const std::vector<Fig9Program> &fig9Programs();

/// Independent reference for a Figure-9 program's checksum, from
/// bench/native (native::rbtree is also rbtree-ck's reference: both
/// count the keys with `i % 10 == 0`).
int64_t fig9Reference(const std::string &Name, int64_t N);

/// Host-speed calibration. The hosts this benchmark runs on share their
/// cores, and their speed drifts by up to a third over minutes: longer
/// than one run, so medians inside a run cannot remove it. Each workload
/// therefore times a fixed native kernel (the bench/native versions of the
/// five Figure-9 programs at fixed sizes, about 10 ms) at points spread
/// over its run, between its measurements. main.cpp scales the end-to-end
/// times by NominalKernelSeconds / hostKernelSeconds(), so they read as
/// seconds on a host of the reference speed; the raw ones are kept as
/// `raw.<metric>`.
void sampleHostSpeed(int Times = 1);
/// The median kernel time so far, in seconds; 0 before any sample.
double hostKernelSeconds();
/// The kernel's median time on the reference host (a 4-vCPU Xeon VM,
/// GCC 12, RelWithDebInfo).
constexpr double NominalKernelSeconds = 0.0100;

/// A cold compile through the VM path, one timed call per public
/// function: parse -> resolve -> runPipeline -> layout -> compileProgram
/// -> runPeephole (countIrOps runs after, outside the compile time).
struct StagedCompile {
  bool Ok = false;
  std::string Error;
  std::unique_ptr<Program> Prog;
  std::optional<ProgramLayout> Layout;
  std::optional<CompiledProgram> Code;
  PeepholeReport Peep;
  IrOpCounts Ops;
  uint64_t StaticInstrs = 0;
  size_t SourceBytes = 0;
  double ParseS = 0, ResolveS = 0, PassesS = 0, LayoutS = 0, CompileS = 0,
         PeepholeS = 0;
  double TotalS = 0; ///< parse through peephole, wall clock
};
StagedCompile compileStaged(std::string_view Source, Tracer &T,
                            uint64_t Request = 0);

/// Runs \p Entry of a staged compile on a fresh heap, on the VM (\p Vm)
/// or the CEK machine, and reports the result, the heap's stats, the
/// wall time and whether the heap was empty afterwards.
struct EngineRun {
  RunResult Run;
  HeapStats Heap;
  double Seconds = 0;
  bool HeapEmpty = false;
};
EngineRun runStaged(const StagedCompile &C, std::string_view Entry,
                    const std::vector<int64_t> &Args, bool Vm, Tracer &T,
                    uint64_t Request = 0);

/// Checks one run against its independent reference \p Want, and the
/// garbage-free invariant: no trap, the same integer result, and an empty
/// heap with allocs == frees afterwards.
void checkResult(Outcomes &Out, const std::string &What, const EngineRun &E,
                 int64_t Want);

/// Compares the observable RC behaviour of two runs of one program on
/// the two engines (HeapStats and RcInstrCounts, as bench_vm's parity
/// check does). Returns an empty string when they agree.
std::string parityMismatch(const EngineRun &Cek, const EngineRun &Vm);

/// Fills the per-program and aggregate eval / bytecode / runtime
/// metrics from one VM and one CEK run per Figure-9 program.
struct ProgramRuns {
  std::string Name;
  double VmSeconds = 0, CekSeconds = 0;
  RunResult Vm, Cek;
  HeapStats VmHeap;
};
void reportEngineLayers(const std::vector<ProgramRuns> &Runs, Metrics &M);

/// Fills the lang / perceus / bytecode / eval.layout metrics from a set
/// of staged compiles (each phase summed over the set).
void reportCompileLayers(const std::vector<const StagedCompile *> &Set,
                         Metrics &M);

void runFig9(const RunOptions &O, double Seconds, Tracer &T, Metrics &M,
             Outcomes &Out);
void runCompile(const RunOptions &O, double Seconds, Tracer &T, Metrics &M,
                Outcomes &Out);

/// The `perc --listen` flags the serve workload pins (for the
/// fingerprint).
std::string serveFlags();

/// The serve workload. With \p Probe set it only sends a short stream at
/// the base rate, for the service/net metrics of the other workloads'
/// traced runs (end-to-end metrics and failures are left alone).
void runServe(const RunOptions &O, double Seconds, Tracer &T, Metrics &M,
              Outcomes &Out, bool Probe = false);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

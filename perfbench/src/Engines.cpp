//===- perfbench/src/Engines.cpp - Staged compile, runs, parity -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bytecode/Compiler.h"
#include "bytecode/VM.h"
#include "eval/Machine.h"
#include "lang/Parser.h"
#include "lang/Resolver.h"
#include "native/Native.h"
#include "programs/Programs.h"
#include "support/Diagnostics.h"

using namespace perfbench;
using namespace perceus;

const std::vector<Fig9Program> &perfbench::fig9Programs() {
  static const std::vector<Fig9Program> Programs = {
      {"rbtree", rbtreeSource(), "bench_rbtree"},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck"},
      {"deriv", derivSource(), "bench_deriv"},
      {"nqueens", nqueensSource(), "bench_nqueens"},
      {"cfold", cfoldSource(), "bench_cfold"},
  };
  return Programs;
}

int64_t perfbench::fig9Reference(const std::string &Name, int64_t N) {
  if (Name == "rbtree" || Name == "rbtree-ck")
    return native::rbtree(N);
  if (Name == "deriv")
    return native::deriv(N);
  if (Name == "nqueens")
    return native::nqueens(N);
  if (Name == "cfold")
    return native::cfold(N);
  return -1;
}

namespace {
std::vector<double> &hostKernelSamples() {
  static std::vector<double> Samples;
  return Samples;
}
} // namespace

void perfbench::sampleHostSpeed(int Times) {
  std::vector<double> &Samples = hostKernelSamples();
  auto kernel = [] {
    volatile int64_t Sink = native::rbtree(7000) + native::rbtree(6000) +
                            native::deriv(20) + native::nqueens(9) +
                            native::cfold(16);
    (void)Sink;
  };
  // The first call warms the allocator and the caches; it is not timed.
  if (Samples.empty())
    kernel();
  for (int K = 0; K != Times; ++K) {
    Clock::time_point T0 = Clock::now();
    kernel();
    Samples.push_back(secondsBetween(T0, Clock::now()));
  }
}

double perfbench::hostKernelSeconds() { return median(hostKernelSamples()); }

StagedCompile perfbench::compileStaged(std::string_view Source, Tracer &T,
                                       uint64_t Request) {
  StagedCompile C;
  C.SourceBytes = Source.size();
  C.Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  ScopedSpan Whole(T, "bench.compile", Request);
  Clock::time_point T0 = Clock::now();
  SModule Mod;
  {
    ScopedSpan S(T, "lang.parse", Request);
    Mod = parseModule(Source, Diags);
  }
  Clock::time_point T1 = Clock::now();
  bool Resolved = false;
  if (!Diags.hasErrors()) {
    ScopedSpan S(T, "lang.resolve", Request);
    Resolved = resolveModule(Mod, *C.Prog, Diags);
  }
  Clock::time_point T2 = Clock::now();
  if (!Resolved) {
    C.Error = Diags.str();
    return C;
  }
  {
    ScopedSpan S(T, "perceus.passes", Request);
    runPipeline(*C.Prog, PassConfig::perceusFull());
  }
  Clock::time_point T3 = Clock::now();
  {
    ScopedSpan S(T, "eval.layout", Request);
    C.Layout.emplace(layoutProgram(*C.Prog));
  }
  Clock::time_point T4 = Clock::now();
  {
    ScopedSpan S(T, "bytecode.compile", Request);
    C.Code.emplace(compileProgram(*C.Prog, *C.Layout));
  }
  Clock::time_point T5 = Clock::now();
  {
    ScopedSpan S(T, "bytecode.peephole", Request);
    C.Peep = runPeephole(*C.Code);
  }
  Clock::time_point T6 = Clock::now();
  {
    ScopedSpan S(T, "perceus.count_ops", Request);
    C.Ops = countIrOps(*C.Prog);
  }
  for (const Chunk &Ch : C.Code->Funcs)
    C.StaticInstrs += Ch.Code.size();
  for (const Chunk &Ch : C.Code->Lams)
    C.StaticInstrs += Ch.Code.size();
  C.ParseS = secondsBetween(T0, T1);
  C.ResolveS = secondsBetween(T1, T2);
  C.PassesS = secondsBetween(T2, T3);
  C.LayoutS = secondsBetween(T3, T4);
  C.CompileS = secondsBetween(T4, T5);
  C.PeepholeS = secondsBetween(T5, T6);
  C.TotalS = secondsBetween(T0, T6);
  C.Ok = true;
  return C;
}

EngineRun perfbench::runStaged(const StagedCompile &C, std::string_view Entry,
                               const std::vector<int64_t> &Args, bool Vm,
                               Tracer &T, uint64_t Request) {
  EngineRun R;
  FuncId F = C.Prog->findFunction(C.Prog->symbols().intern(Entry));
  if (F == InvalidId) {
    R.Run.Error = "no such function: " + std::string(Entry);
    return R;
  }
  std::vector<Value> Vals;
  for (int64_t A : Args)
    Vals.push_back(Value::makeInt(A));
  Heap H(HeapMode::Rc);
  std::unique_ptr<Engine> E;
  if (Vm)
    E = std::make_unique<VM>(*C.Code, H);
  else
    E = std::make_unique<Machine>(*C.Prog, *C.Layout, H);
  {
    ScopedSpan S(T, Vm ? "bytecode.vm_run" : "eval.cek_run", Request);
    Clock::time_point T0 = Clock::now();
    R.Run = E->run(F, std::move(Vals));
    R.Seconds = secondsBetween(T0, Clock::now());
  }
  R.Heap = H.stats();
  R.HeapEmpty = H.empty();
  return R;
}

void perfbench::checkResult(Outcomes &Out, const std::string &What,
                            const EngineRun &E, int64_t Want) {
  if (!E.Run.Ok) {
    Out.fail(What + ": trapped: " + E.Run.Error);
    return;
  }
  Out.check(E.Run.Result.Kind == ValueKind::Int && E.Run.Result.Int == Want,
            What + ": result " + std::to_string(E.Run.Result.Int) +
                " != reference " + std::to_string(Want));
  Out.check(E.HeapEmpty && E.Heap.Allocs == E.Heap.Frees,
            What + ": heap not empty after the run (allocs " +
                std::to_string(E.Heap.Allocs) + ", frees " +
                std::to_string(E.Heap.Frees) + ")");
}

std::string perfbench::parityMismatch(const EngineRun &Cek,
                                      const EngineRun &Vm) {
  std::string Out;
  auto cmp = [&](const char *What, uint64_t A, uint64_t B) {
    if (A != B && Out.empty())
      Out = std::string(What) + " cek=" + std::to_string(A) +
            " vm=" + std::to_string(B);
  };
  const HeapStats &A = Cek.Heap, &B = Vm.Heap;
  cmp("allocs", A.Allocs, B.Allocs);
  cmp("frees", A.Frees, B.Frees);
  cmp("dup_ops", A.DupOps, B.DupOps);
  cmp("drop_ops", A.DropOps, B.DropOps);
  cmp("decref_ops", A.DecRefOps, B.DecRefOps);
  cmp("is_unique_tests", A.IsUniqueTests, B.IsUniqueTests);
  cmp("peak_bytes", A.PeakBytes, B.PeakBytes);
  const RunResult &X = Cek.Run, &Y = Vm.Run;
  cmp("reuse_hits", X.ReuseHits, Y.ReuseHits);
  cmp("reuse_misses", X.ReuseMisses, Y.ReuseMisses);
  cmp("rc.drop_reuses", X.Rc.DropReuses, Y.Rc.DropReuses);
  cmp("rc.is_uniques", X.Rc.IsUniques, Y.Rc.IsUniques);
  // The peephole tier deletes RC instructions on registers it proves
  // immediate, so the VM may execute fewer, never more; and every
  // instruction it deleted is one the CEK heap counted as a no-op.
  const RcInstrCounts &P = X.Rc, &Q = Y.Rc;
  if (Out.empty() &&
      (P.Dups < Q.Dups || P.Drops < Q.Drops || P.DecRefs < Q.DecRefs))
    Out = "vm executed more rc instructions than cek";
  if (Out.empty() && A.NonHeapRcOps >= B.NonHeapRcOps)
    cmp("elided rc instructions vs non-heap rc ops",
        (P.Dups - Q.Dups) + (P.Drops - Q.Drops) + (P.DecRefs - Q.DecRefs),
        A.NonHeapRcOps - B.NonHeapRcOps);
  else if (Out.empty())
    Out = "vm counted more non-heap rc ops than cek";
  return Out;
}

void perfbench::reportEngineLayers(const std::vector<ProgramRuns> &Runs,
                                   Metrics &M) {
  double VmS = 0, CekS = 0;
  uint64_t Dispatches = 0, Steps = 0, Fused = 0, Allocs = 0, Frees = 0,
           Hits = 0, Misses = 0, RcOps = 0, Unique = 0;
  for (const ProgramRuns &R : Runs) {
    M.set("bytecode.vm_s." + R.Name, R.VmSeconds, "s");
    M.set("eval.cek_s." + R.Name, R.CekSeconds, "s");
    M.set("runtime.peak_bytes." + R.Name, double(R.VmHeap.PeakBytes), "B");
    VmS += R.VmSeconds;
    CekS += R.CekSeconds;
    Dispatches += R.Vm.Steps;
    Steps += R.Cek.Steps;
    Fused += R.Vm.Rc.FusedOps;
    Allocs += R.VmHeap.Allocs;
    Frees += R.VmHeap.Frees;
    Hits += R.Vm.ReuseHits;
    Misses += R.Vm.ReuseMisses;
    RcOps += R.VmHeap.DupOps + R.VmHeap.DropOps + R.VmHeap.DecRefOps;
    Unique += R.VmHeap.IsUniqueTests;
  }
  M.set("bytecode.dispatches", double(Dispatches), "count");
  M.set("bytecode.ns_per_dispatch",
        Dispatches ? VmS * 1e9 / double(Dispatches) : 0, "ns");
  M.set("bytecode.fused_ops", double(Fused), "count");
  M.set("eval.cek_steps", double(Steps), "count");
  M.set("eval.ns_per_step", Steps ? CekS * 1e9 / double(Steps) : 0, "ns");
  M.set("runtime.allocs", double(Allocs), "count");
  M.set("runtime.frees", double(Frees), "count");
  M.set("runtime.reuse_hits", double(Hits), "count");
  M.set("runtime.reuse_ratio",
        Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  M.set("runtime.rc_ops", double(RcOps), "count");
  M.set("runtime.is_unique_tests", double(Unique), "count");
}

void perfbench::reportCompileLayers(
    const std::vector<const StagedCompile *> &Set, Metrics &M) {
  double Parse = 0, Resolve = 0, Passes = 0, Layout = 0, Compile = 0,
         Peep = 0;
  uint64_t Bytes = 0, Nodes = 0, RcOps = 0, Instrs = 0, Fused = 0,
           Elided = 0;
  for (const StagedCompile *C : Set) {
    Parse += C->ParseS;
    Resolve += C->ResolveS;
    Passes += C->PassesS;
    Layout += C->LayoutS;
    Compile += C->CompileS;
    Peep += C->PeepholeS;
    Bytes += C->SourceBytes;
    Nodes += C->Ops.Nodes;
    RcOps += C->Ops.rcTotal();
    Instrs += C->StaticInstrs;
    Fused += C->Peep.totalFused();
    Elided += C->Peep.totalElided();
  }
  M.set("lang.parse_ms", Parse * 1e3, "ms");
  M.set("lang.resolve_ms", Resolve * 1e3, "ms");
  M.set("lang.parse_mb_per_s", Parse > 0 ? double(Bytes) / 1e6 / Parse : 0,
        "MB/s");
  M.set("perceus.passes_ms", Passes * 1e3, "ms");
  M.set("perceus.ir_nodes", double(Nodes), "count");
  M.set("perceus.static_rc_ops", double(RcOps), "count");
  M.set("eval.layout_ms", Layout * 1e3, "ms");
  M.set("bytecode.compile_ms", Compile * 1e3, "ms");
  M.set("bytecode.peephole_ms", Peep * 1e3, "ms");
  M.set("bytecode.static_instrs", double(Instrs), "count");
  M.set("bytecode.fused", double(Fused), "count");
  M.set("bytecode.elided", double(Elided), "count");
}

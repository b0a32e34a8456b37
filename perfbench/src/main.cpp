//===- perfbench/src/main.cpp - The benchmark harness ---------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload=fig9|serve|compile --seed=N --seconds=S
///             --trace=0|1 --perc=PATH --serve-file=PATH --out-dir=DIR
///             [--commit=ID] [--corrupt-reference]
///
/// Runs one workload and prints two lines on stdout: a fingerprint and
/// the result (`PERFBENCH_RESULT {...}`: correct, attempted, failed and
/// every metric the workload measured). perfbench/run.py builds this
/// binary, runs it, and prints the metrics BENCHMARK.json names.
///
/// With --trace=1 the workload runs twice, for half the time each:
/// untraced, then traced. The traced pass records spans at every layer
/// boundary, and reports per-layer self times, the tracing overhead on
/// the workload's headline metric, and whether the self times add up to
/// the traced wall time. Spans are written to DIR as JSON lines.
///
//===----------------------------------------------------------------------===//

#include "Util.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Layers a traced run reports self time for (span name prefixes).
const char *const Layers[] = {"bench",    "lang",    "perceus", "eval",
                              "bytecode", "service", "net",     "gen"};

/// Largest allowed gap between the per-layer self times and the traced
/// wall time they partition, as a share of the wall time.
constexpr double ReconcileTolerancePct = 1.0;

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t At = Line.find(':');
      return At == std::string::npos ? Line : Line.substr(At + 2);
    }
  return "unknown";
}

std::string fingerprint(const RunOptions &O, const std::string &Commit) {
  char Host[256] = "unknown";
  ::gethostname(Host, sizeof(Host) - 1);
  return std::string("{\"host\": ") + jsonString(Host) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + jsonString(cpuModel()) +
         ", \"compiler\": " + jsonString(PERFBENCH_CXX) +
         ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + jsonString(Commit) +
         ", \"workload\": " + jsonString(O.Workload) +
         ", \"seed\": " + std::to_string(O.Seed) +
         ", \"seconds\": " + std::to_string(O.Seconds) +
         ", \"trace\": " + (O.Trace ? "true" : "false") +
         ", \"perc_listen_flags\": " + jsonString(serveFlags()) + "}";
}

void runWorkload(const RunOptions &O, double Seconds, Tracer &T, Metrics &M,
                 Outcomes &Out) {
  if (O.Workload == "fig9")
    runFig9(O, Seconds, T, M, Out);
  else if (O.Workload == "compile")
    runCompile(O, Seconds, T, M, Out);
  else
    runServe(O, Seconds, T, M, Out);
}

/// An end-to-end metric read on a reference-speed host (see
/// sampleHostSpeed): a time is multiplied by the speed factor, a rate
/// divided by it. On fig9 and compile every one is single-thread CPU
/// work. On serve only the in-process figures are: its set-up (spawning a
/// process), latencies and max_rps depend on how the host schedules four
/// threads and on loopback networking, which a one-thread kernel does not
/// track, so they stay as measured.
struct ScaledMetric {
  const char *Name;
  const char *Unit;
  bool Rate;
  bool OnServe;
};
const ScaledMetric ScaledMetrics[] = {
    {"setup_s", "s", false, false},      {"vm_run_s", "s", false, true},
    {"cek_run_s", "s", false, true},     {"compile_s", "s", false, true},
    {"p50_ms", "ms", false, false},      {"p99_ms", "ms", false, false},
    {"p99_ms_high", "ms", false, false}, {"max_rps", "req/s", true, false},
};

/// Scales the end-to-end metrics of \p M to the reference host speed,
/// keeping each raw value as `raw.<metric>`.
void scaleToReferenceHost(const std::string &Workload, Metrics &M) {
  double Kernel = hostKernelSeconds();
  if (!(Kernel > 0))
    return;
  double Factor = NominalKernelSeconds / Kernel;
  for (const ScaledMetric &S : ScaledMetrics) {
    if (!M.has(S.Name) || (Workload == "serve" && !S.OnServe))
      continue;
    double Raw = M.get(S.Name);
    M.set(std::string("raw.") + S.Name, Raw, S.Unit);
    M.set(S.Name, S.Rate ? Raw / Factor : Raw * Factor, S.Unit);
  }
  M.set("host.kernel_ms", Kernel * 1e3, "ms");
  M.set("host.speed_factor", Factor, "ratio");
}

/// The metric the tracing overhead is measured on.
double headline(const std::string &Workload, const Metrics &M) {
  if (Workload == "fig9")
    return M.get("vm_run_s") + M.get("cek_run_s");
  if (Workload == "compile")
    return M.get("compile_s");
  return M.get("p50_ms");
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string Commit = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&](const char *Flag, std::string &Out) {
      size_t L = std::strlen(Flag);
      if (A.compare(0, L, Flag) != 0)
        return false;
      Out = A.substr(L);
      return true;
    };
    std::string V;
    if (value("--workload=", O.Workload))
      continue;
    if (value("--seed=", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (value("--seconds=", V))
      O.Seconds = std::atof(V.c_str());
    else if (value("--trace=", V))
      O.Trace = V == "1";
    else if (value("--perc=", O.PercPath) ||
             value("--serve-file=", O.ServeFile) ||
             value("--out-dir=", O.OutDir) || value("--commit=", Commit))
      continue;
    else if (A == "--corrupt-reference")
      O.CorruptReference = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", A.c_str());
      return 2;
    }
  }
  if (O.Workload != "fig9" && O.Workload != "serve" &&
      O.Workload != "compile") {
    std::fprintf(stderr, "perfbench: --workload must be fig9, serve or "
                         "compile\n");
    return 2;
  }
  if (!(O.Seconds > 0) || O.PercPath.empty() || O.ServeFile.empty()) {
    std::fprintf(stderr, "perfbench: need --seconds>0, --perc, --serve-file\n");
    return 2;
  }
  std::printf("PERFBENCH_FINGERPRINT %s\n", fingerprint(O, Commit).c_str());
  std::fflush(stdout);

  Metrics M;
  Outcomes Out;
  if (!O.Trace) {
    Tracer Off(false);
    runWorkload(O, O.Seconds, Off, M, Out);
  } else {
    Metrics Plain;
    Tracer Off(false), On(true);
    runWorkload(O, O.Seconds / 2, Off, Plain, Out);
    runWorkload(O, O.Seconds / 2, On, M, Out);
    if (O.Workload != "serve") {
      // The service and net layers are not on this workload's path; a
      // short fixed probe, traced like the rest, measures them so every
      // layer reports.
      Metrics Probe;
      runServe(O, 1.5, On, Probe, Out, /*Probe=*/true);
      for (const Metrics::Entry &E : Probe.entries())
        if (!M.has(E.Name))
          M.set(E.Name, E.Value, E.Unit);
    }
    double Base = headline(O.Workload, Plain);
    M.set("trace.overhead_pct",
          Base > 0 ? (headline(O.Workload, M) - Base) / Base * 100 : 0, "%");

    std::map<std::string, double> Self = On.layerSelfSeconds();
    double SelfSum = 0, RootSum = 0;
    for (const auto &[Layer, S] : Self)
      SelfSum += S;
    for (const Span &S : On.spans())
      if (S.Parent < 0)
        RootSum += S.End - S.Start;
    for (const char *L : Layers)
      M.set(std::string("trace.self_ms.") + L, Self[L] * 1e3, "ms");
    double ErrPct = RootSum > 0 ? std::fabs(SelfSum - RootSum) / RootSum * 100
                                : 0;
    M.set("trace.reconcile_err_pct", ErrPct, "%");
    M.set("trace.spans", double(On.spans().size()), "count");
    Out.check(ErrPct <= ReconcileTolerancePct,
              "per-layer self times do not add up to the traced time (" +
                  std::to_string(ErrPct) + "% off)");
    if (!O.OutDir.empty()) {
      ::mkdir(O.OutDir.c_str(), 0755);
      std::string Path = O.OutDir + "/spans-" + O.Workload + "-" +
                         std::to_string(O.Seed) + ".jsonl";
      if (!On.dump(Path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      else
        std::fprintf(stderr, "perfbench: %zu spans in %s\n",
                     On.spans().size(), Path.c_str());
    }
  }

  scaleToReferenceHost(O.Workload, M);

  // fail_rate is failed / attempted; the metric is its complement so
  // that it is never 0.
  M.set("ok_rate",
        Out.attempted() ? 1.0 - double(Out.failed()) / double(Out.attempted())
                        : 0,
        "share");
  bool Correct = Out.failed() == 0 && Out.attempted() > 0;
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": %s}\n",
              Correct ? "true" : "false",
              (unsigned long long)Out.attempted(),
              (unsigned long long)Out.failed(), M.json().c_str());
  return Correct ? 0 : 1;
}

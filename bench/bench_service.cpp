//===- bench/bench_service.cpp - Compile-once service vs cold start -------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the long-lived session engine (src/service) buys over a
/// cold-start per request: every request in the cold column constructs a
/// fresh Runner (parse, resolve, Perceus pipeline, layout, and for the
/// VM a bytecode compile), while the service column sends the same
/// requests through one Service whose artifact cache compiles each
/// (source, config, engine) key exactly once and whose pooled worker
/// heaps stay warm between requests.
///
/// Requests are interactive-sized (the Figure 9 programs at the
/// smallest meaningful workloads; --scale multiplies them): a request
/// service amortizes compilation, so the win shows where per-request
/// work does not drown it. Beyond time, every row cross-checks the
/// cold-vs-service and CEK-vs-VM parity of checksums and heap ops — the
/// pooled heaps and cached artifacts must be observably identical to
/// fresh ones — and the report rows carry the "service" telemetry object
/// (status, cache_hit, queue/run latency, retained bytes) the
/// perceus-bench-v1 validator pins.
///
///   bench_service [--scale=X] [--requests=N] [--json=PATH | --no-json]
///
/// Writes BENCH_service.json (config = cold-cek | service-cek | cold-vm
/// | service-vm) and prints per-program speedups plus the geomean.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/Service.h"

#include <chrono>
#include <cmath>

using namespace perceus;
using namespace perceus::bench;

namespace {

uint64_t parseRequests(int Argc, char **Argv, uint64_t Default) {
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--requests=", 11) == 0)
      return std::max(1l, std::atol(Argv[I] + 11));
  return Default;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// The Figure 9 programs at request-service workloads: one request is a
/// small interactive unit of work, not a batch benchmark, so the fixed
/// compile cost is a visible fraction of the cold path.
std::vector<BenchProgram> requestPrograms(double Scale) {
  auto scaled = [&](int64_t Base) {
    return std::max<int64_t>(1, static_cast<int64_t>(Base * Scale));
  };
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", scaled(50), nullptr},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", scaled(20), nullptr},
      {"deriv", derivSource(), "bench_deriv", scaled(4), nullptr},
      {"nqueens", nqueensSource(), "bench_nqueens", scaled(4), nullptr},
      {"cfold", cfoldSource(), "bench_cfold", scaled(6), nullptr},
  };
}

/// N cold-start requests: a fresh Runner (full compile) per request.
/// Seconds is the whole batch; stats come from the last request.
Measurement measureCold(const BenchProgram &Prog, EngineKind Engine,
                        uint64_t Requests) {
  Measurement M;
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != Requests; ++I) {
    Runner R(Prog.Source, PassConfig::perceusFull(),
             EngineConfig{}.withEngine(Engine));
    if (!R.ok())
      return M;
    RunResult Res = R.callInt(Prog.Entry, {Prog.BaseScale});
    if (!Res.Ok)
      return M;
    M.Checksum = Res.Result.Int;
    M.PeakBytes = R.heap().stats().PeakBytes;
    M.Heap = R.heap().stats();
    M.Run = Res;
  }
  M.Ran = true;
  M.Seconds = secondsSince(T0);
  return M;
}

/// The same N requests through one Service session (compile once, warm
/// pooled heap). Seconds includes the first request's compile — that is
/// the amortization being measured.
Measurement measureService(Service &S, const BenchProgram &Prog,
                           EngineKind Engine, uint64_t Requests) {
  Measurement M;
  Session Sess(S, Prog.Source, PassConfig::perceusFull(), Engine);
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != Requests; ++I) {
    ServiceResponse Resp =
        Sess.call(Prog.Entry, {Value::makeInt(Prog.BaseScale)});
    if (!Resp.Executed || !Resp.Run.Ok)
      return M;
    M.Checksum = Resp.Run.Result.Int;
    M.PeakBytes = Resp.Heap.PeakBytes;
    M.Heap = Resp.Heap;
    M.Run = Resp.Run;
    M.Svc.Present = true;
    M.Svc.Status = rejectKindName(Resp.Reject);
    M.Svc.Executed = Resp.Executed;
    M.Svc.CacheHit = Resp.CacheHit;
    M.Svc.HeapEmpty = Resp.HeapEmpty;
    M.Svc.Worker = Resp.Worker;
    M.Svc.QueueMs = Resp.QueueSeconds * 1e3;
    M.Svc.RunMs = Resp.RunSeconds * 1e3;
    M.Svc.RetainedBytes = Resp.RetainedBytes;
  }
  M.Ran = true;
  M.Seconds = secondsSince(T0);
  return M;
}

bool statsMatch(const char *Prog, const char *What, const Measurement &A,
                const Measurement &B) {
  auto check = [&](const char *Field, uint64_t X, uint64_t Y) {
    if (X == Y)
      return true;
    std::fprintf(stderr, "%s: %s diverge (%s): %llu vs %llu\n", Prog, Field,
                 What, (unsigned long long)X, (unsigned long long)Y);
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
  checkFlags(Argc, Argv, {"--scale=X", "--requests=N", "--json=PATH",
                          "--no-json"});
  double Scale = parseScale(Argc, Argv, 1.0);
  uint64_t Requests = parseRequests(Argc, Argv, 50);
  std::string JsonPath = parseJsonPath("service", Argc, Argv);
  std::vector<BenchProgram> Programs = requestPrograms(Scale);
  BenchReport Report("service", Scale);

  std::printf("Request service vs cold start (perceus config, "
              "--scale=%.2f, %llu requests per cell)\n\n",
              Scale, (unsigned long long)Requests);
  std::printf("%-12s %-6s %12s %12s %10s\n", "benchmark", "engine",
              "cold [s]", "service [s]", "speedup");

  double LogSum = 0;
  size_t N = 0;
  bool Parity = true;
  Service S(ServiceConfig{});
  for (const BenchProgram &P : Programs) {
    for (EngineKind Engine : {EngineKind::Cek, EngineKind::Vm}) {
      const char *EngName = engineKindName(Engine);
      Measurement Cold = measureCold(P, Engine, Requests);
      Measurement Svc = measureService(S, P, Engine, Requests);
      if (!Cold.Ran || !Svc.Ran) {
        std::fprintf(stderr, "%s (%s) failed to run\n", P.Name, EngName);
        return 1;
      }
      Parity = statsMatch(P.Name, "cold vs service", Cold, Svc) && Parity;
      Report.add(P.Name, std::string("cold-") + EngName, Cold);
      Report.add(P.Name, std::string("service-") + EngName, Svc);
      double Speedup = Cold.Seconds / Svc.Seconds;
      LogSum += std::log(Speedup);
      ++N;
      std::printf("%-12s %-6s %12.4f %12.4f %9.2fx\n", P.Name, EngName,
                  Cold.Seconds, Svc.Seconds, Speedup);
    }
  }
  double Geomean = std::exp(LogSum / double(N));
  std::printf("%-12s %-6s %12s %12s %9.2fx  (geomean)\n", "", "", "", "",
              Geomean);

  ServiceStats ST = S.stats();
  std::printf("\nservice: executed=%llu cache-hits=%llu compiles=%llu "
              "trimmed=%lluB\n",
              (unsigned long long)ST.Executed,
              (unsigned long long)ST.CacheHits,
              (unsigned long long)ST.CacheCompiles,
              (unsigned long long)ST.TrimmedBytes);
  // Every request after each key's first must hit the artifact cache.
  if (ST.CacheHits < ST.Executed - ST.CacheCompiles) {
    std::fprintf(stderr, "artifact cache underperformed: %llu hits for "
                         "%llu requests over %llu keys\n",
                 (unsigned long long)ST.CacheHits,
                 (unsigned long long)ST.Executed,
                 (unsigned long long)ST.CacheCompiles);
    return 1;
  }

  if (!Parity) {
    std::fprintf(stderr, "\ncold/service parity violated — see above\n");
    return 1;
  }

  std::string SchemaErr = validateBenchJson(Report.json());
  if (!SchemaErr.empty()) {
    std::fprintf(stderr, "BENCH_service.json schema violation: %s\n",
                 SchemaErr.c_str());
    return 1;
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

//===- bench/Common.cpp - Shared benchmark harness helpers ---------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/StatsJson.h"
#include "native/Native.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace perceus;
using namespace perceus::bench;

std::vector<BenchProgram> perceus::bench::figure9Programs(double Scale) {
  auto scaled = [&](int64_t Base) {
    return std::max<int64_t>(1, static_cast<int64_t>(Base * Scale));
  };
  // nqueens and cfold scale with problem size, not iteration count;
  // bump them by steps instead of multiplying.
  int64_t NQ = 8, CF = 14, DV = 12;
  if (Scale >= 4) {
    NQ = 10;
    CF = 17;
    DV = 18;
  } else if (Scale >= 2) {
    NQ = 9;
    CF = 16;
    DV = 15;
  } else if (Scale < 1) {
    NQ = 6;
    CF = 10;
    DV = 8;
  }
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", scaled(100000),
       native::rbtree},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", scaled(20000),
       nullptr /* no C++ version, as in the paper */},
      {"deriv", derivSource(), "bench_deriv", DV, native::deriv},
      {"nqueens", nqueensSource(), "bench_nqueens", NQ, native::nqueens},
      {"cfold", cfoldSource(), "bench_cfold", CF, native::cfold},
  };
}

Measurement perceus::bench::measure(const BenchProgram &Prog,
                                    const PassConfig &Config,
                                    const EngineConfig &EC) {
  Measurement M;
  Runner R(Prog.Source, Config, EC);
  if (!R.ok())
    return M;
  auto T0 = std::chrono::steady_clock::now();
  RunResult Res = R.callInt(Prog.Entry, {Prog.BaseScale});
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

Measurement perceus::bench::measure(const BenchProgram &Prog,
                                    const PassConfig &Config,
                                    StatsSink *Sink) {
  return measure(Prog, Config, EngineConfig{}.withSink(Sink));
}

Measurement perceus::bench::measureNative(const BenchProgram &Prog) {
  Measurement M;
  if (!Prog.Native)
    return M;
  auto T0 = std::chrono::steady_clock::now();
  int64_t Result = Prog.Native(Prog.BaseScale);
  auto T1 = std::chrono::steady_clock::now();
  M.Ran = true;
  M.Seconds = std::chrono::duration<double>(T1 - T0).count();
  M.Checksum = Result;
  return M;
}

void perceus::bench::printRelativeTable(
    const char *Title, const char *Unit,
    const std::vector<std::string> &RowNames,
    const std::vector<std::string> &ColNames,
    const std::vector<std::vector<double>> &Values) {
  std::printf("\n%s (relative to %s = 1.00; lower is better; x = not "
              "available; absolute %s in brackets)\n",
              Title, RowNames.empty() ? "?" : RowNames[0].c_str(), Unit);
  std::printf("%-14s", "");
  for (const std::string &C : ColNames)
    std::printf(" %20s", C.c_str());
  std::printf("\n");
  for (size_t R = 0; R != RowNames.size(); ++R) {
    std::printf("%-14s", RowNames[R].c_str());
    for (size_t C = 0; C != ColNames.size(); ++C) {
      double Base = Values[0][C];
      double V = Values[R][C];
      if (V < 0 || Base <= 0) {
        std::printf(" %20s", "x");
        continue;
      }
      char Buf[64];
      if (Unit[0] == 's') // seconds
        std::snprintf(Buf, sizeof(Buf), "%.2f [%.3fs]", V / Base, V);
      else // bytes
        std::snprintf(Buf, sizeof(Buf), "%.2f [%.1fMB]", V / Base,
                      V / 1048576.0);
      std::printf(" %20s", Buf);
    }
    std::printf("\n");
  }
}

void perceus::bench::checkFlags(int Argc, char **Argv,
                                std::initializer_list<const char *> Flags) {
  auto accepts = [](std::string_view Flag, std::string_view Arg) {
    size_t Eq = Flag.find('=');
    if (Eq != std::string_view::npos)
      return Arg.substr(0, Eq + 1) == Flag.substr(0, Eq + 1);
    if (!Flag.empty() && Flag.back() == '*')
      return Arg.substr(0, Flag.size() - 1) == Flag.substr(0, Flag.size() - 1);
    return Arg == Flag;
  };
  auto usage = [&](std::FILE *Out) {
    const char *Name = std::strrchr(Argv[0], '/');
    std::fprintf(Out, "usage: %s", Name ? Name + 1 : Argv[0]);
    for (const char *Flag : Flags)
      std::fprintf(Out, " [%s]", Flag);
    std::fprintf(Out, " [--help]\n");
  };
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--help") {
      usage(stdout);
      std::exit(0);
    }
    bool Known = false;
    for (const char *Flag : Flags)
      Known = Known || accepts(Flag, Arg);
    if (!Known) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", Argv[0], Argv[I]);
      usage(stderr);
      std::exit(2);
    }
  }
}

double perceus::bench::parseScale(int Argc, char **Argv, double Default) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      return std::atof(Argv[I] + 8);
  }
  return Default;
}

EngineKind perceus::bench::parseEngine(int Argc, char **Argv,
                                       EngineKind Default) {
  EngineKind K = Default;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--engine=", 9) == 0 &&
        !parseEngineKind(Argv[I] + 9, K)) {
      std::fprintf(stderr, "bench: unknown engine '%s' (cek or vm)\n",
                   Argv[I] + 9);
      std::exit(2);
    }
  }
  return K;
}

namespace {

/// First line of \p Cmd's stdout, without the newline ("" on failure).
std::string firstLineOf(const std::string &Cmd) {
  std::FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return std::string();
  char Buf[256] = {};
  std::string Line = std::fgets(Buf, sizeof(Buf), P) ? Buf : "";
  pclose(P);
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string gitCommit() {
#ifdef PERCEUS_REPO_ROOT
  std::string Git = std::string("git -C '") + PERCEUS_REPO_ROOT + "' ";
  std::string Head = firstLineOf(Git + "rev-parse HEAD 2>/dev/null");
  if (Head.empty())
    return "unknown";
  bool Dirty = !firstLineOf(Git + "status --porcelain --untracked-files=no "
                                  "2>/dev/null")
                    .empty();
  return Dirty ? Head + "-dirty" : Head;
#else
  return "unknown";
#endif
}

} // namespace

const Fingerprint &perceus::bench::hostFingerprint() {
  static const Fingerprint FP = [] {
    Fingerprint F;
    char Host[256] = {};
    F.Host = gethostname(Host, sizeof(Host) - 1) == 0 ? Host : "unknown";
    F.Nproc = std::thread::hardware_concurrency();
    F.CpuModel = cpuModel();
#ifdef PERCEUS_COMPILER
    F.Compiler = PERCEUS_COMPILER;
#else
    F.Compiler = "unknown";
#endif
#ifdef PERCEUS_BUILD_TYPE
    F.BuildType = PERCEUS_BUILD_TYPE;
#else
    F.BuildType = "unknown";
#endif
    F.Commit = gitCommit();
    return F;
  }();
  return FP;
}

BenchReport::BenchReport(std::string Bench, double Scale)
    : Bench(std::move(Bench)), Scale(Scale) {}

void BenchReport::add(std::string Benchmark, std::string Config,
                      const Measurement &M) {
  Rows.push_back({std::move(Benchmark), std::move(Config), M});
}

std::string BenchReport::json() const {
  JsonWriter W;
  W.beginObject()
      .member("schema", "perceus-bench-v1")
      .member("bench", std::string_view(Bench))
      .member("scale", Scale);
  const Fingerprint &FP = hostFingerprint();
  W.key("fingerprint")
      .beginObject()
      .member("host", std::string_view(FP.Host))
      .member("nproc", FP.Nproc)
      .member("cpu_model", std::string_view(FP.CpuModel))
      .member("compiler", std::string_view(FP.Compiler))
      .member("build_type", std::string_view(FP.BuildType))
      .member("commit", std::string_view(FP.Commit))
      .endObject();
  W.key("results").beginArray();
  for (const Row &R : Rows) {
    W.beginObject()
        .member("benchmark", std::string_view(R.Benchmark))
        .member("config", std::string_view(R.Config))
        .member("ok", R.M.Ran)
        .member("seconds", R.M.Seconds)
        .member("checksum", R.M.Checksum)
        .member("peak_bytes", R.M.PeakBytes);
    W.key("heap");
    writeHeapStatsJson(W, R.M.Heap);
    W.key("run");
    writeRunResultJson(W, R.M.Run);
    if (R.M.Svc.Present) {
      W.key("service")
          .beginObject()
          .member("status", std::string_view(R.M.Svc.Status))
          .member("tenant", std::string_view(R.M.Svc.Tenant))
          .member("executed", R.M.Svc.Executed)
          .member("cache_hit", R.M.Svc.CacheHit)
          .member("worker", R.M.Svc.Worker)
          .member("queue_ms", R.M.Svc.QueueMs)
          .member("run_ms", R.M.Svc.RunMs)
          .member("retry_after_ms", R.M.Svc.RetryAfterMs)
          .member("retained_bytes", R.M.Svc.RetainedBytes)
          .member("heap_empty", R.M.Svc.HeapEmpty)
          .endObject();
    }
    if (R.M.Shard.Present) {
      W.key("shard")
          .beginObject()
          .member("shard", R.M.Shard.Shard)
          .member("requests", R.M.Shard.Requests)
          .member("executed", R.M.Shard.Executed)
          .member("cache_hits", R.M.Shard.CacheHits)
          .member("cache_compiles", R.M.Shard.CacheCompiles)
          .member("cache_evictions", R.M.Shard.CacheEvictions)
          .member("sheds", R.M.Shard.Sheds)
          .member("qps", R.M.Shard.Qps)
          .endObject();
    }
    if (R.M.Ov.Present) {
      W.key("overload")
          .beginObject()
          .member("tenant", std::string_view(R.M.Ov.Tenant))
          .member("abusive", R.M.Ov.Abusive)
          .member("requests", R.M.Ov.Requests)
          .member("executed", R.M.Ov.Executed)
          .member("shed", R.M.Ov.Shed)
          .member("rejected_rate_limited", R.M.Ov.RejectedRateLimited)
          .member("rejected_tenant_quota", R.M.Ov.RejectedTenantQuota)
          .member("rejected_queue_full", R.M.Ov.RejectedQueueFull)
          .member("rejected_circuit_open", R.M.Ov.RejectedCircuitOpen)
          .member("shed_rate", R.M.Ov.ShedRate)
          .member("p50_ms", R.M.Ov.P50Ms)
          .member("p99_ms", R.M.Ov.P99Ms)
          .member("mean_ms", R.M.Ov.MeanMs)
          .member("retained_peak_bytes", R.M.Ov.RetainedPeakBytes)
          .endObject();
    }
    W.endObject();
  }
  W.endArray().endObject();
  return W.take();
}

std::string BenchReport::defaultPath(const std::string &Bench) {
#ifdef PERCEUS_REPO_ROOT
  return std::string(PERCEUS_REPO_ROOT) + "/BENCH_" + Bench + ".json";
#else
  return "BENCH_" + Bench + ".json";
#endif
}

bool BenchReport::write(const std::string &Path) const {
  std::string Out = Path.empty() ? defaultPath(Bench) : Path;
  std::string Text = json();
  std::FILE *F = std::fopen(Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "bench: cannot write '%s'\n", Out.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
  std::printf("\nwrote %s\n", Out.c_str());
  return true;
}

std::string perceus::bench::parseJsonPath(const char *Bench, int Argc,
                                          char **Argv) {
  std::string Path = BenchReport::defaultPath(Bench);
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--no-json") == 0)
      return std::string();
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      Path = Argv[I] + 7;
  }
  return Path;
}

namespace {

/// Checks that \p Obj has a member \p Key of kind \p K; appends to Err.
bool requireKey(const JsonValue &Obj, const char *Key, JsonValue::Kind K,
                const char *Where, std::string &Err) {
  if (Obj.find(Key, K))
    return true;
  Err = std::string("missing or mistyped '") + Key + "' in " + Where;
  return false;
}

/// The closed set of trap names both schemas may carry; a typo'd or
/// unknown kind must be diagnosed, not silently accepted downstream.
bool knownTrapName(std::string_view Name) {
  for (const char *K : {"ok", "out-of-memory", "out-of-fuel",
                        "stack-overflow", "runtime-error", "deadline"})
    if (Name == K)
      return true;
  return false;
}

/// The closed set of admission outcomes a 'service' object may report —
/// the rejectKindName() vocabulary. Extending RejectKind requires
/// extending this list (and telemetry_test pins both directions).
bool knownServiceStatus(std::string_view Name) {
  for (const char *K : {"ok", "queue-full", "shedding", "compile-error",
                        "rate-limited", "tenant-quota", "circuit-open",
                        "bad-request"})
    if (Name == K)
      return true;
  return false;
}

} // namespace

std::string perceus::bench::validateBenchJson(std::string_view Text) {
  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Text, &Err);
  if (!Doc)
    return "parse error: " + Err;
  using K = JsonValue::Kind;
  if (!Doc->isObject())
    return "top level is not an object";
  const JsonValue *Schema = Doc->find("schema", K::String);
  if (!Schema || Schema->Str != "perceus-bench-v1")
    return "missing or unknown 'schema' (want perceus-bench-v1)";
  if (!requireKey(*Doc, "bench", K::String, "document", Err) ||
      !requireKey(*Doc, "scale", K::Number, "document", Err))
    return Err;
  // Absolute numbers mean nothing without where they were measured.
  const JsonValue *FP = Doc->find("fingerprint", K::Object);
  if (!FP)
    return "missing or mistyped 'fingerprint'";
  for (const char *Key :
       {"host", "cpu_model", "compiler", "build_type", "commit"}) {
    if (!requireKey(*FP, Key, K::String, "fingerprint", Err))
      return Err;
    if (FP->find(Key, K::String)->Str.empty())
      return std::string("empty '") + Key + "' in fingerprint";
  }
  if (!requireKey(*FP, "nproc", K::Number, "fingerprint", Err))
    return Err;
  const JsonValue *Results = Doc->find("results", K::Array);
  if (!Results)
    return "missing or mistyped 'results'";
  if (Results->Items.empty())
    return "'results' is empty";
  static const char *HeapKeys[] = {
      "allocs",          "frees",         "dup_ops",
      "drop_ops",        "decref_ops",    "non_heap_rc_ops",
      "atomic_rc_ops",   "coalesced_rc_ops", "is_unique_tests",
      "live_bytes",      "peak_bytes",    "live_cells"};
  static const char *RunKeys[] = {"steps",      "reuse_hits",
                                  "reuse_misses", "tail_calls",
                                  "max_stack_depth", "max_call_depth",
                                  "max_locals_slots", "unwound_cells"};
  static const char *RcKeys[] = {"dups",       "drops",         "frees",
                                 "decrefs",    "is_uniques",
                                 "drop_reuses", "implicit_dups",
                                 "implicit_drops", "implicit_decrefs"};
  for (const JsonValue &R : Results->Items) {
    if (!R.isObject())
      return "result row is not an object";
    if (!requireKey(R, "benchmark", K::String, "result", Err) ||
        !requireKey(R, "config", K::String, "result", Err) ||
        !requireKey(R, "ok", K::Bool, "result", Err) ||
        !requireKey(R, "seconds", K::Number, "result", Err) ||
        !requireKey(R, "checksum", K::Number, "result", Err) ||
        !requireKey(R, "peak_bytes", K::Number, "result", Err))
      return Err;
    const JsonValue *Heap = R.find("heap", K::Object);
    if (!Heap)
      return "missing or mistyped 'heap' in result";
    for (const char *Key : HeapKeys)
      if (!requireKey(*Heap, Key, K::Number, "heap", Err))
        return Err;
    const JsonValue *Run = R.find("run", K::Object);
    if (!Run)
      return "missing or mistyped 'run' in result";
    if (!requireKey(*Run, "ok", K::Bool, "run", Err) ||
        !requireKey(*Run, "trap", K::String, "run", Err))
      return Err;
    if (!knownTrapName(Run->find("trap", K::String)->Str))
      return "unknown trap kind '" + Run->find("trap", K::String)->Str +
             "' in run";
    // Service-mode rows (bench_service) carry an optional admission /
    // latency object; when present its shape is pinned too.
    if (const JsonValue *Svc = R.find("service", K::Object)) {
      if (!requireKey(*Svc, "status", K::String, "service", Err) ||
          !requireKey(*Svc, "executed", K::Bool, "service", Err) ||
          !requireKey(*Svc, "cache_hit", K::Bool, "service", Err) ||
          !requireKey(*Svc, "worker", K::Number, "service", Err) ||
          !requireKey(*Svc, "queue_ms", K::Number, "service", Err) ||
          !requireKey(*Svc, "run_ms", K::Number, "service", Err) ||
          !requireKey(*Svc, "retained_bytes", K::Number, "service", Err) ||
          !requireKey(*Svc, "heap_empty", K::Bool, "service", Err))
        return Err;
      if (!knownServiceStatus(Svc->find("status", K::String)->Str))
        return "unknown service status '" +
               Svc->find("status", K::String)->Str + "'";
      // Multi-tenant fields: optional for back-compat with pre-tenancy
      // documents, type-pinned when present.
      if (Svc->find("tenant") && !Svc->find("tenant", K::String))
        return "mistyped 'tenant' in service";
      if (Svc->find("retry_after_ms") &&
          !Svc->find("retry_after_ms", K::Number))
        return "mistyped 'retry_after_ms' in service";
    }
    // Sharded-front-end rows (bench_net) carry one per-shard isolation
    // object each; when present its shape is pinned too.
    if (const JsonValue *Sh = R.find("shard", K::Object)) {
      if (!requireKey(*Sh, "shard", K::Number, "shard", Err) ||
          !requireKey(*Sh, "requests", K::Number, "shard", Err) ||
          !requireKey(*Sh, "executed", K::Number, "shard", Err) ||
          !requireKey(*Sh, "cache_hits", K::Number, "shard", Err) ||
          !requireKey(*Sh, "cache_compiles", K::Number, "shard", Err) ||
          !requireKey(*Sh, "cache_evictions", K::Number, "shard", Err) ||
          !requireKey(*Sh, "sheds", K::Number, "shard", Err) ||
          !requireKey(*Sh, "qps", K::Number, "shard", Err))
        return Err;
    }
    // Overload-mix rows (bench_overload) carry per-tenant open-loop
    // latency/shedding telemetry; when present its shape is pinned too.
    if (const JsonValue *Ov = R.find("overload", K::Object)) {
      if (!requireKey(*Ov, "tenant", K::String, "overload", Err) ||
          !requireKey(*Ov, "abusive", K::Bool, "overload", Err) ||
          !requireKey(*Ov, "requests", K::Number, "overload", Err) ||
          !requireKey(*Ov, "executed", K::Number, "overload", Err) ||
          !requireKey(*Ov, "shed", K::Number, "overload", Err) ||
          !requireKey(*Ov, "rejected_rate_limited", K::Number, "overload",
                      Err) ||
          !requireKey(*Ov, "rejected_tenant_quota", K::Number, "overload",
                      Err) ||
          !requireKey(*Ov, "rejected_queue_full", K::Number, "overload",
                      Err) ||
          !requireKey(*Ov, "rejected_circuit_open", K::Number, "overload",
                      Err) ||
          !requireKey(*Ov, "shed_rate", K::Number, "overload", Err) ||
          !requireKey(*Ov, "p50_ms", K::Number, "overload", Err) ||
          !requireKey(*Ov, "p99_ms", K::Number, "overload", Err) ||
          !requireKey(*Ov, "mean_ms", K::Number, "overload", Err) ||
          !requireKey(*Ov, "retained_peak_bytes", K::Number, "overload",
                      Err))
        return Err;
    }
    for (const char *Key : RunKeys)
      if (!requireKey(*Run, Key, K::Number, "run", Err))
        return Err;
    const JsonValue *Rc = Run->find("rc_instrs", K::Object);
    if (!Rc)
      return "missing or mistyped 'rc_instrs' in run";
    for (const char *Key : RcKeys)
      if (!requireKey(*Rc, Key, K::Number, "rc_instrs", Err))
        return Err;
  }
  return std::string();
}

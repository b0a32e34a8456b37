//===- tests/bytecode/vm_test.cpp - VM step accounting -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the bytecode VM's engine-specific counters (Steps, TailCalls,
/// MaxCallDepth, MaxLocalsSlots) on msort and rbtree, for both the raw
/// VM and the peephole VM, and the contract of its single per-dispatch
/// step bound: fuel f runs exactly f dispatches and traps on dispatch
/// f + 1 with an empty heap, and an armed safepoint cadence (a deadline,
/// or shared-count coalescing) never moves the count. The CEK machine's
/// counterpart is MachineCounters in tests/eval/machine_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

using namespace perceus;

namespace {

std::string exampleSource(const char *Name) {
  std::ifstream In(std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + Name +
                   ".perc");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct VmCounters {
  uint64_t Steps, TailCalls, MaxCallDepth, MaxLocalsSlots;
  bool operator==(const VmCounters &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const VmCounters &C) {
  return OS << "{" << C.Steps << ", " << C.TailCalls << ", "
            << C.MaxCallDepth << ", " << C.MaxLocalsSlots << "}";
}

VmCounters countersOf(const RunResult &R) {
  return {R.Steps, R.TailCalls, R.MaxCallDepth, R.MaxLocalsSlots};
}

/// One program at one size, with its counters on the raw and the
/// peephole VM under the full Perceus configuration.
struct VmCase {
  const char *Name;
  int64_t N;
  VmCounters Raw, Peephole;
};

/// Small sizes: the fuel sweep below runs every fuel level.
const VmCase SmallCases[] = {
    {"msort", 24, {5890, 48, 26, 242}, {3988, 48, 26, 242}},
    {"rbtree", 20, {5117, 83, 8, 189}, {2774, 83, 8, 189}},
};

/// Past several flushes of the safepoint cadence (every
/// DeadlineCheckInterval * SharedFlushSafepointStride dispatches).
const VmCase LargeCases[] = {
    {"msort", 300, {117342, 600, 302, 3161}, {77844, 600, 302, 3161}},
    {"rbtree", 3000, {2382969, 22836, 22, 539}, {1224429, 22836, 22, 539}},
};

Runner makeRunner(const std::string &Source, bool Peephole) {
  return Runner(Source, PassConfig::perceusFull(),
                EngineConfig{}.withEngine(EngineKind::Vm).withPeephole(
                    Peephole));
}

TEST(VmCounters, PinnedOnMsortAndRbtree) {
  for (const auto *Cases : {&SmallCases, &LargeCases})
    for (const VmCase &C : *Cases) {
      std::string Source = exampleSource(C.Name);
      for (bool Peephole : {false, true}) {
        Runner R = makeRunner(Source, Peephole);
        ASSERT_TRUE(R.ok()) << C.Name << ": " << R.diagnostics().str();
        RunResult Res = R.callInt("main", {C.N});
        ASSERT_TRUE(Res.Ok) << C.Name << ": " << Res.Error;
        EXPECT_EQ(countersOf(Res), Peephole ? C.Peephole : C.Raw)
            << C.Name << " " << C.N << (Peephole ? " peephole" : " raw");
        EXPECT_TRUE(R.heapIsEmpty()) << C.Name;
      }
    }
}

TEST(VmCounters, FuelTrapLandsOnTheCountedDispatch) {
  // Every fuel level below the run's Steps: the trap fires on dispatch
  // f + 1 wherever it falls, and the unwind leaves the heap empty. A far
  // deadline arms the safepoint cadence, which must not move the trap.
  for (const VmCase &C : SmallCases) {
    std::string Source = exampleSource(C.Name);
    for (bool Peephole : {false, true}) {
      for (bool Deadline : {false, true}) {
        SCOPED_TRACE(std::string(C.Name) + (Peephole ? " peephole" : " raw") +
                     (Deadline ? " deadline" : ""));
        Runner R = makeRunner(Source, Peephole);
        ASSERT_TRUE(R.ok()) << R.diagnostics().str();
        if (Deadline)
          R.engine().setDeadline(3600 * 1000);
        const uint64_t Steps = (Peephole ? C.Peephole : C.Raw).Steps;
        for (uint64_t Fuel = 1; Fuel < Steps; ++Fuel) {
          R.engine().setStepLimit(Fuel);
          RunResult Res = R.callInt("main", {C.N});
          ASSERT_FALSE(Res.Ok) << "fuel " << Fuel;
          ASSERT_EQ(Res.Trap, TrapKind::OutOfFuel) << "fuel " << Fuel;
          ASSERT_EQ(Res.Steps, Fuel + 1);
          ASSERT_TRUE(R.heapIsEmpty()) << "fuel " << Fuel;
        }
        // Exactly enough fuel: the run completes, counted as without.
        R.engine().setStepLimit(Steps);
        RunResult Res = R.callInt("main", {C.N});
        ASSERT_TRUE(Res.Ok) << Res.Error;
        EXPECT_EQ(countersOf(Res), Peephole ? C.Peephole : C.Raw);
        EXPECT_TRUE(R.heapIsEmpty());
      }
    }
  }
}

TEST(VmCounters, SafepointsDoNotMoveTheStepCount) {
  // A far deadline or shared-count coalescing puts every run through
  // the safepoint cadence (and, with coalescing, the periodic flushes);
  // neither may change what is counted.
  for (const VmCase &C : LargeCases) {
    std::string Source = exampleSource(C.Name);
    for (bool Peephole : {false, true}) {
      const VmCounters Want = Peephole ? C.Peephole : C.Raw;
      const char *Tier = Peephole ? " peephole" : " raw";

      Runner WithDeadline = makeRunner(Source, Peephole);
      WithDeadline.engine().setDeadline(3600 * 1000);
      RunResult D = WithDeadline.callInt("main", {C.N});
      ASSERT_TRUE(D.Ok) << C.Name << ": " << D.Error;
      EXPECT_EQ(countersOf(D), Want) << C.Name << Tier << " deadline";

      Runner Coalescing = makeRunner(Source, Peephole);
      Coalescing.heap().enableSharedCoalescing();
      RunResult S = Coalescing.callInt("main", {C.N});
      ASSERT_TRUE(S.Ok) << C.Name << ": " << S.Error;
      EXPECT_EQ(countersOf(S), Want) << C.Name << Tier << " coalescing";
      EXPECT_TRUE(Coalescing.heapIsEmpty()) << C.Name << Tier;
    }
  }
}

} // namespace

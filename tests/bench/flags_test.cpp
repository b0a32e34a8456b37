//===- tests/bench/flags_test.cpp - Bench drivers reject bad flags -------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench driver checks its whole command line before it measures
/// or writes anything: an unknown flag prints the usage line and exits
/// 2, `--help` prints it and exits 0, and neither writes a JSON report.
/// A driver that ignored such a flag would run its full measurement and
/// overwrite its report (by default the committed BENCH_<name>.json).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#ifdef _WIN32
#error "this test drives the drivers through POSIX wait status macros"
#endif
#include <sys/wait.h>

namespace {

const char *const Drivers[] = {
    "bench_borrow",   "bench_fbip",     "bench_fig11", "bench_fig1_map",
    "bench_fig9",     "bench_governor", "bench_net",   "bench_overload",
    "bench_parallel", "bench_rcops",    "bench_reuse", "bench_service",
    "bench_vm"};

/// Runs \p Driver with \p Args and an explicit report path, output
/// discarded; returns the exit code.
int runDriver(const std::string &Driver, const std::string &Args,
              const std::string &JsonPath) {
  std::string Cmd = std::string(PERCEUS_BENCH_DIR) + "/" + Driver + " " +
                    Args + " --json=" + JsonPath + " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string reportPath(const char *Driver) {
  return testing::TempDir() + Driver + "-" + std::to_string(getpid()) +
         ".json";
}

bool exists(const std::string &Path) {
  return access(Path.c_str(), F_OK) == 0;
}

TEST(BenchFlags, UnknownFlagExitsTwoAndWritesNoReport) {
  for (const char *D : Drivers) {
    std::string Json = reportPath(D);
    std::remove(Json.c_str());
    EXPECT_EQ(runDriver(D, "--bogus", Json), 2) << D;
    EXPECT_FALSE(exists(Json)) << D;
    // A positional argument is unknown too, as is a known flag's name
    // without its value.
    EXPECT_EQ(runDriver(D, "extra", Json), 2) << D;
    EXPECT_FALSE(exists(Json)) << D;
  }
  EXPECT_EQ(runDriver("bench_vm", "--reps", reportPath("bench_vm")), 2);
  EXPECT_FALSE(exists(reportPath("bench_vm")));
}

TEST(BenchFlags, HelpExitsZeroAndWritesNoReport) {
  for (const char *D : Drivers) {
    std::string Json = reportPath(D);
    std::remove(Json.c_str());
    EXPECT_EQ(runDriver(D, "--help", Json), 0) << D;
    EXPECT_FALSE(exists(Json)) << D;
  }
}

} // namespace

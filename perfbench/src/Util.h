//===- perfbench/src/Util.h - Shared benchmark plumbing ---------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded random numbers, order statistics, the metric table a
/// workload fills in, and the failure log every output check writes to.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two clock readings.
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Seconds since a process-wide epoch (the first call); the time base
/// of every trace span.
double now();

/// splitmix64: small, seedable, and identical on every platform, so a
/// seed names the same inputs everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);
  /// Exponential with the given mean.
  double exponential(double Mean);

private:
  uint64_t State;
};

/// Quantile \p Q in [0, 1] of \p V by linear interpolation between
/// closest ranks (the "type 7" estimator); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// The metrics one run reports, in insertion order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const;
  double get(const std::string &Name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  const std::vector<Entry> &entries() const { return Entries; }

  /// Every metric of \p Runs (all with the same names), as the median
  /// across them.
  static Metrics medianOf(const std::vector<Metrics> &Runs);

private:
  std::vector<Entry> Entries;
};

/// Output checks: every job is attempted, every mismatch is a failure
/// with a message (the first few are printed on stderr).
class Outcomes {
public:
  void pass() { ++Attempted; }
  void fail(const std::string &Why);
  /// Records one check: passes when \p Ok, else fails with \p Why.
  void check(bool Ok, const std::string &Why) {
    if (Ok)
      pass();
    else
      fail(Why);
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Settings shared by every workload.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Negative control: corrupt one independent reference so the run
  /// must fail (`--corrupt-reference`).
  bool CorruptReference = false;
  std::string PercPath;  ///< the `perc` binary the serve workload runs
  std::string ServeFile; ///< the program it serves
  std::string OutDir;    ///< where span dumps go
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H

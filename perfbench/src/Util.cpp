//===- perfbench/src/Util.cpp - Shared benchmark plumbing -----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

double perfbench::now() {
  static const Clock::time_point Epoch = Clock::now();
  return secondsBetween(Epoch, Clock::now());
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double Rng::uniform() { return double(next() >> 11) * 0x1.0p-53; }

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
}

double Rng::exponential(double Mean) {
  return -Mean * std::log(1.0 - uniform());
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (Entry &E : Entries)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Value, Unit});
}

bool Metrics::has(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return true;
  return false;
}

double Metrics::get(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return E.Value;
  return 0;
}

std::string Metrics::json() const {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    // %.17g keeps every digit the measurement has.
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(E.Value) ? E.Value : 0.0);
    Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}";
}

Metrics Metrics::medianOf(const std::vector<Metrics> &Runs) {
  Metrics Out;
  if (Runs.empty())
    return Out;
  for (const Entry &E : Runs[0].Entries) {
    std::vector<double> V;
    for (const Metrics &R : Runs)
      V.push_back(R.get(E.Name));
    Out.set(E.Name, median(V), E.Unit);
  }
  return Out;
}

void Outcomes::fail(const std::string &Why) {
  ++Attempted;
  if (++Failed <= 10)
    std::fprintf(stderr, "perfbench: output check failed: %s\n", Why.c_str());
}

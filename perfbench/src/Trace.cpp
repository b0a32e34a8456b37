//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Util.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

int64_t Tracer::begin(const char *Name, uint64_t Request) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request;
  Spans.push_back(std::move(S));
  int64_t Id = int64_t(Spans.size() - 1);
  Open.push_back(Id);
  // Read the clock last so the bookkeeping above is not inside the span.
  Spans[Id].Start = now();
  return Id;
}

void Tracer::end(int64_t Id) {
  if (Id < 0)
    return;
  double T = now();
  Spans[Id].End = T;
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

int64_t Tracer::add(std::string Name, double Start, double End,
                    int64_t Parent, uint64_t Request) {
  if (!On)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Request = Request;
  Spans.push_back(std::move(S));
  return int64_t(Spans.size() - 1);
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].push_back({S.Start, S.End});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, P.Start);
      Hi = std::min(Hi, P.End);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        if (CurHi > CurLo)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    if (CurHi > CurLo)
      Covered += CurHi - CurLo;
    Self[I] = (P.End - P.Start) - Covered;
  }
  return Self;
}

/// The layer of span name \p Name: everything before the first dot.
static std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

std::map<std::string, double> Tracer::layerSelfSeconds() const {
  std::map<std::string, double> Out;
  std::vector<double> Self = selfTimes();
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[layerOf(Spans[I].Name)] += Self[I];
  return Out;
}

bool Tracer::dump(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"request\": %llu}\n",
                 I, S.Name.c_str(), S.Start, S.End, (long long)S.Parent,
                 (unsigned long long)S.Request);
  }
  return std::fclose(F) == 0;
}

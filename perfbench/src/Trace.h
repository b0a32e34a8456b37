//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span per call into a layer: name, start,
/// end, parent span, and a request id shared by every span of one
/// request. A span's name is `<layer>.<what>`; the layer is everything
/// before the first dot. Spans stay in memory and are written out once,
/// after measuring. With tracing off every call is a single branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double Start = 0; ///< seconds since the process epoch (Util.h now())
  double End = 0;
  int64_t Parent = -1; ///< index of the parent span, -1 for a root
  uint64_t Request = 0;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  /// Opens a span as a child of the innermost open span; -1 when off.
  int64_t begin(const char *Name, uint64_t Request = 0);
  void end(int64_t Id);
  /// Records a complete span whose times were measured elsewhere (for
  /// example reported by the server); -1 when off.
  int64_t add(std::string Name, double Start, double End, int64_t Parent,
              uint64_t Request);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus the part of it that
  /// the union of its children covers.
  std::vector<double> selfTimes() const;
  /// Self seconds summed by layer.
  std::map<std::string, double> layerSelfSeconds() const;
  /// Writes one JSON object per span, one per line.
  bool dump(const std::string &Path) const;

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// RAII span around one call into a layer.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Request = 0)
      : T(T), Id(T.begin(Name, Request)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

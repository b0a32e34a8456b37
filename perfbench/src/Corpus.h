//===- perfbench/src/Corpus.h - The compile workload's corpus ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded corpus of surface programs the compile workload compiles
/// cold: the ten programs of src/programs, each with a tiny input and a
/// reference from bench/native (or a closed form where there is no
/// native version), plus generated programs. A generated program is a
/// chain of modules drawn from parameterised templates (list and tree
/// ADTs with nested `match`, `val` chains, `if`/`elif` ladders,
/// constructors of several arities, tail and non-tail recursion); the
/// generator evaluates every module in C++ as it writes it, so each
/// program comes with its expected result. Program sizes are drawn
/// stratified on a log scale from tens to a few thousand lines, so two
/// seeds give corpora of the same shape with different code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CorpusProgram {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::vector<int64_t> Args;
  int64_t Want = 0;     ///< the independent reference result
  size_t Lines = 0;
};

/// Number of generated programs in a corpus.
constexpr size_t GeneratedPrograms = 120;

/// The corpus for \p Seed. With \p CorruptReference the first generated
/// program's reference is off by one (the negative control).
std::vector<CorpusProgram> makeCorpus(uint64_t Seed, bool CorruptReference);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H

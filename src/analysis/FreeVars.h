//===- analysis/FreeVars.h - Free variable analysis -------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Free local variables of an expression (fv(e) in the paper, Figure 4).
/// Globals are static and do not count. The Perceus insertion rules
/// (Figure 8) query fv of subexpressions repeatedly while splitting the
/// owned environment, so the analysis is a table: the first query on a
/// tree computes fv for every node under it in one iterative post-order
/// walk (an explicit stack, no recursion), and every later query on a
/// node of that tree is one probe.
///
/// The table is flat. All sets live in one chunked Symbol pool that is
/// only appended to between clear()s (so a returned view stays valid
/// until the next one), and nodes map to their slice through an
/// open-addressing pointer map. IR nodes are immutable and
/// arena-allocated, so an entry never goes stale: one table serves a
/// whole function, including nodes built while a pass runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_ANALYSIS_FREEVARS_H
#define PERCEUS_ANALYSIS_FREEVARS_H

#include "analysis/VarSet.h"
#include "ir/Expr.h"

#include <memory>
#include <vector>

namespace perceus {

/// Computes and tables free-variable sets.
class FreeVarAnalysis {
public:
  /// The free local variables of \p E, ordered by id. The view stays
  /// valid until the next clear() (or the end of the analysis).
  VarSetRef freeVars(const Expr *E) {
    if (const Slot *S = find(E))
      return VarSetRef(S->Data, S->Size);
    return computeTree(E);
  }

  /// Convenience: is \p X free in \p E?
  bool isFreeIn(Symbol X, const Expr *E) { return freeVars(E).contains(X); }

  /// Forgets every entry in O(1), keeping the table's and the pool's
  /// memory: passes clear between functions, so the table stays as
  /// small as the largest function and is allocated once per pass.
  void clear();

private:
  /// One node's set: a slice of the pool. A slot is live only when its
  /// epoch is the current one, which is what makes clear() O(1).
  struct Slot {
    const Expr *Key = nullptr;
    const Symbol *Data = nullptr;
    uint32_t Size = 0;
    uint32_t Epoch = 0;
  };

  const Slot *find(const Expr *E) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = hash(E) & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return nullptr;
      if (S.Key == E)
        return &S;
    }
  }
  static size_t hash(const Expr *E) {
    return size_t((reinterpret_cast<uintptr_t>(E) >> 3) *
                  0x9e3779b97f4a7c15ULL >> 16);
  }

  VarSetRef computeTree(const Expr *Root);
  /// Computes \p E's set from its (already tabled) children into Acc.
  void computeNode(const Expr *E);
  VarSetRef freeVarsOfChild(const Expr *Child) const;
  /// Acc := Acc union [First, Last).
  void merge(const Symbol *First, const Symbol *Last);
  void unionChild(const Expr *Child) {
    VarSetRef S = freeVarsOfChild(Child);
    merge(S.begin(), S.end());
  }
  /// Tables Acc as \p E's set.
  VarSetRef record(const Expr *E);
  void insertSlot(const Slot &S);
  void grow();

  std::vector<Slot> Slots; ///< open addressing, power-of-two size
  size_t Mask = 0;
  size_t Count = 0;
  uint32_t Epoch = 1;

  /// The pool: chunks that are only appended to until the next clear(),
  /// so slices never move.
  struct Chunk {
    std::unique_ptr<Symbol[]> Mem;
    size_t Size;
  };
  std::vector<Chunk> Chunks;
  size_t ChunkIdx = 0; ///< the next chunk to fill
  Symbol *ChunkFree = nullptr;
  size_t ChunkLeft = 0;

  // Scratch state of the walk, kept to reuse its capacity.
  std::vector<std::pair<const Expr *, bool>> Stack;
  std::vector<Symbol> Acc, Tmp, ArmSet;
};

} // namespace perceus

#endif // PERCEUS_ANALYSIS_FREEVARS_H

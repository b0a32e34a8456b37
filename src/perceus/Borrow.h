//===- perceus/Borrow.h - Borrow inference (Section 6) ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work extension (Section 6): "integrate selective
/// borrowing into Perceus — this would make certain programs no longer
/// garbage free, but we believe it could deliver further performance
/// improvements if judiciously applied." Ullrich and de Moura's Lean
/// implementation supports borrowed parameters; here we *infer* them.
///
/// A parameter is inferred borrowed when
///
///   (1) every occurrence is a borrow-compatible use: the scrutinee of a
///       match, or the whole argument of a direct call at a position that
///       is itself borrowed (computed as a greatest fixpoint over the
///       call graph); and
///   (2) the function allocates no reusable (arity > 0) constructor — the
///       "judicious" part: dropping an owned parameter is what funds
///       reuse analysis (Section 2.4), so borrowing a parameter in an
///       allocating function would trade guaranteed in-place reuse for
///       saved refcounts, a bad trade on the paper's benchmarks.
///
/// This captures the classic wins: predicates (`is-red`, `safe`), folds
/// (`count-true`, `sum`, `len`, `size`), and lookups run with *zero*
/// reference-count operations, while `ins`/`map` keep full reuse.
///
/// With borrowing enabled, a borrowed argument stays live in the caller
/// for the duration of the call, so the heap is no longer garbage free
/// in the paper's strict sense — soundness (and the empty-heap-at-exit
/// property) is preserved and tested.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_PERCEUS_BORROW_H
#define PERCEUS_PERCEUS_BORROW_H

#include "ir/Program.h"

#include <vector>

namespace perceus {

class FreeVarAnalysis;

/// Per-function, per-parameter borrow flags.
using BorrowSignatures = std::vector<std::vector<bool>>;

/// Infers borrowed parameters for every function of \p P (pre-insertion
/// IR only).
BorrowSignatures inferBorrowSignatures(const Program &P);

/// True when every free occurrence of \p X in \p E is borrow-compatible
/// under \p Sigs (see the file comment). Exposed for binder-level reuse
/// by the insertion pass and for the unit tests. Lambda captures are
/// looked up in \p FV, the caller's free-variable table.
bool onlyBorrowUses(const Program &P, const Expr *E, Symbol X,
                    const BorrowSignatures &Sigs, FreeVarAnalysis &FV);

} // namespace perceus

#endif // PERCEUS_PERCEUS_BORROW_H

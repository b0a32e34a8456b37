//===- analysis/VarSet.h - Ordered variable sets ----------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ordered set of Symbols (sorted by id, duplicate-free) used for
/// the borrowed/owned environments (Delta and Gamma) of the Perceus
/// derivation rules. Sets are tiny in practice, so a sorted array wins;
/// the ordering also makes emitted dup/drop sequences deterministic.
///
/// A VarSet keeps up to InlineCapacity symbols inside the object and
/// spills to the heap only above that, so the environment splits of the
/// insertion pass allocate nothing on typical code. VarSetRef is a
/// non-owning view of any sorted symbol array (a VarSet, or a set in a
/// FreeVarAnalysis table); the set algebra takes views, so both mix.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_ANALYSIS_VARSET_H
#define PERCEUS_ANALYSIS_VARSET_H

#include "support/Symbol.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>

namespace perceus {

/// A read-only view of a sorted, duplicate-free symbol array.
class VarSetRef {
public:
  VarSetRef() = default;
  VarSetRef(const Symbol *Data, uint32_t Size) : Data(Data), Size(Size) {}

  bool contains(Symbol X) const {
    return std::binary_search(begin(), end(), X);
  }
  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }
  const Symbol *begin() const { return Data; }
  const Symbol *end() const { return Data + Size; }

  friend bool operator==(VarSetRef A, VarSetRef B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  const Symbol *Data = nullptr;
  uint32_t Size = 0;
};

/// An ordered, duplicate-free set of symbols with inline storage.
class VarSet {
public:
  static constexpr uint32_t InlineCapacity = 8;

  VarSet() : Data(Store.Inline) {}
  VarSet(std::initializer_list<Symbol> Xs) : VarSet() {
    for (Symbol X : Xs)
      insert(X);
  }
  explicit VarSet(VarSetRef Other) : VarSet() { assign(Other); }
  VarSet(const VarSet &Other) : VarSet() { assign(Other); }
  VarSet(VarSet &&Other) noexcept : VarSet() { take(Other); }
  VarSet &operator=(const VarSet &Other) {
    if (this != &Other)
      assign(Other);
    return *this;
  }
  VarSet &operator=(VarSet &&Other) noexcept {
    if (this != &Other) {
      release();
      take(Other);
    }
    return *this;
  }
  ~VarSet() { release(); }

  operator VarSetRef() const { return VarSetRef(Data, Size); }

  bool contains(Symbol X) const { return VarSetRef(*this).contains(X); }

  /// Inserts \p X; returns true if it was not present.
  bool insert(Symbol X) {
    Symbol *It = std::lower_bound(Data, Data + Size, X);
    if (It != Data + Size && *It == X)
      return false;
    size_t At = It - Data;
    reserve(Size + 1);
    std::memmove(Data + At + 1, Data + At, (Size - At) * sizeof(Symbol));
    Data[At] = X;
    ++Size;
    return true;
  }

  /// Removes \p X; returns true if it was present.
  bool erase(Symbol X) {
    Symbol *It = std::lower_bound(Data, Data + Size, X);
    if (It == Data + Size || *It != X)
      return false;
    std::memmove(It, It + 1, (Data + Size - It - 1) * sizeof(Symbol));
    --Size;
    return true;
  }

  /// In-place union, one merge pass from the back (no temporary).
  void insertAll(VarSetRef Other) {
    if (Other.empty())
      return;
    size_t Common = 0;
    for (const Symbol *I = Data, *J = Other.begin();
         I != Data + Size && J != Other.end();) {
      if (*I < *J)
        ++I;
      else if (*J < *I)
        ++J;
      else
        ++Common, ++I, ++J;
    }
    uint32_t NewSize = uint32_t(Size + Other.size() - Common);
    reserve(NewSize);
    Symbol *Out = Data + NewSize;
    const Symbol *I = Data + Size, *J = Other.end();
    while (J != Other.begin()) {
      if (I != Data && J[-1] < I[-1])
        *--Out = *--I;
      else if (I != Data && I[-1] == J[-1])
        *--Out = *--I, --J;
      else
        *--Out = *--J;
    }
    Size = NewSize;
  }

  /// In-place difference.
  void eraseAll(VarSetRef Other) {
    Symbol *Out = Data;
    const Symbol *J = Other.begin();
    for (Symbol *I = Data; I != Data + Size; ++I) {
      while (J != Other.end() && *J < *I)
        ++J;
      if (J == Other.end() || *I < *J)
        *Out++ = *I;
    }
    Size = uint32_t(Out - Data);
  }

  /// Set intersection.
  VarSet intersect(VarSetRef Other) const {
    VarSet R;
    R.reserve(uint32_t(std::min<size_t>(Size, Other.size())));
    R.Size = uint32_t(std::set_intersection(begin(), end(), Other.begin(),
                                            Other.end(), R.Data) -
                      R.Data);
    return R;
  }

  /// Set difference (this minus Other).
  VarSet minus(VarSetRef Other) const {
    VarSet R;
    R.reserve(Size);
    R.Size = uint32_t(std::set_difference(begin(), end(), Other.begin(),
                                          Other.end(), R.Data) -
                      R.Data);
    return R;
  }

  /// Set union.
  VarSet unite(VarSetRef Other) const {
    VarSet R;
    R.reserve(uint32_t(Size + Other.size()));
    R.Size = uint32_t(std::set_union(begin(), end(), Other.begin(),
                                     Other.end(), R.Data) -
                      R.Data);
    return R;
  }

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }

  const Symbol *begin() const { return Data; }
  const Symbol *end() const { return Data + Size; }

  friend bool operator==(const VarSet &A, const VarSet &B) {
    return VarSetRef(A) == VarSetRef(B);
  }

private:
  bool isInline() const { return Data == Store.Inline; }

  /// Ensures room for \p N symbols, keeping the contents.
  void reserve(uint32_t N) {
    if (N <= Cap)
      return;
    uint32_t NewCap = std::max(N, Cap * 2);
    Symbol *NewData = std::allocator<Symbol>().allocate(NewCap);
    uint32_t Kept = Size;
    std::memcpy(NewData, Data, Kept * sizeof(Symbol));
    release();
    Data = NewData;
    Cap = NewCap;
    Size = Kept;
  }

  /// Frees spilled storage and returns to the (empty) inline buffer.
  void release() {
    if (!isInline())
      std::allocator<Symbol>().deallocate(Data, Cap);
    Data = Store.Inline;
    Cap = InlineCapacity;
    Size = 0;
  }

  void assign(VarSetRef Other) {
    Size = 0;
    if (Other.empty())
      return;
    reserve(uint32_t(Other.size()));
    std::memcpy(Data, Other.begin(), Other.size() * sizeof(Symbol));
    Size = uint32_t(Other.size());
  }

  /// Moves \p Other's contents into this (empty, inline) set.
  void take(VarSet &Other) {
    if (Other.isInline()) {
      assign(Other);
    } else {
      Data = Other.Data;
      Cap = Other.Cap;
      Size = Other.Size;
      Other.Data = Other.Store.Inline;
      Other.Cap = InlineCapacity;
    }
    Other.Size = 0;
  }

  /// Uninitialized inline storage (Symbol's default constructor would
  /// zero it on every construction).
  union InlineStore {
    InlineStore() {}
    Symbol Inline[InlineCapacity];
  };

  Symbol *Data;
  uint32_t Size = 0;
  uint32_t Cap = InlineCapacity;
  InlineStore Store;
};

} // namespace perceus

#endif // PERCEUS_ANALYSIS_VARSET_H

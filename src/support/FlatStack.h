//===- support/FlatStack.h - Inline-growth contiguous stack -----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contiguous stack both engines keep their frames in: the VM's
/// overlapped register file, and the CEK machine's locals, operands and
/// continuations. It is a drop-in for the subset of std::vector the
/// engines use, with every size change inline. Frames grow and shrink on
/// every call and return, and libstdc++'s out-of-line default-append
/// path showed up at ~5% of VM time on the Figure 9 set (and as tens of
/// millions of out-of-line resize/push_back calls per CEK run). Elements
/// are trivially copyable, so reframing is a size update plus a
/// default-fill of the fresh slots; only capacity growth leaves the fast
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_FLATSTACK_H
#define PERCEUS_SUPPORT_FLATSTACK_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace perceus {

/// See the file comment. Fresh slots are value-initialized (`T{}`).
template <typename T> class FlatStack {
  static_assert(std::is_trivially_copyable_v<T>,
                "reframing copies elements bytewise");

public:
  T *data() { return Mem.get(); }
  const T *begin() const { return Mem.get(); }
  const T *end() const { return Mem.get() + Sz; }
  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }
  T &operator[](size_t I) { return Mem[I]; }
  T &back() { return Mem[Sz - 1]; }
  void clear() { Sz = 0; }

  void push_back(const T &V) {
    if (Sz == Cap)
      grow(Sz + 1);
    Mem[Sz++] = V;
  }
  void pop_back() { --Sz; }

  void assign(const T *First, const T *Last) {
    size_t N = static_cast<size_t>(Last - First);
    if (N > Cap)
      grow(N);
    std::copy(First, Last, Mem.get());
    Sz = N;
  }
  void assign(size_t N, const T &V) {
    if (N > Cap)
      grow(N);
    std::fill(Mem.get(), Mem.get() + N, V);
    Sz = N;
  }

  /// Sets the stack to \p N slots with slots [From, N) value-initialized
  /// — the combined frame-resize + argument-window-clear every call
  /// executes. \p From never exceeds \p N (arguments fit the frame).
  void reframe(size_t N, size_t From) {
    if (N > Cap)
      grow(N);
    T *D = Mem.get();
    for (size_t I = From; I < N; ++I)
      D[I] = T{};
    Sz = N;
  }

  /// vector::resize semantics: growth value-initializes, shrink truncates.
  void resize(size_t N) { reframe(N, Sz < N ? Sz : N); }

private:
  /// Capacity growth is the only out-of-line path: doubling keeps it
  /// amortized to the deepest stack ever reached.
  [[gnu::noinline]] void grow(size_t N) {
    size_t NewCap = Cap ? Cap * 2 : 64;
    if (NewCap < N)
      NewCap = N;
    std::unique_ptr<T[]> NewMem(new T[NewCap]);
    std::copy(Mem.get(), Mem.get() + Sz, NewMem.get());
    Mem = std::move(NewMem);
    Cap = NewCap;
  }

  std::unique_ptr<T[]> Mem;
  size_t Sz = 0, Cap = 0;
};

} // namespace perceus

#endif // PERCEUS_SUPPORT_FLATSTACK_H

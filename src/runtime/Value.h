//===- runtime/Value.h - Runtime values and heap cells ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime value representation. Integers, booleans, unit, nullary
/// constructors and top-level function references are unboxed immediates
/// ("value types are not heap allocated", Section 2.7.1); constructor
/// applications and closures live in reference-counted heap cells.
///
/// Two forms: `Value`, the 16-byte {kind, payload} pair that registers,
/// locals and results use (full int64 semantics), and `FieldWord`, the
/// 8-byte tagged word a cell stores per field. Ints that do not fit a
/// field word's 63 bits are boxed out of line (see FieldWord).
///
/// A `Value` is always written whole. Every constructor and maker, and
/// FieldWord::decode, builds all 16 bytes (the kind byte, seven zero
/// padding bytes, the payload) in one vector register and stores them
/// with a single 16-byte store; nothing outside this file writes `Kind`
/// or the payload. The reason is store forwarding: values are copied
/// whole (a register move, an operand push, a binder copy), and a
/// 16-byte load that follows a 1-byte kind store plus an 8-byte payload
/// store cannot be forwarded from either, so it stalls until both
/// stores retire. One full-width store forwards. The zero padding also
/// makes equal values bytewise equal.
///
/// The cell header encodes the reference count exactly as Section 2.7.2
/// describes: positive counts for thread-local objects, negative counts
/// for thread-shared ones (updated atomically), with a single fused
/// `rc <= 1` test covering both the free path and the atomic slow path,
/// and a sticky minimum value that pins an object alive.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_RUNTIME_VALUE_H
#define PERCEUS_RUNTIME_VALUE_H

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace perceus {

struct Cell;

/// Discriminates runtime values.
enum class ValueKind : uint8_t {
  Unit,
  Int,     ///< unboxed 64-bit integer
  Bool,    ///< unboxed boolean
  Enum,    ///< nullary constructor (tag immediate)
  FnRef,   ///< top-level function (static, never counted)
  HeapRef, ///< constructor cell or closure cell
  Token,   ///< reuse token (&cell or NULL), Section 2.4
  Raw,     ///< untraced pointer (closure code pointer)
};

/// A runtime value. 16 bytes, trivially copyable, and always written
/// whole: see the file comment.
struct Value {
  ValueKind Kind;
  // Seven padding bytes, always zero.
  union {
    int64_t Int;      // Int / Bool
    uint64_t Bits;    // Enum: (dataId << 32) | tag; FnRef: function id
    Cell *Ref;        // HeapRef
    Cell *Tok;        // Token (may be null)
  };

  Value() : Value(ValueKind::Unit, 0) {}

  static Value unit() { return Value(); }
  static Value makeInt(int64_t V) {
    return Value(ValueKind::Int, static_cast<uint64_t>(V));
  }
  static Value makeBool(bool V) { return Value(ValueKind::Bool, V ? 1 : 0); }
  static Value makeEnum(uint32_t DataId, uint32_t Tag) {
    return Value(ValueKind::Enum, (uint64_t(DataId) << 32) | Tag);
  }
  static Value makeFnRef(uint32_t FuncId) {
    return Value(ValueKind::FnRef, FuncId);
  }
  static Value makeRef(Cell *C) {
    return Value(ValueKind::HeapRef, reinterpret_cast<uint64_t>(C));
  }
  static Value makeToken(Cell *C) {
    return Value(ValueKind::Token, reinterpret_cast<uint64_t>(C));
  }
  static Value makeRaw(const void *P) {
    return Value(ValueKind::Raw, reinterpret_cast<uint64_t>(P));
  }

  const void *rawPtr() const {
    assert(Kind == ValueKind::Raw);
    return reinterpret_cast<const void *>(Bits);
  }

  bool isHeap() const { return Kind == ValueKind::HeapRef; }
  uint32_t enumTag() const {
    assert(Kind == ValueKind::Enum);
    return static_cast<uint32_t>(Bits & 0xffffffffu);
  }
  uint32_t fnId() const {
    assert(Kind == ValueKind::FnRef);
    return static_cast<uint32_t>(Bits);
  }
  bool asBool() const {
    assert(Kind == ValueKind::Bool);
    return Int != 0;
  }

private:
  friend struct FieldWord;

  /// The one write path: {K, zero padding, Payload} built in a vector
  /// register and stored with a single 16-byte store.
  Value(ValueKind K, uint64_t Payload) {
    uint64_t KindWord = static_cast<uint64_t>(K);
    if constexpr (std::endian::native == std::endian::big)
      KindWord <<= 56;
#if defined(__GNUC__) || defined(__clang__)
    typedef uint64_t Whole __attribute__((vector_size(16)));
    Whole W = {KindWord, Payload};
#else
    uint64_t W[2] = {KindWord, Payload};
#endif
    std::memcpy(static_cast<void *>(this), &W, sizeof(W));
  }
};

static_assert(static_cast<uint8_t>(ValueKind::Unit) == 0,
              "a zeroed Value is unit");
static_assert(sizeof(Value) == 16 && offsetof(Value, Kind) == 0 &&
                  offsetof(Value, Bits) == 8,
              "the one-store layout: kind word, then payload word");
static_assert(std::is_trivially_copyable_v<Value>);

/// Two's-complement wrapping arithmetic on the language's 64-bit ints.
/// Overflow wraps modulo 2^64, never traps; the computation goes through
/// uint64_t so it is defined behaviour (signed overflow is UB in C++).
/// Every engine's Add/Sub/Mul, fused or not, calls these, so all engines
/// wrap identically.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// One field of a heap cell: a single tagged 64-bit word. Registers,
/// locals and results keep the 16-byte `Value`; only cell fields use this
/// compact form, so a cell of arity a is a header plus a words. Stores
/// encode (Heap::initField / Heap::setField), loads decode (Cell::field).
///
/// Encoding, by the low three bits:
///
///   xx1  inline int: the value is `Bits >> 1` (arithmetic), which covers
///        [-2^62, 2^62 - 1]
///   000  heap reference: the Cell pointer itself (cells are 8-aligned)
///   010  boxed int: `Bits - 2` points to an out-of-line int64 box that
///        this word owns (see below)
///   100  other immediate: bits 3..7 hold the ValueKind (Unit, Bool,
///        Enum, FnRef, Token), bits 8..63 the Value's 56-bit payload
///   110  raw pointer (the closure code pointer), 8-aligned, `Bits - 6`
///
/// An int outside the inline range is boxed, never truncated: the word
/// points to a heap-allocated int64 that lives exactly as long as the
/// word holds it. Overwriting the word (Heap::setField) or freeing the
/// cell frees the box; a box is never shared between words, and decoding
/// copies its value into a plain Value::makeInt, so registers never
/// hold a box. A cell whose words may own a box carries the MayBox
/// header flag, which keeps every free path a single predicted-false
/// branch for box-free cells.
struct FieldWord {
  uint64_t Bits;

  static constexpr uint64_t TagMask = 7;
  static constexpr uint64_t RefTag = 0;
  static constexpr uint64_t BoxTag = 2;
  static constexpr uint64_t ImmTag = 4;
  static constexpr uint64_t RawTag = 6;
  static constexpr int64_t MinInline = -(int64_t(1) << 62);
  static constexpr int64_t MaxInline = (int64_t(1) << 62) - 1;

  /// True iff \p V fits an inline int word.
  static bool fitsInline(int64_t V) {
    return V >= MinInline && V <= MaxInline;
  }

  bool isHeap() const { return (Bits & TagMask) == RefTag; }
  bool isBox() const { return (Bits & TagMask) == BoxTag; }
  Cell *ref() const {
    assert(isHeap());
    return reinterpret_cast<Cell *>(Bits);
  }
  int64_t *box() const {
    assert(isBox());
    return reinterpret_cast<int64_t *>(Bits - BoxTag);
  }

  static FieldWord makeBox(int64_t *B) {
    assert((reinterpret_cast<uintptr_t>(B) & TagMask) == 0);
    return {reinterpret_cast<uint64_t>(B) | BoxTag};
  }

  /// Encodes \p V into \p W. Returns false (leaving \p W unset) only for
  /// an int outside the inline range, which the caller must box. The
  /// hot kinds (heap references, then ints) are tested first; every
  /// other immediate shares one shift-and-tag form whose payload is the
  /// Value's own bits, which must fit 56 bits (an enum's data id below
  /// 2^24, a token's address below 2^56).
  static bool encode(Value V, FieldWord &W) {
    if (V.Kind == ValueKind::HeapRef) {
      assert(V.Ref && (V.Bits & TagMask) == 0 && "cells are 8-aligned");
      W.Bits = V.Bits;
      return true;
    }
    if (V.Kind == ValueKind::Int) {
      if (!fitsInline(V.Int)) [[unlikely]]
        return false;
      W.Bits = (static_cast<uint64_t>(V.Int) << 1) | 1;
      return true;
    }
    if (V.Kind == ValueKind::Raw) {
      assert((V.Bits & TagMask) == 0 && "code pointers must be 8-aligned");
      W.Bits = V.Bits | RawTag;
      return true;
    }
    assert(V.Bits < (uint64_t(1) << 56) && "immediate payload too wide");
    W.Bits = (V.Bits << 8) | (static_cast<uint64_t>(V.Kind) << 3) | ImmTag;
    return true;
  }

  /// Decodes to a plain Value; a boxed int decodes to its full value.
  Value decode() const {
    if (Bits & 1)
      return Value(ValueKind::Int, static_cast<uint64_t>(
                                       static_cast<int64_t>(Bits) >> 1));
    uint64_t Tag = Bits & TagMask;
    if (Tag == RefTag)
      return Value(ValueKind::HeapRef, Bits);
    if (Tag == ImmTag)
      return Value(static_cast<ValueKind>((Bits >> 3) & 31), Bits >> 8);
    if (Tag == BoxTag)
      return Value(ValueKind::Int, static_cast<uint64_t>(*box()));
    return Value(ValueKind::Raw, Bits - RawTag);
  }
};

static_assert(sizeof(FieldWord) == 8, "a field is one word");

/// What a heap cell holds.
enum class CellKind : uint8_t {
  Ctor,    ///< constructor: fields are the constructor arguments
  Closure, ///< closure: field 0 is the code pointer, rest are captures
  Ref,     ///< mutable reference cell: field 0 is the content (2.7.3)
};

/// The reference count occupies the low 32 bits of the header.
///
/// Encoding (Section 2.7.2): `1..INT32_MAX` thread-local counts;
/// negative values are thread-shared counts (count = -rc), updated
/// atomically; `0` marks a freed cell (debug).
///
/// Sticky counts are a *band*, not a single value: every count at or
/// below `INT32_MIN + 2^20` pins the cell alive forever. A band is
/// required under real concurrency — racing `fetch_sub` dups that pass
/// the sticky check before another thread's update lands could step a
/// single sticky value past `INT32_MIN` and wrap to positive. With a
/// 2^20-wide guard band the count would need over a million in-flight
/// racers to escape, so saturation is permanent in practice. A
/// thread-local count that reaches `INT32_MAX` saturates the same way:
/// dup pins it into the sticky band instead of overflowing.
struct CellHeader {
  std::atomic<int32_t> Rc;
  uint8_t Tag = 0;
  uint8_t Arity = 0;
  CellKind Kind = CellKind::Ctor;
  uint8_t GcMark : 1 = 0;
  /// Some field word may own a box (FieldWord). Set when a box is
  /// stored, cleared when the boxes are freed; a clear flag lets every
  /// free path skip the field scan.
  uint8_t MayBox : 1 = 0;
};

/// A heap cell: header plus inline field words.
struct Cell {
  CellHeader H;
  // Field words follow the header inline.

  FieldWord *words() { return reinterpret_cast<FieldWord *>(this + 1); }
  const FieldWord *words() const {
    return reinterpret_cast<const FieldWord *>(this + 1);
  }

  /// Field \p I decoded to a Value (a copy; ownership is unchanged).
  Value field(uint32_t I) const { return words()[I].decode(); }

  /// Slab bytes a cell with \p Arity fields consumes: the 8-byte header
  /// plus one word per field, with a floor of one word so every cell has
  /// the slot the free link lives in (cellFreeLink). The allocator bumps
  /// by exactly this size (cells are 8-aligned), and all live/peak-byte
  /// accounting uses it.
  static size_t allocSize(uint32_t Arity) {
    return sizeof(Cell) + sizeof(FieldWord) * (Arity ? Arity : 1);
  }
};

static_assert(sizeof(Cell) == 8, "the cell header is one word");

/// Frees every box \p C's field words own and clears its MayBox flag.
/// Returns the number of boxes freed. The caller settles the statistics
/// (Heap::releaseBoxes, or the owner via the SharedCellPool count).
inline uint32_t freeCellBoxes(Cell *C) {
  uint32_t N = 0;
  FieldWord *W = C->words();
  for (uint32_t I = 0; I != C->H.Arity; ++I)
    if (W[I].isBox()) {
      delete W[I].box();
      ++N;
    }
  C->H.MayBox = 0;
  return N;
}

/// The free-link of a freed cell. Free cells keep their header intact
/// (rc == 0 is the freed marker, and the arity stays readable for the
/// trap-unwind walk), so the link lives in the first field word — which
/// every cell has thanks to the one-word floor in Cell::allocSize. The
/// same slot serves the heap's single-threaded per-arity free lists and
/// the SharedCellPool's lock-free Treiber shards: a cell is on at most
/// one of them at a time (exactly one thread ever frees a given cell).
/// Any boxes the cell owned are freed before the link overwrites the
/// slot.
inline Cell *&cellFreeLink(Cell *C) {
  return *reinterpret_cast<Cell **>(reinterpret_cast<char *>(C) +
                                    sizeof(CellHeader));
}

} // namespace perceus

#endif // PERCEUS_RUNTIME_VALUE_H

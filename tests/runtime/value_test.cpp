//===- tests/runtime/value_test.cpp - Values are written whole -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the "a Value is always written whole" invariant of
/// runtime/Value.h: every maker and FieldWord::decode of each of the five
/// field-word tags produces all 16 bytes — the kind byte, seven zero
/// padding bytes, the payload — so equal values are bytewise equal. Each
/// value is built into storage pre-filled with a poison pattern; a write
/// that skipped any byte would leave poison behind.
///
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

using namespace perceus;

namespace {

constexpr unsigned char Poison = 0xa5;

/// The object representation of the Value \p Make builds, constructed
/// into poisoned storage (guaranteed copy elision: the maker's own
/// store is the only write).
template <typename MakeFn> std::vector<unsigned char> bytesOf(MakeFn Make) {
  alignas(Value) unsigned char Buf[sizeof(Value)];
  std::memset(Buf, Poison, sizeof(Buf));
  ::new (static_cast<void *>(Buf)) Value(Make());
  return std::vector<unsigned char>(Buf, Buf + sizeof(Buf));
}

/// Checks \p Bytes is {Kind, 7 zero bytes, Payload}.
void expectWhole(const std::vector<unsigned char> &Bytes, ValueKind Kind,
                 uint64_t Payload, const std::string &What) {
  ASSERT_EQ(Bytes.size(), 16u) << What;
  EXPECT_EQ(Bytes[0], static_cast<unsigned char>(Kind)) << What;
  for (size_t I = 1; I != 8; ++I)
    EXPECT_EQ(Bytes[I], 0) << What << ": padding byte " << I;
  uint64_t Got;
  std::memcpy(&Got, Bytes.data() + 8, sizeof(Got));
  EXPECT_EQ(Got, Payload) << What;
}

/// An 8-aligned address to stand in for a cell (never dereferenced).
Cell *fakeCell() {
  alignas(8) static uint64_t Storage[2];
  return reinterpret_cast<Cell *>(Storage);
}

TEST(ValueBytes, EveryMakerWritesSixteenDefinedBytes) {
  expectWhole(bytesOf([] { return Value(); }), ValueKind::Unit, 0,
              "default");
  expectWhole(bytesOf([] { return Value::unit(); }), ValueKind::Unit, 0,
              "unit");
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()})
    expectWhole(bytesOf([V] { return Value::makeInt(V); }), ValueKind::Int,
                static_cast<uint64_t>(V), "int " + std::to_string(V));
  expectWhole(bytesOf([] { return Value::makeBool(true); }), ValueKind::Bool,
              1, "true");
  expectWhole(bytesOf([] { return Value::makeBool(false); }),
              ValueKind::Bool, 0, "false");
  expectWhole(bytesOf([] { return Value::makeEnum(3, 7); }), ValueKind::Enum,
              (uint64_t(3) << 32) | 7, "enum");
  expectWhole(bytesOf([] { return Value::makeFnRef(9); }), ValueKind::FnRef,
              9, "fnref");
  Cell *C = fakeCell();
  uint64_t Addr = reinterpret_cast<uint64_t>(C);
  expectWhole(bytesOf([C] { return Value::makeRef(C); }), ValueKind::HeapRef,
              Addr, "ref");
  expectWhole(bytesOf([C] { return Value::makeToken(C); }), ValueKind::Token,
              Addr, "token");
  expectWhole(bytesOf([] { return Value::makeToken(nullptr); }),
              ValueKind::Token, 0, "null token");
  expectWhole(bytesOf([C] { return Value::makeRaw(C); }), ValueKind::Raw,
              Addr, "raw");
}

/// The field word \p V encodes to (never a box: callers pass inline
/// values).
FieldWord wordOf(Value V) {
  FieldWord W{0};
  EXPECT_TRUE(FieldWord::encode(V, W));
  return W;
}

TEST(ValueBytes, DecodeOfEveryTagWritesSixteenDefinedBytes) {
  Cell *C = fakeCell();
  uint64_t Addr = reinterpret_cast<uint64_t>(C);
  struct Case {
    const char *What;
    Value Want;
    ValueKind Kind;
    uint64_t Payload;
  };
  const Case Cases[] = {
      // xx1: inline ints, both range ends.
      {"inline int", Value::makeInt(-5), ValueKind::Int, uint64_t(-5)},
      {"inline max", Value::makeInt(FieldWord::MaxInline), ValueKind::Int,
       uint64_t(FieldWord::MaxInline)},
      {"inline min", Value::makeInt(FieldWord::MinInline), ValueKind::Int,
       uint64_t(FieldWord::MinInline)},
      // 000: heap reference.
      {"ref", Value::makeRef(C), ValueKind::HeapRef, Addr},
      // 100: every other immediate kind.
      {"unit", Value::unit(), ValueKind::Unit, 0},
      {"bool", Value::makeBool(true), ValueKind::Bool, 1},
      {"enum", Value::makeEnum(2, 5), ValueKind::Enum,
       (uint64_t(2) << 32) | 5},
      {"fnref", Value::makeFnRef(11), ValueKind::FnRef, 11},
      {"token", Value::makeToken(C), ValueKind::Token, Addr},
      {"null token", Value::makeToken(nullptr), ValueKind::Token, 0},
      // 110: raw pointer.
      {"raw", Value::makeRaw(C), ValueKind::Raw, Addr},
  };
  for (const Case &K : Cases) {
    FieldWord W = wordOf(K.Want);
    std::vector<unsigned char> Got = bytesOf([W] { return W.decode(); });
    expectWhole(Got, K.Kind, K.Payload, K.What);
    // Equal values are bytewise equal: the decoded copy and the maker's
    // (K.Want was built in place by its maker).
    EXPECT_EQ(std::memcmp(Got.data(), &K.Want, 16), 0) << K.What;
  }

  // 010: a boxed int (outside the inline range) decodes to its full
  // value, bytewise equal to the plain maker's.
  for (int64_t V : {std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min(),
                    FieldWord::MaxInline + 1}) {
    FieldWord Probe{0};
    EXPECT_FALSE(FieldWord::encode(Value::makeInt(V), Probe));
    int64_t *Box = new int64_t(V);
    FieldWord W = FieldWord::makeBox(Box);
    std::vector<unsigned char> Got = bytesOf([W] { return W.decode(); });
    expectWhole(Got, ValueKind::Int, static_cast<uint64_t>(V),
                "boxed " + std::to_string(V));
    std::vector<unsigned char> Made =
        bytesOf([V] { return Value::makeInt(V); });
    EXPECT_EQ(std::memcmp(Got.data(), Made.data(), 16), 0) << V;
    delete Box;
  }
}

TEST(ValueBytes, EqualValuesCompareEqualBytewise) {
  Value A = Value::makeInt(7), B = Value::makeInt(7);
  EXPECT_EQ(std::memcmp(&A, &B, sizeof(Value)), 0);
  Value X = Value::makeEnum(1, 2), Y = wordOf(X).decode();
  EXPECT_EQ(std::memcmp(&X, &Y, sizeof(Value)), 0);
  // Different kinds with the same payload differ in the kind byte only.
  Value I = Value::makeInt(1), T = Value::makeBool(true);
  EXPECT_NE(std::memcmp(&I, &T, sizeof(Value)), 0);
  EXPECT_EQ(std::memcmp(reinterpret_cast<const char *>(&I) + 1,
                        reinterpret_cast<const char *>(&T) + 1, 15),
            0);
}

} // namespace

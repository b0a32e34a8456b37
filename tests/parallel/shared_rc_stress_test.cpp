//===- tests/parallel/shared_rc_stress_test.cpp - Concurrent RC ----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hammers the thread-shared RC paths of Section 2.7.2 from real threads:
// dup/drop/decref/isUnique storms on a shared structure, sticky-count
// saturation under contention, and a last-reference race where exactly
// one thread must free. Designed to run under TSan
// (-DPERCEUS_SANITIZE=thread) — the CI job does — but meaningful without
// it too, since every assertion checks the exact final counts.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/SharedPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <thread>
#include <vector>

using namespace perceus;

namespace {

constexpr int NumThreads = 8;

/// Builds a perfect binary tree of \p Depth on \p H (arity-2 nodes,
/// leaves are arity-0) and collects every cell into \p Nodes.
Value buildTree(Heap &H, int Depth, std::vector<Cell *> &Nodes) {
  if (Depth == 0) {
    Cell *Leaf = H.alloc(0, 0, CellKind::Ctor);
    Nodes.push_back(Leaf);
    return Value::makeRef(Leaf);
  }
  Value L = buildTree(H, Depth - 1, Nodes);
  Value R = buildTree(H, Depth - 1, Nodes);
  Cell *N = H.alloc(2, 1, CellKind::Ctor);
  H.initField(N, 0, L);
  H.initField(N, 1, R);
  Nodes.push_back(N);
  return Value::makeRef(N);
}

TEST(SharedRcStress, DupDropDecrefStormLeavesCountsBalanced) {
  // Owner builds and shares a tree; 8 threads, each with a private heap
  // (as ParallelRunner workers have), hammer balanced dup/drop/decref/
  // isUnique on every node. After the join the counts must be exactly
  // what the owner published, and the owner's final drop must free the
  // whole tree.
  Heap Owner;
  std::vector<Cell *> Nodes;
  Value Root = buildTree(Owner, 6, Nodes);
  Owner.markShared(Root);

  SharedCellPool Pool;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Heap H;
      H.setSharedPool(&Pool);
      for (int I = 0; I != 2000; ++I) {
        for (size_t N = T % 3; N < Nodes.size(); N += 3) {
          Value V = Value::makeRef(Nodes[N]);
          H.dup(V);
          EXPECT_FALSE(H.isUnique(V)) << "shared cells are never unique";
          if ((I + N) % 2)
            H.drop(V);
          else
            H.decref(V);
        }
      }
      EXPECT_TRUE(H.empty());
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Pool.parkedCells(), 0u) << "balanced ops free nothing";
  for (Cell *N : Nodes)
    EXPECT_LT(N->H.Rc.load(), 0) << "still shared, still live";
  Owner.drop(Root);
  EXPECT_TRUE(Owner.empty()) << "owner's reference was the last";
}

/// Like buildTree, but every node also holds a wide int (boxed out of
/// line) and every leaf one: arity-3 nodes (left, int, right), arity-1
/// leaves. Returns the root; \p Boxes counts the boxed fields.
Value buildBoxedTree(Heap &H, int Depth, uint64_t &Boxes) {
  int64_t Wide = INT64_MAX - Depth; // far outside the 63-bit inline range
  if (Depth == 0) {
    Cell *Leaf = H.alloc(1, 0, CellKind::Ctor);
    H.initField(Leaf, 0, Value::makeInt(Wide));
    ++Boxes;
    return Value::makeRef(Leaf);
  }
  Value L = buildBoxedTree(H, Depth - 1, Boxes);
  Value R = buildBoxedTree(H, Depth - 1, Boxes);
  Cell *N = H.alloc(3, 1, CellKind::Ctor);
  H.initField(N, 0, L);
  H.initField(N, 1, Value::makeInt(-Wide));
  H.initField(N, 2, R);
  ++Boxes;
  return Value::makeRef(N);
}

TEST(SharedRcStress, LastReferenceRaceFreesSharedBoxesExactlyOnce) {
  // A shared tree whose fields own boxed ints: the racer that observes
  // the last reference parks every cell and frees every box; the owner
  // settles the box accounting at absorb and ends with no cell, no box
  // and no byte live.
  constexpr int Rounds = 100;
  Heap Owner;
  for (int R = 0; R != Rounds; ++R) {
    uint64_t Boxes = 0;
    Value Root = buildBoxedTree(Owner, 4, Boxes);
    ASSERT_EQ(Owner.stats().BoxedInts, Boxes);
    Owner.markShared(Root);
    for (int T = 1; T != NumThreads; ++T)
      Owner.dup(Root);

    SharedCellPool Pool;
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T) {
      Threads.emplace_back([&] {
        Heap H;
        H.setSharedPool(&Pool);
        // Read a boxed field through the shared root before letting go.
        EXPECT_EQ(Root.Ref->field(1).Int, -(INT64_MAX - 4));
        H.drop(Root);
        EXPECT_TRUE(H.empty());
        EXPECT_EQ(H.stats().BoxedInts, 0u) << "boxes settle on the owner";
      });
    }
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Pool.parkedCells(), 31u) << "15 nodes + 16 leaves, once each";
    EXPECT_EQ(Owner.absorbSharedFrees(Pool), 31u);
    EXPECT_EQ(Owner.stats().BoxedInts, 0u);
    EXPECT_EQ(Owner.stats().LiveBytes, 0u);
    EXPECT_TRUE(Owner.empty());
  }
}

TEST(SharedRcStress, LastReferenceRaceFreesExactlyOnce) {
  // Give each of 8 threads one reference to a two-cell structure and let
  // them race the final drop: exactly one thread observes the last
  // reference and parks both cells; the owner absorbs them and is empty.
  constexpr int Rounds = 500;
  Heap Owner;
  for (int R = 0; R != Rounds; ++R) {
    Cell *Child = Owner.alloc(0, 0, CellKind::Ctor);
    Cell *Parent = Owner.alloc(1, 0, CellKind::Ctor);
    Owner.initField(Parent, 0, Value::makeRef(Child));
    Value Root = Value::makeRef(Parent);
    Owner.markShared(Root);
    // The owner hands its reference plus NumThreads - 1 fresh dups to
    // the racers: after all of them drop, the structure is dead.
    for (int T = 1; T != NumThreads; ++T)
      Owner.dup(Root);

    SharedCellPool Pool;
    std::atomic<uint64_t> ParkObserved{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T) {
      Threads.emplace_back([&] {
        Heap H;
        H.setSharedPool(&Pool);
        H.drop(Root);
        EXPECT_TRUE(H.empty());
        ParkObserved.fetch_add(H.stats().AtomicRcOps,
                               std::memory_order_relaxed);
      });
    }
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Pool.parkedCells(), 2u) << "parent and child, each once";
    EXPECT_EQ(ParkObserved.load(), uint64_t(NumThreads) + 1)
        << "one atomic decrement per racer plus the child's";
    EXPECT_EQ(Owner.absorbSharedFrees(Pool), 2u);
    EXPECT_TRUE(Owner.empty());
  }
}

TEST(SharedRcStress, StickySaturationUnderContention) {
  // Park a count just above the sticky band and let 8 threads dup it
  // concurrently far past the band edge. Once inside the band every
  // operation is a no-op, so the count must come to rest within
  // NumThreads of the band top — never anywhere near wrapping past
  // INT32_MIN — and stay pinned afterwards.
  constexpr int32_t BandTop = INT32_MIN + (1 << 20);
  Heap Owner;
  Cell *C = Owner.alloc(0, 0, CellKind::Ctor);
  Value V = Value::makeRef(C);
  Owner.markShared(V);
  C->H.Rc.store(BandTop + 64, std::memory_order_relaxed);

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&] {
      Heap H;
      for (int I = 0; I != 1000; ++I)
        H.dup(V); // dup on shared: atomic decrement toward the band
    });
  }
  for (std::thread &T : Threads)
    T.join();

  int32_t Rc = C->H.Rc.load();
  EXPECT_LE(Rc, BandTop) << "saturated into the band";
  EXPECT_GE(Rc, BandTop - NumThreads) << "at most one overshoot per racer";
  // Pinned: further operations from any thread leave the count alone.
  Owner.dup(V);
  Owner.drop(V);
  Owner.decref(V);
  EXPECT_EQ(C->H.Rc.load(), Rc);
  Owner.freeMemoryOnly(C); // test cleanup of the pinned cell
}

TEST(SharedRcStress, CoalescedStormLeavesCountsBalanced) {
  // The coalescing analogue of the storm above: every worker buffers its
  // shared-count traffic and flushes at most a handful of net deltas.
  // After the join the published counts must be exactly what the owner
  // wrote — stale unflushed deltas may never leak past a flush, and
  // isUnique must never report true on a cell other threads hold, no
  // matter what sits in the prober's buffer.
  Heap Owner;
  std::vector<Cell *> Nodes;
  Value Root = buildTree(Owner, 6, Nodes);
  Owner.markShared(Root);

  SharedCellPool Pool;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Heap H;
      H.setSharedPool(&Pool);
      H.enableSharedCoalescing();
      for (int I = 0; I != 2000; ++I) {
        for (size_t N = T % 3; N < Nodes.size(); N += 3) {
          Value V = Value::makeRef(Nodes[N]);
          H.dup(V);
          EXPECT_FALSE(H.isUnique(V)) << "shared cells are never unique";
          if ((I + N) % 2)
            H.drop(V);
          else
            H.decref(V);
        }
      }
      H.flushSharedDeltas();
      EXPECT_TRUE(H.empty());
      // Balanced traffic coalesces: the RMWs actually issued must be a
      // small fraction of the operations absorbed.
      EXPECT_GT(H.stats().CoalescedRcOps, 0u);
      EXPECT_LT(H.stats().AtomicRcOps, H.stats().CoalescedRcOps / 4);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Pool.setQuiesced(true);

  EXPECT_EQ(Pool.parkedCells(), 0u) << "balanced ops free nothing";
  for (Cell *N : Nodes)
    EXPECT_LT(N->H.Rc.load(), 0) << "still shared, still live";
  Owner.drop(Root);
  EXPECT_TRUE(Owner.empty()) << "owner's reference was the last";
}

TEST(SharedRcStress, CoalescedLastReferenceRaceFreesExactlyOnce) {
  // The last-reference race with every racer's decrement deferred into
  // its coalescing buffer: zeros can only surface at a flush, and still
  // exactly one racer must observe the zero and park both cells.
  constexpr int Rounds = 500;
  Heap Owner;
  for (int R = 0; R != Rounds; ++R) {
    Cell *Child = Owner.alloc(0, 0, CellKind::Ctor);
    Cell *Parent = Owner.alloc(1, 0, CellKind::Ctor);
    Owner.initField(Parent, 0, Value::makeRef(Child));
    Value Root = Value::makeRef(Parent);
    Owner.markShared(Root);
    for (int T = 1; T != NumThreads; ++T)
      Owner.dup(Root);

    SharedCellPool Pool;
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T) {
      Threads.emplace_back([&] {
        Heap H;
        H.setSharedPool(&Pool);
        H.enableSharedCoalescing();
        H.drop(Root); // deferred into the buffer
        H.flushSharedDeltas();
        EXPECT_TRUE(H.empty());
      });
    }
    for (std::thread &T : Threads)
      T.join();
    Pool.setQuiesced(true);

    EXPECT_EQ(Pool.parkedCells(), 2u) << "parent and child, each once";
    EXPECT_EQ(Owner.absorbSharedFrees(Pool), 2u);
    EXPECT_TRUE(Owner.empty());
  }
}

TEST(SharedRcStress, MpscParkDrainRaceStorm) {
  // Hammers the lock-free Treiber shards: 7 producers park cells
  // concurrently while a consumer drains in a loop (whole-shard acquire
  // exchange racing the release CAS pushes). Every parked cell must come
  // out exactly once, and once the producers joined and the pool is
  // quiesced, parkedCells() is exact.
  constexpr int PerProducer = 4000;
  constexpr int Producers = NumThreads - 1;
  Heap Owner;
  std::vector<Cell *> Cells;
  for (int I = 0; I != Producers * PerProducer; ++I)
    Cells.push_back(Owner.alloc(0, 0, CellKind::Ctor));

  SharedCellPool Pool;
  std::atomic<uint64_t> Drained{0};
  std::atomic<bool> Done{false};
  std::vector<Cell *> Recovered;
  std::thread Consumer([&] {
    while (!Done.load(std::memory_order_acquire))
      Pool.drain([&](Cell *C) {
        Recovered.push_back(C);
        Drained.fetch_add(1, std::memory_order_relaxed);
      });
  });
  std::vector<std::thread> Threads;
  for (int P = 0; P != Producers; ++P) {
    Threads.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I)
        Pool.park(Cells[size_t(P) * PerProducer + I]);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Done.store(true, std::memory_order_release);
  Consumer.join();

  // Producers joined: quiesced, so the count is exact — whatever the
  // consumer did not take is still parked, nothing was lost or doubled.
  Pool.setQuiesced(true);
  uint64_t Remaining = Pool.parkedCells();
  EXPECT_EQ(Drained.load() + Remaining, uint64_t(Producers) * PerProducer)
      << "quiesced count is exact: drained + parked covers every cell";
  Pool.drain([&](Cell *C) {
    Recovered.push_back(C);
    Drained.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Drained.load(), uint64_t(Producers) * PerProducer);
  EXPECT_EQ(Pool.parkedCells(), 0u);
  EXPECT_EQ(Recovered.size(), Cells.size());
  // Test cleanup: give the freed cells back to the owning heap.
  for (Cell *C : Recovered)
    Owner.releaseForSweep(C);
  EXPECT_TRUE(Owner.empty());
}

TEST(SharedRcStress, ShardPaddingPinsCacheLineIsolation) {
  // The false-sharing fix is a layout contract: shards are padded to at
  // least a cache line so two workers parking into different shards
  // never bounce the same line.
  static_assert(SharedCellPool::ShardAlignment >= 64,
                "shards must span at least one cache line");
  EXPECT_GE(SharedCellPool::ShardAlignment, 64u);
}

TEST(SharedRcStress, ConcurrentDecrefRaceOnSharedList) {
  // decref takes the same fused slow path as drop; race it specifically:
  // a chain of cells where each thread's single decref of the head may
  // be the one that cascades down the spine.
  constexpr int Rounds = 200, Len = 16;
  Heap Owner;
  for (int R = 0; R != Rounds; ++R) {
    Value Head = Value::makeRef(Owner.alloc(0, 0, CellKind::Ctor));
    for (int I = 1; I != Len; ++I) {
      Cell *C = Owner.alloc(1, 0, CellKind::Ctor);
      Owner.initField(C, 0, Head);
      Head = Value::makeRef(C);
    }
    Owner.markShared(Head);
    for (int T = 1; T != NumThreads; ++T)
      Owner.dup(Head);

    SharedCellPool Pool;
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T) {
      Threads.emplace_back([&] {
        Heap H;
        H.setSharedPool(&Pool);
        H.decref(Head);
        EXPECT_TRUE(H.empty());
      });
    }
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Pool.parkedCells(), uint64_t(Len)) << "whole spine, once";
    EXPECT_EQ(Owner.absorbSharedFrees(Pool), uint64_t(Len));
    EXPECT_TRUE(Owner.empty());
  }
}

} // namespace

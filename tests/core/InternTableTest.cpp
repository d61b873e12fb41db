//===- tests/core/InternTableTest.cpp - Shared hash-consing table tests ---===//
//
// The one open-addressing layout behind the Type, Expr and VersionTable
// interners: growth keeps every handle findable, colliding hashes keep
// distinct keys distinct, and concurrent interning through the sharded
// wrapper yields one node per distinct content.
//
//===----------------------------------------------------------------------===//

#include "core/InternTable.h"

#include "core/Program.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace dc;

namespace {

/// Handles are indices into Keys; the table stores only the index.
struct KeyedSlots {
  std::vector<long> Keys;
  InternSlots<int, -1> Slots;
  int Creates = 0;

  int intern(long Key, size_t Hash, size_t (*HashOf)(long)) {
    return Slots.findOrInsert(
        Hash, [&](int H) { return Keys[H] == Key; },
        [&] {
          ++Creates;
          Keys.push_back(Key);
          return static_cast<int>(Keys.size()) - 1;
        },
        [&](int H) { return HashOf(Keys[H]); });
  }
};

size_t mixedHash(long Key) { return internMix(static_cast<uint64_t>(Key)); }
size_t constantHash(long) { return 0; }

} // namespace

TEST(InternTable, GrowthKeepsEveryHandleFindable) {
  // The array starts at 64 slots and is never over half full, so 40000
  // keys double it 11 times, to 131072 slots.
  KeyedSlots T;
  const long N = 40000;
  std::vector<int> Handles;
  for (long K = 0; K < N; ++K)
    Handles.push_back(T.intern(K * 7919, mixedHash(K * 7919), mixedHash));
  ASSERT_EQ(T.Slots.size(), static_cast<size_t>(N));
  for (long K = 0; K < N; ++K)
    ASSERT_EQ(T.intern(K * 7919, mixedHash(K * 7919), mixedHash), Handles[K])
        << "key " << K * 7919;
  EXPECT_EQ(T.Creates, N) << "a hit must not create";
  EXPECT_EQ(T.Slots.size(), static_cast<size_t>(N));
}

TEST(InternTable, ConstantHashKeepsDistinctKeysDistinct) {
  // Every key probes from slot 0: the table degrades to a linear scan but
  // must neither merge two keys nor lose one across growth.
  KeyedSlots T;
  const long N = 600;
  for (long K = 0; K < N; ++K)
    ASSERT_EQ(T.intern(K, 0, constantHash), K);
  for (long K = 0; K < N; ++K)
    ASSERT_EQ(T.intern(K, 0, constantHash), K);
  EXPECT_EQ(T.Slots.size(), static_cast<size_t>(N));

  // The same through the sharded wrapper: every key lands in shard 0.
  ShardedInternTable<const long *> Sharded;
  std::vector<long> Keys(N);
  for (long K = 0; K < N; ++K)
    Keys[K] = K;
  auto Intern = [&](long K) {
    return Sharded.findOrInsert(
        0, [&](const long *P) { return *P == K; }, [&] { return &Keys[K]; },
        [](const long *) { return size_t(0); });
  };
  for (long K = 0; K < N; ++K)
    ASSERT_EQ(Intern(K), &Keys[K]);
  for (long K = 0; K < N; ++K)
    ASSERT_EQ(Intern(K), &Keys[K]);
  EXPECT_EQ(Sharded.size(), static_cast<size_t>(N));
}

namespace {

constexpr int NumThreads = 8;
constexpr int PerThread = 400;
/// Thread T interns items [T * Stride, T * Stride + PerThread): neighbours
/// overlap by half, so most content is interned by two threads at once.
constexpr int Stride = PerThread / 2;
constexpr int NumDistinct = (NumThreads - 1) * Stride + PerThread;

/// Runs \p Work(Item) for every item of every thread, all threads at once,
/// and returns the results indexed [Thread][Item - the thread's first].
template <typename Handle, typename Fn>
std::vector<std::vector<Handle>> internConcurrently(Fn Work) {
  std::vector<std::vector<Handle>> Out(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I)
        Out[T].push_back(Work(T * Stride + I));
    });
  for (std::thread &Th : Threads)
    Th.join();
  return Out;
}

/// Checks that every item maps to one handle, whichever thread asked, and
/// that distinct items map to distinct handles; returns them by item.
template <typename Handle>
std::vector<Handle>
expectOneHandlePerItem(const std::vector<std::vector<Handle>> &Got) {
  std::vector<Handle> ByItem(NumDistinct);
  for (int T = 0; T < NumThreads; ++T)
    for (int I = 0; I < PerThread; ++I) {
      Handle &Seen = ByItem[T * Stride + I];
      if (!Seen)
        Seen = Got[T][I];
      EXPECT_EQ(Got[T][I], Seen) << "item " << T * Stride + I;
    }
  std::set<Handle> Distinct(ByItem.begin(), ByItem.end());
  EXPECT_EQ(Distinct.size(), ByItem.size());
  return ByItem;
}

} // namespace

TEST(InternTable, ConcurrentExprInterningYieldsOneNodePerContent) {
  // Each item is three nodes no other test interns: a primitive with a
  // fresh name, the application of it to itself, and a lambda over that.
  const size_t Before = Expr::internedCount();
  auto Item = [](int K) {
    ExprPtr P = Expr::primitive("intern-table-test-" + std::to_string(K),
                                tInt());
    return Expr::abstraction(Expr::application(P, P));
  };
  std::vector<ExprPtr> ByItem =
      expectOneHandlePerItem(internConcurrently<ExprPtr>(Item));
  EXPECT_EQ(Expr::internedCount() - Before, 3u * NumDistinct);
  // Re-interning from one thread finds every node again.
  for (int K = 0; K < NumDistinct; ++K)
    ASSERT_EQ(Item(K), ByItem[K]);
  EXPECT_EQ(Expr::internedCount() - Before, 3u * NumDistinct);
}

TEST(InternTable, ConcurrentTypeInterningYieldsOneNodePerContent) {
  // Each item is three type nodes no other test interns: a fresh nullary
  // constructor, a list of it and an arrow from it to that list.
  const size_t Before = Type::internedCount();
  auto Item = [](int K) {
    TypePtr Base =
        Type::constructor("intern-table-test-" + std::to_string(K), {});
    return Type::arrow(Base, tList(Base));
  };
  expectOneHandlePerItem(internConcurrently<TypePtr>(Item));
  EXPECT_EQ(Type::internedCount() - Before, 3u * NumDistinct);
}

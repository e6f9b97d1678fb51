// Unit tests for the engine's hot-path containers: Ring, DaryHeap,
// IndexedDaryHeap, and the InlineAction SBO callable.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "sim/inline_action.h"
#include "util/dary_heap.h"
#include "util/indexed_heap.h"
#include "util/ring.h"

namespace ispn {
namespace {

// ---------------------------------------------------------------- Ring

TEST(Ring, FifoOrderAcrossGrowthAndWraparound) {
  util::Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so head wraps the buffer many times while
  // the ring also grows.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) r.push_back(next_in++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(r.pop_front(), next_out++);
  }
  EXPECT_EQ(r.size(), 1000u);
  while (!r.empty()) EXPECT_EQ(r.pop_front(), next_out++);
}

TEST(Ring, PopBackAndIndexing) {
  util::Ring<int> r;
  for (int i = 0; i < 10; ++i) r.push_back(i);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 9);
  EXPECT_EQ(r[3], 3);
  EXPECT_EQ(r.pop_back(), 9);
  EXPECT_EQ(r.back(), 8);
  EXPECT_EQ(r.size(), 9u);
}

TEST(Ring, EraseAtShiftsTheShorterSide) {
  for (std::size_t victim : {1u, 4u, 7u}) {
    util::Ring<int> r;
    for (int i = 0; i < 9; ++i) r.push_back(i);
    EXPECT_EQ(r.erase_at(victim), static_cast<int>(victim));
    std::vector<int> rest;
    while (!r.empty()) rest.push_back(r.pop_front());
    std::vector<int> expect;
    for (int i = 0; i < 9; ++i) {
      if (static_cast<std::size_t>(i) != victim) expect.push_back(i);
    }
    EXPECT_EQ(rest, expect);
  }
}

TEST(Ring, HoldsMoveOnlyTypes) {
  util::Ring<std::unique_ptr<int>> r;
  for (int i = 0; i < 20; ++i) r.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(*r.pop_front(), i);
}

// ------------------------------------------------------------- DaryHeap

TEST(DaryHeap, PopsInSortedOrder) {
  util::DaryHeap<int> h;
  std::mt19937 rng(7);
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) values.push_back(static_cast<int>(rng()));
  for (int v : values) h.push(v);
  std::sort(values.begin(), values.end());
  for (int v : values) EXPECT_EQ(h.pop(), v);
  EXPECT_TRUE(h.empty());
}

TEST(DaryHeap, RemoveAtKeepsHeapValid) {
  util::DaryHeap<int> h;
  std::mt19937 rng(11);
  std::vector<int> values;
  for (int i = 0; i < 200; ++i) values.push_back(static_cast<int>(rng() % 1000));
  for (int v : values) h.push(v);
  // Remove 50 arbitrary raw positions, tracking the multiset.
  std::vector<int> removed;
  for (int i = 0; i < 50; ++i) {
    const std::size_t at = rng() % h.size();
    removed.push_back(h.remove_at(at));
  }
  std::vector<int> expect = values;
  for (int v : removed) {
    expect.erase(std::find(expect.begin(), expect.end(), v));
  }
  std::sort(expect.begin(), expect.end());
  for (int v : expect) EXPECT_EQ(h.pop(), v);
}

// ------------------------------------------------------ IndexedDaryHeap

TEST(IndexedHeap, UpsertInsertsAndReKeys) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  h.upsert(3, 5.0);
  h.upsert(1, 2.0);
  h.upsert(2, 8.0);
  EXPECT_EQ(h.top().id, 1u);
  h.upsert(1, 9.0);  // re-key upward
  EXPECT_EQ(h.top().id, 3u);
  h.upsert(2, 1.0);  // re-key downward
  EXPECT_EQ(h.top().id, 2u);
  EXPECT_EQ(h.size(), 3u);  // still one entry per id
}

TEST(IndexedHeap, TiesBreakByIdAscending) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  h.upsert(5, 1.0);
  h.upsert(2, 1.0);
  h.upsert(9, 1.0);
  EXPECT_EQ(h.pop().id, 2u);
  EXPECT_EQ(h.pop().id, 5u);
  EXPECT_EQ(h.pop().id, 9u);
}

TEST(IndexedHeap, EraseRemovesAndAllowsReinsert) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  for (std::uint32_t id = 0; id < 20; ++id) h.upsert(id, 100.0 - id);
  EXPECT_TRUE(h.erase(7));
  EXPECT_FALSE(h.erase(7));
  EXPECT_FALSE(h.contains(7));
  EXPECT_EQ(h.size(), 19u);
  h.upsert(7, 0.5);
  EXPECT_EQ(h.top().id, 7u);
}

TEST(IndexedHeap, RandomisedAgainstReference) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  std::vector<double> key(64, -1.0);  // -1 = absent
  std::mt19937 rng(23);
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng() % 4;
    const std::uint32_t id = rng() % 64;
    if (op == 0 || op == 1) {
      const double k = static_cast<double>(rng() % 10000);
      h.upsert(id, k);
      key[id] = k;
    } else if (op == 2) {
      EXPECT_EQ(h.erase(id), key[id] >= 0);
      key[id] = -1.0;
    } else if (!h.empty()) {
      const auto e = h.pop();
      // Must be the minimum (key, id) among present ids.
      double best = -1.0;
      std::uint32_t best_id = 0;
      for (std::uint32_t i = 0; i < 64; ++i) {
        if (key[i] < 0) continue;
        if (best < 0 || key[i] < best || (key[i] == best && i < best_id)) {
          best = key[i];
          best_id = i;
        }
      }
      ASSERT_GE(best, 0.0);
      EXPECT_EQ(e.id, best_id);
      EXPECT_DOUBLE_EQ(e.key, best);
      key[best_id] = -1.0;
    }
  }
}

// --------------------------------------------------------- InlineAction

TEST(InlineAction, InvokesSmallInlineCallable) {
  int hits = 0;
  sim::InlineAction a([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, MovePreservesCallableAndEmptiesSource) {
  int hits = 0;
  sim::InlineAction a([&hits] { ++hits; });
  sim::InlineAction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, LargeCaptureTakesBoxedPathAndWorks) {
  std::array<double, 32> big{};
  big[31] = 2.25;
  double got = 0;
  static_assert(sizeof(big) > sim::InlineAction::kCapacity);
  sim::InlineAction a([big, &got] { got = big[31]; });
  a();
  EXPECT_DOUBLE_EQ(got, 2.25);
}

TEST(InlineAction, ResetDestroysCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim::InlineAction a([token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  a.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineAction, MoveOnlyCapturesSupported) {
  auto owned = std::make_unique<int>(5);
  int got = 0;
  sim::InlineAction a([owned = std::move(owned), &got] { got = *owned; });
  sim::InlineAction b = std::move(a);
  b();
  EXPECT_EQ(got, 5);
}

TEST(InlineAction, MoveAssignmentReleasesPreviousCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim::InlineAction a([token = std::move(token)] {});
  a = sim::InlineAction([] {});
  EXPECT_TRUE(watch.expired());
  a();  // still callable
}

}  // namespace
}  // namespace ispn

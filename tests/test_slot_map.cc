// util::SlotMap and util::DirectMapCache unit tests.
//
// SlotMap is the compact FlowId -> dense-slot remap behind every
// per-flow vector in the schedulers and hosts: memory must scale with
// ACTIVE flow count, slots must recycle LIFO, and the table must behave
// identically for dense and wildly sparse key sets.  DirectMapCache is
// the DEC-TR-592-style flow-locality memo on the per-packet lookup paths;
// its counters must be an exact function of the probe sequence.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "util/direct_map_cache.h"
#include "util/slot_map.h"

namespace ispn {
namespace {

TEST(SlotMap, AcquireAssignsDenseSlotsInOrder) {
  util::SlotMap m;
  EXPECT_EQ(m.acquire(100), 0u);
  EXPECT_EQ(m.acquire(-5), 1u);
  EXPECT_EQ(m.acquire(70000), 2u);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.slot_limit(), 3u);
  // Re-acquire returns the existing slot.
  EXPECT_EQ(m.acquire(100), 0u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(SlotMap, FindMissesReturnNoSlot) {
  util::SlotMap m;
  EXPECT_EQ(m.find(3), util::SlotMap::kNoSlot);
  m.acquire(3);
  EXPECT_EQ(m.find(3), 0u);
  EXPECT_EQ(m.find(4), util::SlotMap::kNoSlot);
}

TEST(SlotMap, ReleaseRecyclesSlotsLifo) {
  util::SlotMap m;
  for (int k = 0; k < 8; ++k) m.acquire(k * 1000);
  m.release(2000);
  m.release(5000);
  EXPECT_EQ(m.size(), 6u);
  // LIFO: the most recently released slot is handed out first.
  EXPECT_EQ(m.acquire(42), 5u);
  EXPECT_EQ(m.acquire(43), 2u);
  // No recycled slots left: the next key extends the dense range.
  EXPECT_EQ(m.acquire(44), 8u);
  EXPECT_EQ(m.slot_limit(), 9u);
}

// The sparse-FlowId regression shape: ids {3, 70000} must cost two slots,
// not 70001 (the dense-vector bug this structure replaces).
TEST(SlotMap, SparseKeysStayCompact) {
  util::SlotMap m;
  EXPECT_EQ(m.acquire(3), 0u);
  EXPECT_EQ(m.acquire(70000), 1u);
  EXPECT_EQ(m.slot_limit(), 2u);
  EXPECT_EQ(m.find(3), 0u);
  EXPECT_EQ(m.find(70000), 1u);
}

TEST(SlotMap, MatchesMapReferenceUnderChurn) {
  util::SlotMap m;
  std::map<std::int32_t, std::uint32_t> ref;
  std::vector<std::uint32_t> free_ref;  // mirror of the LIFO freelist
  std::uint32_t limit = 0;
  std::mt19937_64 rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::int32_t>(rng() % 4096) * 97;
    if (rng() % 3 != 0) {
      const std::uint32_t got = m.acquire(key);
      auto it = ref.find(key);
      if (it != ref.end()) {
        EXPECT_EQ(got, it->second);
      } else {
        std::uint32_t want;
        if (!free_ref.empty()) {
          want = free_ref.back();
          free_ref.pop_back();
        } else {
          want = limit++;
        }
        EXPECT_EQ(got, want);
        ref[key] = want;
      }
    } else {
      auto it = ref.find(key);
      if (it != ref.end()) {
        m.release(key);
        free_ref.push_back(it->second);
        ref.erase(it);
      }
      EXPECT_EQ(m.find(key), util::SlotMap::kNoSlot);
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [key, slot] : ref) EXPECT_EQ(m.find(key), slot);
}

TEST(SlotMap, GrowsThroughRehash) {
  util::SlotMap m;
  for (int k = 0; k < 5000; ++k) {
    ASSERT_EQ(m.acquire(k * 7919), static_cast<std::uint32_t>(k));
  }
  for (int k = 0; k < 5000; ++k) {
    ASSERT_EQ(m.find(k * 7919), static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(m.size(), 5000u);
}

TEST(DirectMapCache, HitsAndMissesCount) {
  util::DirectMapCache<std::int32_t, int> c;
  EXPECT_EQ(c.lookup(7), nullptr);
  EXPECT_EQ(c.misses(), 1u);
  c.insert(7, 70);
  int* v = c.lookup(7);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 70);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(DirectMapCache, ConflictingKeysEvict) {
  // A 2^2-entry cache: keys hashing to the same line evict each other.
  util::DirectMapCache<std::int32_t, int> c(2);
  ASSERT_EQ(c.entries(), 4u);
  // Probe a working set larger than the cache: every key still returns
  // the value most recently inserted for it (never a stale line).
  for (int round = 0; round < 3; ++round) {
    for (std::int32_t k = 0; k < 16; ++k) {
      if (int* v = c.lookup(k)) {
        EXPECT_EQ(*v, k * 10);
      } else {
        c.insert(k, k * 10);
      }
    }
  }
  EXPECT_GT(c.misses(), 0u);
}

TEST(DirectMapCache, InvalidateEmptiesEveryLine) {
  util::DirectMapCache<std::int32_t, int> c(4);
  for (std::int32_t k = 0; k < 8; ++k) c.insert(k, k);
  c.invalidate();
  EXPECT_EQ(c.invalidations(), 1u);
  for (std::int32_t k = 0; k < 8; ++k) EXPECT_EQ(c.lookup(k), nullptr);
}

TEST(DirectMapCache, CountersAreDeterministic) {
  // Same probe sequence -> identical counters (the property that lets the
  // determinism suites compare cache counters across shard counts).
  auto run = [] {
    util::DirectMapCache<std::int32_t, int> c;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 50000; ++i) {
      const auto k = static_cast<std::int32_t>(rng() % 1024);
      if (c.lookup(k) == nullptr) c.insert(k, k);
    }
    return std::pair{c.hits(), c.misses()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first + a.second, 50000u);
}

}  // namespace
}  // namespace ispn

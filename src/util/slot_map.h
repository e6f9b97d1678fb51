// SlotMap: a compact key -> dense-slot remap for per-flow state.
//
// The schedulers keep per-flow records in dense vectors.  Indexing those
// vectors by the raw FlowId means one sparse or large id allocates
// O(max_id) entries per link — the million-flow killer this replaces.  A
// SlotMap assigns each key the lowest-numbered free slot on first sight,
// so dense arrays sized by slot_limit() scale with the number of flows
// actually seen, never with the largest id.
//
// Properties the schedulers rely on:
//   - Deterministic: slot assignment is a pure function of the sequence
//     of acquire()/release() calls (first-seen order + LIFO recycling),
//     never of hash layout, so byte-identical call sequences — which the
//     shard-count differential suites already prove — yield identical
//     slots.
//   - Allocation-free steady state: the open-addressing table only grows
//     when the live key count crosses 3/4 load, and the freelist's
//     capacity is reserved alongside it, so churn (acquire/release of a
//     bounded working set) touches no allocator.
//   - Any int32 key is valid, including negatives (net::kNoFlow), which
//     the old `slot_of` id+1 scheme special-cased.
//
// Deletion uses backward-shift (no tombstones), so probe chains stay
// short regardless of churn history.

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace ispn::util {

class SlotMap {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  SlotMap() = default;

  /// Slot of `key`, or kNoSlot if it was never acquired (or was released).
  [[nodiscard]] std::uint32_t find(std::int32_t key) const {
    if (cells_.empty()) return kNoSlot;
    std::size_t i = home_of(key);
    while (cells_[i].slot_plus1 != 0) {
      if (cells_[i].key == key) return cells_[i].slot_plus1 - 1;
      i = (i + 1) & mask_;
    }
    return kNoSlot;
  }

  /// Slot of `key`, assigning the lowest free one (LIFO over released
  /// slots, then the next never-used slot) on first sight.
  std::uint32_t acquire(std::int32_t key) {
    if (cells_.empty()) rehash(kInitialCells);
    std::size_t i = home_of(key);
    while (cells_[i].slot_plus1 != 0) {
      if (cells_[i].key == key) return cells_[i].slot_plus1 - 1;
      i = (i + 1) & mask_;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = slot_limit_++;
    }
    cells_[i] = Cell{key, slot + 1};
    ++active_;
    if (active_ * 4 >= cells_.size() * 3) rehash(cells_.size() * 2);
    return slot;
  }

  /// Frees `key`'s slot for reuse.  Returns false when absent.
  bool release(std::int32_t key) {
    if (cells_.empty()) return false;
    std::size_t i = home_of(key);
    while (true) {
      if (cells_[i].slot_plus1 == 0) return false;
      if (cells_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    free_.push_back(cells_[i].slot_plus1 - 1);
    --active_;
    // Backward-shift the tail of the probe chain into the hole so lookups
    // never need tombstones: an entry may move left only if its home slot
    // is at or before the hole (cyclically).
    std::size_t hole = i;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (cells_[j].slot_plus1 == 0) break;
      const std::size_t home = home_of(cells_[j].key);
      const std::size_t dist_hole = (hole - home) & mask_;
      const std::size_t dist_j = (j - home) & mask_;
      if (dist_hole <= dist_j) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    return true;
  }

  /// Pre-sizes the table (and freelist reserve) for `n` concurrent keys.
  void reserve(std::size_t n) {
    std::size_t want = kInitialCells;
    while (want * 3 < n * 4) want *= 2;
    if (want > cells_.size()) rehash(want);
  }

  /// Keys currently mapped.
  [[nodiscard]] std::size_t size() const { return active_; }

  /// One past the largest slot ever handed out: the size dense per-slot
  /// arrays must have.  Bounded by the peak concurrent key count, never
  /// by the largest key value.
  [[nodiscard]] std::uint32_t slot_limit() const { return slot_limit_; }

 private:
  struct Cell {
    std::int32_t key = 0;
    std::uint32_t slot_plus1 = 0;  // 0 = empty
  };
  static constexpr std::size_t kInitialCells = 16;

  [[nodiscard]] std::size_t home_of(std::int32_t key) const {
    auto h = static_cast<std::uint32_t>(key) * 0x9E3779B9u;
    h ^= h >> 16;
    return h & mask_;
  }

  void rehash(std::size_t new_cells) {
    assert((new_cells & (new_cells - 1)) == 0);
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(new_cells, Cell{});
    mask_ = new_cells - 1;
    // Released-slot count can never exceed the table's load limit, so one
    // reserve here keeps release() allocation-free between rehashes.
    free_.reserve(new_cells);
    for (const Cell& c : old) {
      if (c.slot_plus1 == 0) continue;
      std::size_t i = home_of(c.key);
      while (cells_[i].slot_plus1 != 0) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_;  // released slots, reused LIFO
  std::size_t mask_ = 0;
  std::size_t active_ = 0;
  std::uint32_t slot_limit_ = 0;
};

}  // namespace ispn::util

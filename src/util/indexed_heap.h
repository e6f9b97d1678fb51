// An indexed d-ary min-heap: one entry per small-integer id, re-keyable in
// place.
//
// WFQ-style schedulers keep two orderings whose membership is "at most one
// entry per flow": the fluid departure epochs (keyed by the flow's largest
// finish tag, re-keyed on every arrival) and the head-of-flow finish tags
// (re-keyed on every dequeue).  A lazy heap handles re-keying by pushing a
// fresh entry and discarding the superseded one when it surfaces — which
// doubles heap traffic and makes every peek validate against flow state.
// This heap instead tracks each id's position, so upsert() re-keys by
// sifting the existing entry and top() is a plain array read — no stale
// entries, no validation loads, heap size bounded by the number of flows.
//
// Ids are small dense integers (flow ids; position map is a flat vector).
// Ties order by id, matching the std::set<(key, id)> semantics this
// structure replaces.  Not stable beyond that: callers needing FIFO
// tie-breaks fold an arrival counter into Key (the head ordering does).

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ispn::util {

template <typename Key, typename KeyLess, unsigned Arity = 4>
class IndexedDaryHeap {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Entry {
    Key key;
    std::uint32_t id;
  };

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }

  [[nodiscard]] bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] != kNone;
  }

  /// Smallest entry.  Precondition: !empty().
  [[nodiscard]] const Entry& top() const {
    assert(!v_.empty());
    return v_.front();
  }

  /// Inserts `id` with `key`, or re-keys it in place if present.
  void upsert(std::uint32_t id, Key key) {
    if (id >= pos_.size()) pos_.resize(id + 1, kNone);
    const std::uint32_t at = pos_[id];
    if (at == kNone) {
      v_.push_back(Entry{std::move(key), id});
      place_up(v_.size() - 1);
    } else if (less(v_[at], Entry{key, id})) {
      // Key grew (the common case: finish tags are monotone per flow).
      v_[at] = Entry{std::move(key), id};
      place_down(at);
    } else {
      v_[at] = Entry{std::move(key), id};
      place_up(at);
    }
  }

  /// Removes and returns the smallest entry.  Precondition: !empty().
  Entry pop() {
    assert(!v_.empty());
    Entry out = std::move(v_.front());
    pos_[out.id] = kNone;
    Entry last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) {
      v_.front() = std::move(last);
      pos_[v_.front().id] = 0;
      place_down(0);
    }
    return out;
  }

  /// Removes `id` if present; returns true when it was.
  bool erase(std::uint32_t id) {
    if (!contains(id)) return false;
    const std::uint32_t at = pos_[id];
    pos_[id] = kNone;
    Entry last = std::move(v_.back());
    v_.pop_back();
    if (at < v_.size()) {
      const std::uint32_t moved = last.id;
      v_[at] = std::move(last);
      pos_[moved] = at;
      if (at > 0 && less(v_[at], v_[(at - 1) / Arity])) {
        place_up(at);
      } else {
        place_down(at);
      }
    }
    return true;
  }

  void reserve(std::size_t ids) {
    pos_.reserve(ids);
    v_.reserve(ids);
  }

 private:
  bool less(const Entry& a, const Entry& b) const {
    if (key_less_(a.key, b.key)) return true;
    if (key_less_(b.key, a.key)) return false;
    return a.id < b.id;
  }

  /// Restores the heap property downward from `i` (entry already placed).
  void place_down(std::size_t i) {
    const std::size_t n = v_.size();
    Entry value = std::move(v_[i]);
    for (;;) {
      const std::size_t first = i * Arity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + Arity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(v_[c], v_[best])) best = c;
      }
      if (!less(v_[best], value)) break;
      v_[i] = std::move(v_[best]);
      pos_[v_[i].id] = static_cast<std::uint32_t>(i);
      i = best;
    }
    v_[i] = std::move(value);
    pos_[v_[i].id] = static_cast<std::uint32_t>(i);
  }

  /// Restores the heap property upward from `i`.
  void place_up(std::size_t i) {
    Entry value = std::move(v_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!less(value, v_[parent])) break;
      v_[i] = std::move(v_[parent]);
      pos_[v_[i].id] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    v_[i] = std::move(value);
    pos_[v_[i].id] = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> v_;
  std::vector<std::uint32_t> pos_;
  KeyLess key_less_;
};

}  // namespace ispn::util

// A hierarchical timing wheel over integer ticks.
//
// The event core's real-time ordering problem is the classic one solved by
// the Linux kernel's timer wheel (kernel/time/timer.c) and FreeBSD's
// callout wheel (kern/kern_timeout.c): most pending timers sit a short,
// bounded distance in the future, inserts vastly outnumber everything
// else, and O(log n) heap sifts — fine at a few dozen entries — become the
// dominant cost at the thousands of pending events a multi-hop,
// million-packet run keeps in flight.  A wheel makes insert O(1): bucket
// an entry by the highest radix-64 digit in which its tick differs from
// the cursor, and lazily cascade a higher-level bucket into the levels
// below when the cursor enters its range.  Each entry is relinked at most
// once per level, so the amortized per-event cost is a small constant.
//
// Unlike an OS wheel, a discrete-event simulator must pop in *exact*
// (time, seq) order, not merely per-tick order: determinism is the
// contract (the differential harness asserts byte-identical firing order
// against an ordered-map reference model).  Two properties deliver that:
//
//   * tick(t) is monotone in t, so ordering coarsely by tick and exactly
//     within a tick reproduces the global (time, seq) order;
//   * consumption happens through a sorted *run*: when the cursor reaches
//     an occupied level-0 bucket — whose entries all precede every entry
//     still bucketed later or higher — that one tick's entries are pulled
//     into one vector, sorted by the caller's comparator, and consumed
//     through a head index, so popping is an index increment.  The
//     run spans exactly one tick, so only same-instant schedules from
//     inside a firing event land in the live run (placed by binary
//     search); anything even one tick out is an O(1) bucket prepend.
//     Multi-tick runs would memmove every near-future insert — a port
//     re-arming its completion a fixed tx-time out — into the middle of
//     the live run, which at packet rates costs more than all the
//     cascade relinks combined.
//
// Entries scheduled at a tick already passed by the cursor clamp into the
// active run: they sort by the exact comparator against whatever is still
// pending, which is exactly where a heap would surface them.
//
// Ticks beyond the wheel's span (64^kLevels from the cursor — days of
// simulated time at the event core's resolution; in practice only
// kTimeInfinity sentinels) sit in an overflow list that is re-bucketed on
// the rare occasion the cursor exhausts every level.
//
// Storage is an index-linked node pool: buckets are singly-linked lists of
// pool indices, so inserts, cascades and overflow re-homing are pure
// relinks — no per-bucket arrays that could re-grow when a rare alignment
// piles entries into one bucket.  The pool is split structure-of-arrays:
// (tick, next) metadata in one array, keys in another.  Cascade relinks
// read only the 16-byte metadata — at a million pending timers the pool
// outgrows every cache level, and each entry is relinked once per wheel
// level it descends, so halving the bytes a relink touches (and packing 4
// metadata records per cache line instead of ~1.5 full nodes) is a direct
// DRAM-traffic cut on the far-horizon path.  Keys are only read when a
// bucket is pulled into the run.  Both arrays and the run vector only
// ever grow to the high-water mark, so steady state performs zero heap
// allocation (asserted by the alloc-hook tests).  Not thread-safe; the
// simulator is single-threaded by design.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ispn::util {

/// `K` is a small POD key; `Less` a strict weak ordering consistent with
/// the tick mapping (t1 < t2 by Less implies tick(t1) <= tick(t2), which
/// any monotone quantisation of the primary sort field satisfies).
template <typename K, typename Less>
class TimingWheel {
 public:
  using Tick = std::uint64_t;

  /// 6-bit (64-slot) levels, the classic radix.  Wider levels look
  /// attractive at a million pending timers — a far timer descends
  /// fewer levels, so fewer relinks — but measure SLOWER: what matters
  /// is *cold* relinks, and with 64-slot levels every cascade below the
  /// top one re-touches a batch small enough (level-2 ~= a few thousand
  /// ticks' entries, level-1 ~= a few dozen ticks') to still be cache-
  /// resident from the relink above it, so each entry pays ~one DRAM
  /// touch no matter how many levels it descends.  256-slot levels
  /// stretch the level-1 residency window to 65k ticks, evicting the
  /// batch and turning one cold touch into two (~15% slower on the
  /// million-flow fan-in bench).
  static constexpr unsigned kLevelBits = 6;
  static constexpr unsigned kSlotsPerLevel = 1u << kLevelBits;  // 64
  static constexpr unsigned kLevels = 6;
  /// Ticks covered from the cursor before entries overflow (64^6).
  static constexpr Tick kSpan = Tick{1} << (kLevelBits * kLevels);

  TimingWheel() { buckets_.fill(kNil); }
  explicit TimingWheel(Less less) : less_(std::move(less)) {
    buckets_.fill(kNil);
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] Tick cursor() const { return cursor_; }

  /// Largest sorted run built since the last reset()/drain_into(): how
  /// crowded the worst single tick actually got.  The resolution
  /// adaptation keys off this — occupancy alone cannot distinguish a
  /// same-instant pile-up (huge sort, needs finer ticks) from many events
  /// spread across the horizon (fine as-is; escalating only multiplies
  /// refill work).
  [[nodiscard]] std::size_t max_run_length() const { return max_run_; }

  /// Inserts `k` at `tick`.  Ticks behind the cursor clamp into the active
  /// run (the "next to pop" region, matching heap behaviour).
  ///
  /// Only inserts at the run's own tick (same-instant schedules from a
  /// firing event) binary-place into the sorted run — O(1) at the tail,
  /// O(run) memmove otherwise; everything later is an O(1) bucket
  /// prepend.  If a future workload piles thousands of out-of-order keys
  /// into single ticks, raise the tick resolution (see
  /// EventQueue::kTicksPerSec) before reaching for a cleverer run
  /// structure.
  void insert(const K& k, Tick tick) {
    ++count_;
    if (tick < run_limit_ && run_active_) {
      // Inside the active window: the run is already sorted (and possibly
      // partially consumed); binary-place so the next peek stays O(1).
      const auto pos =
          std::lower_bound(run_.begin() + static_cast<std::ptrdiff_t>(head_),
                           run_.end(), k, less_);
      run_.insert(pos, k);
      max_run_ = std::max(max_run_, run_.size() - head_);
      return;
    }
    const std::uint32_t n = acquire_node();
    meta_[n].tick = tick < cursor_ ? cursor_ : tick;
    keys_[n] = k;
    link(n);
  }

  /// The entry `ahead` positions past the front, but ONLY if it is
  /// already sitting in the sorted run — nullptr otherwise (never
  /// advances the cursor or cascades).  This is the prefetch hook: the
  /// caller can touch state keyed by upcoming entries while the current
  /// one is still being processed, without perturbing ordering.
  [[nodiscard]] const K* peek_ready(std::size_t ahead = 0) const {
    const std::size_t i = head_ + ahead;
    return i < run_.size() ? &run_[i] : nullptr;
  }

  /// Earliest entry by (tick, Less); nullptr iff empty.  Advances the
  /// cursor and cascades higher levels as a side effect (ordering-internal
  /// mutation only, same contract as a heap's lazy sift).
  [[nodiscard]] const K* peek() {
    if (head_ < run_.size()) return &run_[head_];
    if (count_ == 0) return nullptr;
    for (;;) {
      if (run_active_) {
        run_.clear();
        head_ = 0;
        run_active_ = false;
      }
      // The earliest occupied level-0 bucket precedes everything still
      // bucketed later in the window or at level 1 and above.
      const int b =
          find_occupied(0, static_cast<unsigned>(cursor_ & kSlotMask));
      if (b >= 0) {
        pull_tick(static_cast<unsigned>(b));
        return &run_[head_];
      }
      refill();
      if (head_ < run_.size()) return &run_[head_];
    }
  }

  /// Removes the entry peek() would return.  Precondition: !empty().
  K pop_front() {
    const K* k = peek();
    assert(k != nullptr);
    K out = *k;
    ++head_;
    --count_;
    return out;
  }

  /// Moves every pending key into `out` (appended, in no particular
  /// order) and restarts the wheel at `cursor`.  The resolution-adaptation
  /// path: the caller re-inserts each key under a new tick mapping, and
  /// exact (time, seq) pop order is unaffected because ordering within a
  /// window is by the comparator, not the tick.
  void drain_into(std::vector<K>& out, Tick cursor) {
    out.reserve(out.size() + count_);
    for (std::size_t i = head_; i < run_.size(); ++i) out.push_back(run_[i]);
    for (const std::uint32_t head : buckets_) {
      for (std::uint32_t n = head; n != kNil; n = meta_[n].next) {
        out.push_back(keys_[n]);
      }
    }
    for (std::uint32_t n = overflow_; n != kNil; n = meta_[n].next) {
      out.push_back(keys_[n]);
    }
    reset(cursor);
  }

  /// Discards every entry and restarts the wheel at `cursor`.  Keeps pool
  /// and run capacities.
  void reset(Tick cursor) {
    buckets_.fill(kNil);
    occ_.fill(0);
    overflow_ = kNil;
    run_.clear();
    head_ = 0;
    run_active_ = false;
    run_limit_ = 0;
    max_run_ = 0;
    count_ = 0;
    cursor_ = cursor;
    // Rebuild the node freelist wholesale; cheaper than walking lists.
    free_.clear();
    for (std::uint32_t n = 0; n < meta_.size(); ++n) free_.push_back(n);
  }

 private:
  static constexpr Tick kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Per-node bucket-list metadata; the node's key lives in keys_ at the
  /// same index.  Kept key-free so relinks never pull key cache lines.
  struct Meta {
    Tick tick = 0;
    std::uint32_t next = kNil;
  };

  /// 64-bit occupancy words per level (one word at 64 slots; the scan
  /// helpers below generalise to wider levels).
  static constexpr unsigned kOccWords = kSlotsPerLevel / 64;

  [[nodiscard]] std::uint32_t& bucket_at(unsigned level, unsigned idx) {
    return buckets_[level * kSlotsPerLevel + idx];
  }

  void occ_set(unsigned level, unsigned idx) {
    occ_[level * kOccWords + (idx >> 6)] |= Tick{1} << (idx & 63u);
  }

  void occ_clear(unsigned level, unsigned idx) {
    occ_[level * kOccWords + (idx >> 6)] &= ~(Tick{1} << (idx & 63u));
  }

  /// First occupied slot of `level` at or after `from`, or -1.  The
  /// words are cached, so the scan is a handful of cycles.
  [[nodiscard]] int find_occupied(unsigned level, unsigned from) const {
    unsigned wi = from >> 6;
    Tick word = occ_[level * kOccWords + wi] & (~Tick{0} << (from & 63u));
    for (;;) {
      if (word != 0) {
        return static_cast<int>((wi << 6) +
                                static_cast<unsigned>(std::countr_zero(word)));
      }
      if (++wi >= kOccWords) return -1;
      word = occ_[level * kOccWords + wi];
    }
  }

  std::uint32_t acquire_node() {
    std::uint32_t n;
    if (free_.empty()) {
      n = static_cast<std::uint32_t>(meta_.size());
      meta_.emplace_back();
      keys_.emplace_back();
      // Mirror the event slab's trick: keep the freelist able to hold
      // every node so releasing a burst never reallocates.
      free_.reserve(meta_.capacity());
    } else {
      n = free_.back();
      free_.pop_back();
    }
    return n;
  }

  /// Links node `n` into the bucket its tick selects relative to the
  /// cursor, or onto the overflow list.  A tick equal to the active run's
  /// tick never reaches here (insert() places it into the run), so level
  /// 0 only holds ticks strictly ahead of the run.
  void link(std::uint32_t n) {
    const Tick tick = meta_[n].tick;
    const Tick diff = tick ^ cursor_;
    unsigned level = 0;
    if (diff != 0) {
      level =
          (63u - static_cast<unsigned>(std::countl_zero(diff))) / kLevelBits;
      if (level >= kLevels) {
        meta_[n].next = overflow_;
        overflow_ = n;
        return;
      }
    }
    const unsigned idx =
        static_cast<unsigned>((tick >> (level * kLevelBits)) & kSlotMask);
    std::uint32_t& head = bucket_at(level, idx);
    meta_[n].next = head;
    head = n;
    occ_set(level, idx);
  }

  /// Appends a node list's keys to the run, returning the nodes.
  void pull_list(std::uint32_t n) {
    while (n != kNil) {
      const std::uint32_t next = meta_[n].next;
      run_.push_back(keys_[n]);
      free_.push_back(n);
      n = next;
    }
  }

  void finish_run(Tick limit) {
    if (run_.size() > 1) std::sort(run_.begin(), run_.end(), less_);
    max_run_ = std::max(max_run_, run_.size());
    head_ = 0;
    run_active_ = true;
    run_limit_ = limit;
  }

  /// Pulls level-0 bucket `b` (the earliest occupied slot at or past the
  /// cursor) into a sorted run spanning exactly that tick.
  void pull_tick(unsigned b) {
    cursor_ = (cursor_ & ~kSlotMask) | static_cast<Tick>(b);
    pull_list(bucket_at(0, b));
    bucket_at(0, b) = kNil;
    occ_clear(0, b);
    finish_run(cursor_ + 1);
  }

  /// One lazy-cascade step: enter the next occupied bucket of the lowest
  /// non-empty level and relink its entries one level down (level-1
  /// entries spill into level-0 tick buckets, keeping runs single-tick);
  /// the caller rescans from level 0.  An empty wheel with overflow
  /// entries re-homes them.  Precondition: count_ > head_==run
  /// exhausted, level-0 window empty.
  void refill() {
    for (unsigned level = 1; level < kLevels; ++level) {
      const unsigned idx = static_cast<unsigned>(
          (cursor_ >> (level * kLevelBits)) & kSlotMask);
      // Buckets at the cursor's own index hold nothing (their entries
      // cascaded when the cursor entered), so scanning from idx is safe.
      const int found = find_occupied(level, idx);
      if (found < 0) continue;
      const unsigned b = static_cast<unsigned>(found);
      const Tick stride = Tick{1} << (level * kLevelBits);
      cursor_ = (cursor_ & ~(stride * kSlotsPerLevel - 1)) |
                (static_cast<Tick>(b) * stride);
      occ_clear(level, b);
      std::uint32_t n = bucket_at(level, b);
      bucket_at(level, b) = kNil;
      while (n != kNil) {
        const std::uint32_t next = meta_[n].next;
        link(n);  // spills strictly below `level`; pure relink
        n = next;
      }
      return;  // caller rescans from level 0
    }
    // Every level is empty: remaining entries live past the wheel's span.
    assert(overflow_ != kNil);
    rehome_overflow();
  }

  /// Jumps the cursor to the earliest overflow tick and re-buckets every
  /// overflow entry now within the span.  Rare by construction.
  void rehome_overflow() {
    Tick min_tick = meta_[overflow_].tick;
    for (std::uint32_t n = overflow_; n != kNil; n = meta_[n].next) {
      min_tick = std::min(min_tick, meta_[n].tick);
    }
    cursor_ = min_tick;
    std::uint32_t n = overflow_;
    overflow_ = kNil;  // detach: link() may push still-far entries back
    while (n != kNil) {
      const std::uint32_t next = meta_[n].next;
      link(n);
      n = next;
    }
  }

  std::array<std::uint32_t, kLevels * kSlotsPerLevel> buckets_{};
  std::array<Tick, kLevels * kOccWords> occ_{};
  std::uint32_t overflow_ = kNil;
  std::vector<Meta> meta_;  ///< bucket-list links; keys_[i] pairs with meta_[i]
  std::vector<K> keys_;
  std::vector<std::uint32_t> free_;
  std::vector<K> run_;  ///< sorted entries of the active level-0 window
  Tick cursor_ = 0;
  Tick run_limit_ = 0;  ///< first tick past the active window
  std::size_t head_ = 0;  ///< consumed prefix of the run
  bool run_active_ = false;
  std::size_t max_run_ = 0;  ///< high-water run size since reset
  std::size_t count_ = 0;
  Less less_;
};

}  // namespace ispn::util

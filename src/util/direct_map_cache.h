// DirectMapCache: a small direct-mapped memo for hot per-packet lookups.
//
// Jain's DEC-TR-592 measured strong destination-address locality in real
// traffic and found even a trivially small direct-mapped cache captures
// most of it.  This is that scheme: 2^bits entries, each holding the last
// (key, value) pair that hashed there; a lookup is one indexed probe.
//
// The cache is a pure memo in front of an authoritative structure: a hit
// must return exactly what the backing lookup would, so correctness never
// depends on hit/miss behaviour — but the hit/miss counters themselves
// are deterministic (the probe sequence is the packet arrival sequence,
// which the differential suites prove byte-identical across shard counts), so
// they can be exported in reports and compared across runs.
//
// invalidate() clears every entry; call it whenever the backing structure
// changes (e.g. a routing-table rebuild after a link failure).

#pragma once

#include <cstdint>
#include <vector>

namespace ispn::util {

template <typename Key, typename Value>
class DirectMapCache {
 public:
  /// 2^bits entries (default 256 — DEC-TR-592's caches saturate well
  /// below this for locality-bearing traffic).
  explicit DirectMapCache(unsigned bits = 8)
      : mask_((std::size_t{1} << bits) - 1),
        entries_(std::size_t{1} << bits) {}

  /// Pointer to the cached value for `key`, or nullptr on miss.  Counts.
  [[nodiscard]] Value* lookup(Key key) {
    Entry& e = entries_[index_of(key)];
    if (e.valid && e.key == key) {
      ++hits_;
      return &e.value;
    }
    ++misses_;
    return nullptr;
  }

  /// lookup() without touching the hit/miss counters: for speculative
  /// probes (prefetch paths) that must not perturb the deterministic
  /// counter streams the reports export.  Never falls back to the
  /// backing structure — a stale or empty line just returns nullptr.
  [[nodiscard]] const Value* peek(Key key) const {
    const Entry& e = entries_[index_of(key)];
    return (e.valid && e.key == key) ? &e.value : nullptr;
  }

  /// Installs `key -> value`, evicting whatever occupied the line.
  void insert(Key key, Value value) {
    Entry& e = entries_[index_of(key)];
    e.key = key;
    e.value = value;
    e.valid = true;
  }

  /// Drops every entry (backing structure changed).
  void invalidate() {
    for (Entry& e : entries_) e.valid = false;
    ++invalidations_;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }

 private:
  struct Entry {
    Key key{};
    Value value{};
    bool valid = false;
  };

  [[nodiscard]] std::size_t index_of(Key key) const {
    auto h = static_cast<std::uint32_t>(key) * 0x9E3779B9u;
    h ^= h >> 16;
    return h & mask_;
  }

  std::size_t mask_;
  std::vector<Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace ispn::util

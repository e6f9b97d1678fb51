// A slab-backed free list of Packet objects.
//
// Every packet the simulator pushes costs a make_packet(); with plain
// unique_ptr that is one malloc/free pair per packet — the single largest
// per-packet constant factor in the FIFO micro bench.  The pool allocates
// Packet storage in chunks, hands packets out reset-to-default, and takes
// them back through PacketPtr's custom deleter, so steady-state operation
// performs zero heap allocations: acquire is a vector pop, release a
// vector push into capacity reserved at chunk-allocation time.
//
// A pool can be owned per simulation for isolation (pass it to the
// make_packet() overload); the parameterless make_packet() used by the
// traffic sources draws from the process-wide default pool, which is safe
// because the simulator is strictly single-threaded and pooled storage is
// fungible across simulations.
//
// Sharded runs use one pool per domain with enable_concurrent_returns():
// a packet acquired in its source's domain may be delivered (and freed)
// in another domain running on another thread.  Foreign releases then go
// through a Treiber stack threaded through the freed packets' own storage
// (no allocation, no lock); the owning thread reclaims the whole stack
// with one exchange when its local free list runs dry.  acquire() remains
// owner-thread-only.  Without the opt-in the pool is single-threaded as
// before.

#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace ispn::net {

class PacketPool {
 public:
  PacketPool() = default;

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  ~PacketPool() {
    reclaim_foreign();
    // Destroying a pool with packets still in flight would leave their
    // PacketPtrs pointing into freed chunks.
    assert(outstanding() == 0 && "packets still in flight");
  }

  /// Opts in to cross-thread release() (sharded runs).  acquire() stays
  /// owner-thread-only.
  void enable_concurrent_returns() { concurrent_ = true; }

  /// Process-wide default pool (single-threaded use only).
  static PacketPool& global() {
    static PacketPool pool;
    return pool;
  }

  /// Hands out a default-initialised packet.  Recycled storage is reset
  /// field-by-field, so no state leaks between pooled packets.
  PacketPtr acquire() {
    if (free_.empty()) {
      reclaim_foreign();
      if (free_.empty()) grow();
    }
    Packet* p = free_.back();
    free_.pop_back();
    *p = Packet{};
    ++acquired_;
    return PacketPtr(p, PacketDeleter{this});
  }

  /// Returns storage to the free list.  Only called via PacketDeleter with
  /// packets this pool handed out, so the push never exceeds the capacity
  /// reserved in grow() and cannot allocate.  In concurrent mode every
  /// release goes through the lock-free foreign stack — same-thread
  /// releases included, so release() needs no thread-identity check.
  /// Out of line, so each PacketPtr destructor inlines to a null test.
  void release(Packet* p) noexcept;

  /// Packets handed out and not yet returned.
  [[nodiscard]] std::size_t outstanding() const {
    return chunks_.size() * kChunkPackets - free_.size() -
           foreign_count_.load(std::memory_order_acquire);
  }

  /// Total Packet slots ever allocated (the slab high-water mark).
  [[nodiscard]] std::size_t slots() const {
    return chunks_.size() * kChunkPackets;
  }

  /// Total acquire() calls (diagnostic: acquires - slots = reuses).
  [[nodiscard]] std::uint64_t acquires() const { return acquired_; }

 private:
  static constexpr std::size_t kChunkPackets = 256;

  /// Owner-thread only: swallows the whole foreign-return stack into the
  /// local free list.  One exchange claims every node; concurrent pushes
  /// after the exchange start a fresh stack for the next reclaim.
  void reclaim_foreign();

  void grow() {
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
    free_.reserve(chunks_.size() * kChunkPackets);
    Packet* base = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkPackets; ++i) {
      free_.push_back(base + kChunkPackets - 1 - i);  // hand out in order
    }
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
  std::uint64_t acquired_ = 0;
  bool concurrent_ = false;
  // Foreign releases write these from other domains' threads; their own
  // cache line keeps those writes off the line acquire() reads.
  alignas(64) std::atomic<Packet*> foreign_head_{nullptr};
  std::atomic<std::size_t> foreign_count_{0};
};

inline void PacketDeleter::operator()(Packet* p) const noexcept {
  if (pool != nullptr) {
    pool->release(p);
  } else {
    delete p;
  }
}

/// Convenience factory drawing from `pool`.
inline PacketPtr make_packet(PacketPool& pool, FlowId flow, std::uint64_t seq,
                             NodeId src, NodeId dst, sim::Time created,
                             sim::Bits bits = sim::paper::kPacketBits) {
  PacketPtr p = pool.acquire();
  p->flow = flow;
  p->seq = seq;
  p->src = src;
  p->dst = dst;
  p->created_at = created;
  p->size_bits = bits;
  return p;
}

/// Convenience factory on the process-wide default pool.
inline PacketPtr make_packet(FlowId flow, std::uint64_t seq, NodeId src,
                             NodeId dst, sim::Time created,
                             sim::Bits bits = sim::paper::kPacketBits) {
  return make_packet(PacketPool::global(), flow, seq, src, dst, created, bits);
}

/// Duplicates a packet (e.g. per-hop copies in offline analyses).
inline PacketPtr clone_packet(const Packet& src) {
  PacketPtr p = PacketPool::global().acquire();
  *p = src;
  return p;
}

}  // namespace ispn::net

// Cross-domain packet handoff: one mailbox per directed inter-domain link.
//
// The transmitting port's domain is the single producer; the worker that
// owns the destination domain, draining after each window while every
// domain is quiescent, is the single consumer.  A push records the
// arrival instant (transmit-complete time plus the link's propagation
// latency — the same latency the coordinator uses as its lookahead window,
// which is exactly why an arrival can never land inside the window that
// produced it); a drain schedules each entry into the destination domain's
// simulator in push order.
//
// Determinism: within one mailbox, ring order IS push order (SPSC FIFO),
// and the producer's event order is deterministic.  Across mailboxes, a
// destination drains its inbound mailboxes in creation order — a function
// of the topology build order, never of thread scheduling — so equal-time
// arrivals at one domain always get the same event-queue sequence
// numbers, whatever the worker count.
//
// Allocation: the ring is sized at build time from the link's bandwidth-
// delay product (plus slack); a burst that overflows it spills to a
// plain vector on the producer side.  That vector is produce-only during
// a window and read+cleared only in the drain phase, so despite being
// unguarded it is never accessed concurrently (the engine's phase
// hand-off — a release bump of its generation, an acquire of its pending
// count — provides the happens-before).  Steady state stays in the ring:
// zero allocation.

#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "util/spsc_ring.h"

namespace ispn::net {

class LinkMailbox final : public sim::Inbox {
 public:
  /// `latency` is the link's propagation delay (the lookahead the shard
  /// engine synchronizes on); `dst_sim`/`peer` are the receiving domain's
  /// clock and the node the packet is delivered to.
  LinkMailbox(sim::Duration latency, sim::Simulator& dst_sim, Node& peer,
              std::size_t ring_capacity)
      : latency_(latency), dst_sim_(&dst_sim), peer_(&peer),
        ring_(ring_capacity) {}

  /// Undelivered packets (teardown mid-run) go back to their pools so the
  /// pools' outstanding-count accounting stays balanced.
  ~LinkMailbox() {
    Entry e;
    while (ring_.try_pop(e)) PacketPtr(e.packet, PacketDeleter{e.pool});
    for (const Entry& o : overflow_) PacketPtr(o.packet, PacketDeleter{o.pool});
  }

  LinkMailbox(const LinkMailbox&) = delete;
  LinkMailbox& operator=(const LinkMailbox&) = delete;

  /// Producer side (transmitting domain's thread): queues the packet for
  /// arrival at `now + latency`.  Never blocks, never drops.
  void push(PacketPtr p, sim::Time now) {
    Entry e;
    e.arrival = now + latency_;
    e.pool = p.get_deleter().pool;
    e.packet = p.release();
    pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    if (!ring_.try_push(e)) {
      overflow_.push_back(e);
      ++spills_;
    }
    // Ring first, overflow second: the consumer only runs between windows, so
    // once a window spills, ALL later pushes of that window spill too —
    // draining the ring before the vector preserves push order.
  }

  /// Consumer side (drain phase only): schedules every pending arrival
  /// into the destination domain.  Returns the number of packets moved.
  std::size_t drain() override {
    std::size_t n = 0;
    Entry e;
    while (ring_.try_pop(e)) {
      deliver(e);
      ++n;
    }
    if (!overflow_.empty()) {
      for (const Entry& o : overflow_) deliver(o);
      n += overflow_.size();
      overflow_.clear();
    }
    return n;
  }

  /// Barrier-only: true when no packets are waiting.
  [[nodiscard]] bool empty() const {
    return ring_.empty() && overflow_.empty();
  }

  [[nodiscard]] sim::Duration latency() const { return latency_; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_.capacity(); }

  /// Packets pushed but not yet delivered to the destination node: in the
  /// ring/overflow, or drained but still waiting on their arrival event.
  /// The invariant monitor's mid-run conservation audit needs this term —
  /// a packet "on the wire" between domains is in nobody's queue.  Read
  /// only between windows.
  [[nodiscard]] std::uint64_t in_transit() const {
    return pushed_.load(std::memory_order_relaxed) -
           arrived_.load(std::memory_order_relaxed);
  }

  /// Pushes that overflowed the BDP-sized ring onto the spill vector
  /// (lifetime total; the burst-overflow regression test pins this > 0).
  [[nodiscard]] std::uint64_t spills() const { return spills_; }

 private:
  struct Entry {
    sim::Time arrival = 0;
    Packet* packet = nullptr;
    PacketPool* pool = nullptr;
  };

  void deliver(const Entry& e) {
    // 32-byte capture: stays inside InlineAction's inline storage (48).
    // The arrival count rides the arrival event itself, so in_transit()
    // stays exact through the drained-but-not-yet-arrived window.
    Node* peer = peer_;
    Packet* pkt = e.packet;
    PacketPool* pool = e.pool;
    std::atomic<std::uint64_t>* arrived = &arrived_;
    dst_sim_->at(e.arrival, [peer, pkt, pool, arrived] {
      arrived->store(arrived->load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      peer->receive(PacketPtr(pkt, PacketDeleter{pool}));
    });
  }

  sim::Duration latency_;
  sim::Simulator* dst_sim_;
  Node* peer_;
  util::SpscRing<Entry> ring_;
  std::vector<Entry> overflow_;
  std::uint64_t spills_ = 0;  ///< producer-written, read at barriers only
  // Single-writer counters on their own lines, so a cross-domain packet
  // costs no read-modify-write on a line the other side also writes:
  // pushed_ by the producing domain, arrived_ by the destination domain.
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  alignas(64) std::atomic<std::uint64_t> arrived_{0};
};

}  // namespace ispn::net

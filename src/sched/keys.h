// Shared POD ordering keys for the scheduler family.
//
// Every discipline in this layer orders packets by a (double key, arrival
// order) pair, and the slab-parked ones additionally carry the packet's
// PacketSlab slot.  These structs were historically re-declared per
// scheduler (fifo_plus, virtual_clock, wfq, unified); they live here once
// so the heap-entry layout and tie-break semantics cannot drift apart.

#pragma once

#include <cstdint>

#include "net/packet.h"
#include "util/indexed_heap.h"

namespace ispn::sched {

/// The virtual-time ordering structure: the indexed heap is the only one.
/// Kept solely because bench_ispn copies a field of this type between
/// configs.  Delete the enum and its two fields (core::IspnNetwork::Config
/// and UnifiedScheduler::Config) at the next benchmark change; nothing
/// reads them.
enum class OrderBackend { kHeap };

/// Key of a flow's head packet in the packetized WFQ selection: smallest
/// (finish tag, arrival order) transmits next.
struct HeadKey {
  double finish = 0;
  std::uint64_t order = 0;
};

struct HeadLess {
  bool operator()(const HeadKey& a, const HeadKey& b) const {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.order < b.order;
  }
};

/// The head-of-flow ordering used by WFQ and unified.
using HeadOrder = util::IndexedDaryHeap<HeadKey, HeadLess>;

/// Heap entry for a packet parked in a PacketSlab: 24 trivially-copyable
/// bytes ordered by (key, order), so sifts move raw words instead of
/// unique_ptrs.  `key` is whatever the discipline orders by — expected
/// arrival (FIFO+, unified's predicted classes), stamp (VirtualClock).
struct SlabEntry {
  double key = 0;
  std::uint64_t order = 0;      // arrival tie-break
  std::uint32_t slot = 0;       // packet's PacketSlab slot
};

struct SlabEntryLess {
  bool operator()(const SlabEntry& a, const SlabEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.order < b.order;
  }
};

}  // namespace ispn::sched

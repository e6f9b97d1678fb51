// PacketPool's release paths, kept out of line: inlined into PacketDeleter
// they made every ~PacketPtr too large to inline (the library is built
// without LTO).

#include "net/packet_pool.h"

#include <cstring>

namespace ispn::net {

void PacketPool::release(Packet* p) noexcept {
  if (concurrent_) {
    Packet* head = foreign_head_.load(std::memory_order_relaxed);
    do {
      // The freed packet's own bytes hold the intrusive next pointer;
      // acquire() overwrites them with a fresh Packet anyway.
      std::memcpy(static_cast<void*>(p), &head, sizeof head);
    } while (!foreign_head_.compare_exchange_weak(
        head, p, std::memory_order_release, std::memory_order_relaxed));
    foreign_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  assert(free_.size() < free_.capacity());
  free_.push_back(p);
}

void PacketPool::reclaim_foreign() {
  Packet* p = foreign_head_.exchange(nullptr, std::memory_order_acquire);
  std::size_t n = 0;
  while (p != nullptr) {
    Packet* next = nullptr;
    std::memcpy(&next, static_cast<void*>(p), sizeof next);
    assert(free_.size() < free_.capacity());
    free_.push_back(p);
    p = next;
    ++n;
  }
  if (n != 0) foreign_count_.fetch_sub(n, std::memory_order_relaxed);
}

}  // namespace ispn::net

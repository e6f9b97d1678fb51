#include "sched/unified.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace ispn::sched {

UnifiedScheduler::UnifiedScheduler(Config config)
    : config_(config),
      flow0_weight_(config.link_rate),
      clock_(config.link_rate, FluidClock::Flow0Policy::kTracked),
      flow0_inv_weight_(1.0 / config.link_rate) {
  assert(config_.link_rate > 0);
  assert(config_.num_predicted_classes >= 1);
  classes_.reserve(static_cast<std::size_t>(config_.num_predicted_classes));
  for (int i = 0; i < config_.num_predicted_classes; ++i) {
    classes_.push_back(PredictedClass{{}, stats::Ewma(config_.avg_gain)});
  }
}

void UnifiedScheduler::add_guaranteed(net::FlowId flow, sim::Rate rate) {
  assert(rate > 0);
  assert(flow >= 0 && "guaranteed flow ids must be non-negative");
  const std::uint32_t slot = g_slots_.acquire(flow);
  if (slot >= guaranteed_.size()) guaranteed_.resize(slot + 1);
  GFlow& g = guaranteed_[slot];
  assert(g.rate == 0 && "flow already registered");
  g.rate = rate;
  g.inv_rate = 1.0 / rate;
  g.last_finish = 0;
  guaranteed_rate_ += rate;
  flow0_weight_ = config_.link_rate - guaranteed_rate_;
  assert(flow0_weight_ > 0 &&
         "guaranteed clock rates must leave bandwidth for flow 0");
  flow0_inv_weight_ = 1.0 / flow0_weight_;
  // Dynamic admission: if flow 0 is currently fluid-backlogged its weight
  // contribution must track the new value (the clock's kTracked policy).
  clock_.reweight(kFlow0Heap, flow0_weight_);
}

void UnifiedScheduler::remove_guaranteed(net::FlowId flow) {
  const std::uint32_t slot = find_gslot(flow);
  assert(slot != util::SlotMap::kNoSlot && "flow not registered");
  GFlow& g = guaranteed_[slot];
  assert(g.queue.empty() && "drain the flow before removing it");
  clock_.retire(heap_id(slot));
  guaranteed_rate_ -= g.rate;
  flow0_weight_ = config_.link_rate - guaranteed_rate_;
  flow0_inv_weight_ = 1.0 / flow0_weight_;
  clock_.reweight(kFlow0Heap, flow0_weight_);
  g.rate = 0;
  g.inv_rate = 0;
  g.last_finish = 0;
  // Recycle the slot; its Ring keeps its capacity for the next tenant, so
  // churn over a bounded flow population allocates nothing.
  g_slots_.release(flow);
}

void UnifiedScheduler::expel_guaranteed(
    net::FlowId flow, sim::Time now,
    const std::function<void(net::PacketPtr, sim::Time)>& sink) {
  clock_.advance(now);
  const std::uint32_t slot = find_gslot(flow);
  assert(slot != util::SlotMap::kNoSlot && "flow not registered");
  GFlow& g = guaranteed_[slot];
  while (!g.queue.empty()) {
    Tagged head = g.queue.pop_front();
    bits_ -= head.packet->size_bits;
    --total_packets_;
    sink(std::move(head.packet), now);
  }
  heads_.erase(heap_id(slot));
  remove_guaranteed(flow);
}

void UnifiedScheduler::flush(
    const std::function<void(net::PacketPtr, sim::Time)>& sink,
    sim::Time now) {
  flushing_ = true;
  Scheduler::flush(sink, now);
  flushing_ = false;
}

void UnifiedScheduler::set_link_rate(sim::Rate rate, sim::Time now) {
  assert(rate > 0);
  assert(rate > guaranteed_rate_ &&
         "shed guaranteed flows before re-rating below their reserved sum");
  // Advance V(t) to the change instant under the OLD rate, so the slope
  // change is exact rather than retroactive.
  clock_.advance(now);
  config_.link_rate = rate;
  clock_.set_link_rate(rate);
  flow0_weight_ = rate - guaranteed_rate_;
  flow0_inv_weight_ = 1.0 / flow0_weight_;
  clock_.reweight(kFlow0Heap, flow0_weight_);
}

bool UnifiedScheduler::self_check(std::string* why) const {
  auto fail = [why](const char* what) {
    if (why != nullptr) *why = what;
    return false;
  };
  std::size_t flow0_pkts = datagram_.size();
  for (const auto& cls : classes_) flow0_pkts += cls.queue.size();
  std::size_t queued = flow0_pkts;
  sim::Rate reserved = 0;
  for (const auto& g : guaranteed_) {
    queued += g.queue.size();
    reserved += g.rate;
  }
  if (queued != total_packets_) {
    return fail("queued packet sum disagrees with total_packets");
  }
  if (flow0_tags_.size() != flow0_pkts) {
    return fail("flow-0 tag count disagrees with flow-0 packet count");
  }
  // Floating sums drift one ulp per churn event; scale tolerance to mu.
  if (std::abs(reserved - guaranteed_rate_) > 1e-6 * config_.link_rate) {
    return fail("guaranteed_rate disagrees with registered clock rates");
  }
  if (std::abs((config_.link_rate - guaranteed_rate_) - flow0_weight_) >
      1e-6 * config_.link_rate) {
    return fail("flow-0 weight disagrees with mu - sum(r_alpha)");
  }
  if (flow0_weight_ <= 0) return fail("flow-0 weight is non-positive");
  return true;
}

void UnifiedScheduler::set_predicted_priority(net::FlowId flow, int level) {
  // Hierarchical mode keeps zero per-flow predicted state: the class is
  // whatever the packet carries in (service, priority).
  if (config_.hierarchical) return;
  assert(level >= 0 && level < config_.num_predicted_classes);
  assert(flow >= 0 && "predicted flow ids must be non-negative");
  const std::uint32_t slot = p_slots_.acquire(flow);
  if (slot >= predicted_priority_.size()) {
    predicted_priority_.resize(slot + 1, kNoLevel);
  }
  predicted_priority_[slot] = static_cast<std::int16_t>(level);
}

int UnifiedScheduler::classify(const net::Packet& p) const {
  const int kDatagramLevel = config_.num_predicted_classes;
  if (p.service == net::ServiceClass::kDatagram) return kDatagramLevel;
  if (!config_.hierarchical) {
    const std::uint32_t slot = p_slots_.find(p.flow);
    if (slot != util::SlotMap::kNoSlot &&
        predicted_priority_[slot] != kNoLevel) {
      return predicted_priority_[slot];
    }
  }
  if (p.service == net::ServiceClass::kPredicted) {
    return std::min<int>(p.priority, config_.num_predicted_classes - 1);
  }
  return kDatagramLevel;  // unregistered, unclassed traffic is best effort
}

double UnifiedScheduler::virtual_time(sim::Time now) {
  clock_.advance(now);
  return clock_.vtime();
}

std::size_t UnifiedScheduler::class_packets(int level) const {
  if (level == config_.num_predicted_classes) return datagram_.size();
  return classes_.at(static_cast<std::size_t>(level)).queue.size();
}

void UnifiedScheduler::enqueue(net::PacketPtr p, sim::Time now) {
  clock_.advance(now);

  const std::uint32_t gslot = p->service == net::ServiceClass::kGuaranteed
                                  ? find_gslot(p->flow)
                                  : util::SlotMap::kNoSlot;
  GFlow* g = gslot != util::SlotMap::kNoSlot ? &guaranteed_[gslot] : nullptr;

  const sim::Bits size = p->size_bits;
  const std::uint64_t order = arrivals_++;

  if (g != nullptr) {
    const double finish = clock_.stamp(heap_id(gslot), g->last_finish, size,
                                       g->rate, g->inv_rate);
    g->last_finish = finish;
    if (g->queue.empty()) {
      heads_.upsert(heap_id(gslot), HeadKey{finish, order});
    }
    g->queue.push_back(Tagged{std::move(p), finish, order});
  } else {
    // Flow 0: one tag per packet, in arrival order; the packet itself goes
    // into its class queue.
    const double finish = clock_.stamp(kFlow0Heap, flow0_last_finish_, size,
                                       flow0_weight_, flow0_inv_weight_);
    flow0_last_finish_ = finish;
    if (flow0_tags_.empty()) {
      heads_.upsert(kFlow0Heap, HeadKey{finish, order});
    }
    flow0_tags_.push_back({finish, order});

    const int level = classify(*p);
    if (level == config_.num_predicted_classes) {
      if (config_.binary_feedback) {
        // DEC-TR-506 sampling instant: this arrival compares the cycle's
        // time-averaged datagram queue length (excluding itself) to the
        // threshold and carries the verdict as its congestion mark.
        dg_account(now);
        const double elapsed = now - dg_cycle_start_;
        const double avg = elapsed > 0
                               ? dg_area_ / elapsed
                               : static_cast<double>(datagram_.size());
        ++mark_samples_;
        if (avg >= config_.mark_threshold) {
          p->cong_mark = true;
          ++cong_marks_;
        }
      }
      datagram_.push_back(std::move(p));
    } else {
      auto& cls = classes_[static_cast<std::size_t>(level)];
      const double expected = p->enqueued_at - p->jitter_offset;
      cls.queue.push(SlabEntry{expected, order, slab_.put(std::move(p))});
    }
  }

  ++total_packets_;
  bits_ += size;

  if (total_packets_ > config_.capacity_pkts) {
    net::PacketPtr victim = pushout_flow0(now);
    if (victim != nullptr) {
      drop(std::move(victim), now);
    } else if (g != nullptr) {
      // Pathological: buffer full of guaranteed packets.  Drop the newest
      // packet of the arriving flow (i.e. the arrival itself).
      Tagged last = g->queue.pop_back();
      if (g->queue.empty()) heads_.erase(heap_id(gslot));
      bits_ -= last.packet->size_bits;
      --total_packets_;
      drop(std::move(last.packet), now);
    }
  }
}

net::PacketPtr UnifiedScheduler::pushout_flow0(sim::Time now) {
  net::PacketPtr victim;
  if (!datagram_.empty()) {
    // Prefer the newest less-important datagram packet (§10), else the
    // newest outright.
    std::size_t chosen = datagram_.size() - 1;
    for (std::size_t i = datagram_.size(); i-- > 0;) {
      if (datagram_[i]->less_important) {
        chosen = i;
        break;
      }
    }
    if (config_.binary_feedback) dg_account(now);
    victim = datagram_.erase_at(chosen);
    if (config_.binary_feedback && datagram_.empty()) dg_reset_cycle(now);
  } else {
    for (int level = config_.num_predicted_classes - 1; level >= 0; --level) {
      auto& cls = classes_[static_cast<std::size_t>(level)];
      if (cls.queue.empty()) continue;
      // Newest less-important packet first (§10 drop preference), falling
      // back to the newest packet of the class.  The heap array is scanned
      // linearly — overflow is the cold path.
      const auto& raw = cls.queue.raw();
      const SlabEntryLess less{};
      std::size_t newest = 0;
      std::size_t chosen = raw.size();  // npos
      for (std::size_t i = 0; i < raw.size(); ++i) {
        if (less(raw[newest], raw[i])) newest = i;
        if (slab_.peek(raw[i].slot).less_important &&
            (chosen == raw.size() || less(raw[chosen], raw[i]))) {
          chosen = i;
        }
      }
      victim = slab_.take(
          cls.queue.remove_at(chosen == raw.size() ? newest : chosen).slot);
      break;
    }
  }
  if (victim == nullptr) return nullptr;

  // Retire the *newest* tag: flow 0 keeps its earlier transmission
  // entitlements (conservative for guaranteed flows, which see flow 0 as
  // at-most-this-busy).
  assert(!flow0_tags_.empty());
  flow0_tags_.pop_back();
  if (flow0_tags_.empty()) heads_.erase(kFlow0Heap);

  bits_ -= victim->size_bits;
  --total_packets_;
  return victim;
}

void UnifiedScheduler::retire_tag_for_discard() {
  // Called mid-dequeue: the heads_ entry is already gone, so only the tag
  // queue needs adjusting.  The discarded packet's entitlement is retired
  // from the back (latest finish tag), conservatively.  When the discard
  // is the last flow-0 packet, the front tag popped at the start of the
  // dequeue already covers it.
  if (!flow0_tags_.empty()) flow0_tags_.pop_back();
}

net::PacketPtr UnifiedScheduler::pop_flow0(sim::Time now) {
  for (int level = 0; level < config_.num_predicted_classes; ++level) {
    auto& cls = classes_[static_cast<std::size_t>(level)];
    while (!cls.queue.empty()) {
      net::PacketPtr p = slab_.take(cls.queue.pop().slot);
      // §10 stale discard: the offset says this packet is already far
      // behind its class's average service; drop it and serve the next.
      // Suppressed during a flush — the flush sink owns every packet.
      if (!flushing_ && p->jitter_offset > config_.stale_offset_threshold) {
        ++stale_discards_;
        bits_ -= p->size_bits;
        --total_packets_;
        retire_tag_for_discard();
        if (discard_hook_) discard_hook_(*p, now);
        // A stale discard is a loss like any other: report it through the
        // DropSink so Port::drops() and the per-flow stats stay complete
        // at merge points (they used to see enqueue-time drops only).
        drop(std::move(p), now);
        continue;
      }
      const sim::Duration wait = now - p->enqueued_at;
      if (config_.fifo_plus && !flushing_) {
        const double avg = cls.avg.update(wait);
        p->jitter_offset += wait - avg;
      }
      if (observer_ && !flushing_) observer_(level, wait, now);
      return p;
    }
  }
  if (!datagram_.empty()) {
    if (config_.binary_feedback) dg_account(now);
    net::PacketPtr p = datagram_.pop_front();
    if (config_.binary_feedback && datagram_.empty()) dg_reset_cycle(now);
    if (observer_ && !flushing_) {
      observer_(config_.num_predicted_classes, now - p->enqueued_at, now);
    }
    return p;
  }
  return nullptr;
}

net::PacketPtr UnifiedScheduler::dequeue(sim::Time now) {
  if (total_packets_ == 0) return nullptr;
  clock_.advance(now);

  while (!heads_.empty()) {
    const auto entry = heads_.pop();

    if (entry.id == kFlow0Heap) {
      assert(!flow0_tags_.empty() &&
             flow0_tags_.front().second == entry.key.order);
      flow0_tags_.pop_front();
      net::PacketPtr p = pop_flow0(now);
      if (p == nullptr) {
        // Every flow-0 packet was discarded as stale; tag accounting has
        // been settled by retire_tag_for_discard().  Try the next head.
        assert(flow0_tags_.empty());
        continue;
      }
      if (!flow0_tags_.empty()) {
        heads_.upsert(kFlow0Heap, HeadKey{flow0_tags_.front().first,
                                          flow0_tags_.front().second});
      }
      bits_ -= p->size_bits;
      --total_packets_;
      return p;
    }

    GFlow& g = guaranteed_[entry.id - 1];
    assert(!g.queue.empty());
    Tagged head = g.queue.pop_front();
    if (!g.queue.empty()) {
      const Tagged& next = g.queue.front();
      heads_.upsert(entry.id, HeadKey{next.finish, next.order});
    }
    bits_ -= head.packet->size_bits;
    --total_packets_;
    return std::move(head.packet);
  }
  return nullptr;  // everything queued was discarded as stale
}

}  // namespace ispn::sched

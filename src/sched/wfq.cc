#include "sched/wfq.h"

#include <cassert>
#include <utility>

namespace ispn::sched {

WfqScheduler::WfqScheduler(Config config)
    : config_(config),
      clock_(config.link_rate, FluidClock::Flow0Policy::kPinned) {
  assert(config_.link_rate > 0);
  assert(config_.default_weight > 0);
}

void WfqScheduler::add_flow(net::FlowId flow, double weight) {
  assert(weight > 0);
  const std::uint32_t slot = slots_.acquire(flow);
  Flow& f = flow_ref(slot);
  assert(!clock_.backlogged(slot) && f.queue.empty() &&
         "cannot re-weight a backlogged flow");
  f.weight = weight;
  f.inv_weight = 1.0 / weight;
}

double WfqScheduler::weight(net::FlowId flow) const {
  const std::uint32_t slot = slots_.find(flow);
  if (slot == util::SlotMap::kNoSlot) return config_.default_weight;
  return flows_[slot].weight;
}

WfqScheduler::Flow& WfqScheduler::flow_ref(std::uint32_t idx) {
  if (idx >= flows_.size()) {
    const std::size_t old_size = flows_.size();
    flows_.resize(idx + 1);
    for (std::size_t i = old_size; i < flows_.size(); ++i) {
      flows_[i].weight = config_.default_weight;
      flows_[i].inv_weight = 1.0 / config_.default_weight;
    }
  }
  return flows_[idx];
}

double WfqScheduler::virtual_time(sim::Time now) {
  clock_.advance(now);
  return clock_.vtime();
}

void WfqScheduler::enqueue(net::PacketPtr p, sim::Time now) {
  clock_.advance(now);

  const std::uint32_t slot = slots_.acquire(p->flow);
  Flow& f = flow_ref(slot);

  const double finish =
      clock_.stamp(slot, f.last_finish, p->size_bits, f.weight, f.inv_weight);
  f.last_finish = finish;

  const std::uint64_t order = arrivals_++;
  if (f.queue.empty()) heads_.upsert(slot, HeadKey{finish, order});
  bits_ += p->size_bits;
  ++total_packets_;
  f.queue.push_back(Tagged{std::move(p), finish, order});

  if (total_packets_ > config_.capacity_pkts) {
    // Buffer policy from the original Fair Queueing paper: drop the newest
    // packet of the flow with the largest backlog, so a flooding source
    // cannot starve conforming flows of buffer space.  Tags and fluid
    // state are left as-is (conservative: the flow looks at most busier).
    std::uint32_t victim_slot = slot;
    std::size_t longest = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (flows_[i].queue.size() > longest) {
        longest = flows_[i].queue.size();
        victim_slot = static_cast<std::uint32_t>(i);
      }
    }
    Flow& victim_flow = flows_[victim_slot];
    Tagged victim = victim_flow.queue.pop_back();
    if (victim_flow.queue.empty()) heads_.erase(victim_slot);
    bits_ -= victim.packet->size_bits;
    --total_packets_;
    drop(std::move(victim.packet), now);
  }
}

net::PacketPtr WfqScheduler::dequeue(sim::Time now) {
  if (total_packets_ == 0) return nullptr;
  clock_.advance(now);

  assert(!heads_.empty());
  const std::uint32_t id = heads_.pop().id;
  Flow& f = flows_[id];
  assert(!f.queue.empty());
  Tagged head = f.queue.pop_front();
  if (!f.queue.empty()) {
    const Tagged& next = f.queue.front();
    heads_.upsert(id, HeadKey{next.finish, next.order});
  }
  bits_ -= head.packet->size_bits;
  --total_packets_;
  return std::move(head.packet);
}

}  // namespace ispn::sched

#include "traffic/tcp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace ispn::traffic {

namespace {

CcParams make_cc_params(const TcpSource::Config& c) {
  CcParams p;
  p.algo = c.cc;
  p.initial_cwnd = c.initial_cwnd;
  p.initial_ssthresh = c.initial_ssthresh;
  p.max_cwnd = c.max_cwnd;
  return p;
}

/// Power-of-two ring capacity strictly above the maximum window, so
/// outstanding segments never alias an index.
std::uint64_t ring_capacity(double max_cwnd) {
  const auto need = 2 * (static_cast<std::uint64_t>(max_cwnd) + 2);
  std::uint64_t cap = 2;
  while (cap < need) cap <<= 1;
  return cap;
}

}  // namespace

// ---------------------------------------------------------------- sender --

TcpSource::TcpSource(sim::Simulator& sim, Config config, net::FlowId flow,
                     net::NodeId src, net::NodeId dst, EmitFn emit,
                     net::FlowStats* stats)
    : Source(sim, flow, src, dst, std::move(emit), stats, std::nullopt),
      config_(config),
      cc_(make_cc_params(config)),
      sent_at_(ring_capacity(config.max_cwnd), 0.0),
      ring_mask_(sent_at_.size() - 1),
      rto_(config.initial_rto),
      rto_timer_(sim, [this] { on_rto(); }),
      pace_timer_(sim, [this] { on_pace(); }),
      reorder_timer_(sim, [this] { on_reorder(); }),
      fb_wnd_(config.max_cwnd),
      fb_round_len_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(config.initial_cwnd))) {}

void TcpSource::start(sim::Time at) {
  start_pending_ = true;
  sim_.at(at, [this] {
    start_pending_ = false;
    if (stopped_) return;
    running_ = true;
    send_available();
  });
}

void TcpSource::stop() {
  stopped_ = true;
  running_ = false;
  rto_timer_.disarm();
  pace_timer_.disarm();
  reorder_timer_.disarm();
}

std::uint64_t TcpSource::window() const {
  double w = std::min(cc_.cwnd(), config_.max_cwnd);
  if (config_.binary_feedback) w = std::min(w, fb_wnd_);
  const auto iw = static_cast<std::uint64_t>(w);
  return iw == 0 ? 1 : iw;
}

void TcpSource::send_segment(std::uint64_t seq, bool is_retransmit) {
  const sim::Time now = sim_.now();
  auto p = pool() != nullptr
               ? net::make_packet(*pool(), flow(), seq, src(), dst(), now,
                                  config_.packet_bits)
               : net::make_packet(flow(), seq, src(), dst(), now,
                                  config_.packet_bits);
  p->service = service();
  p->priority = priority();
  p->path_epoch = epoch();
  if (stats() != nullptr) {
    ++stats()->generated;
    ++stats()->injected;
  }
  sent_at_[seq & ring_mask_] = now;
  ++sent_segments_;
  if (is_retransmit) {
    ++retransmits_;
    // Karn's rule: a retransmitted sequence must not produce an RTT sample.
    if (timing_ && timed_seq_ == seq) timing_ = false;
  } else if (!timing_) {
    timing_ = true;
    timed_seq_ = seq;
    timed_sent_at_ = now;
  }
  emit_packet(std::move(p));
}

void TcpSource::send_available() {
  if (!running_) return;
  if (cc_.paced() && cc_.pacing_rate() > 0) {
    schedule_pacing(sim_.now());
  } else {
    while (inflight() < window()) {
      send_segment(next_seq_, /*is_retransmit=*/false);
      ++next_seq_;
    }
  }
  if (inflight() > 0 && !rto_timer_.pending()) arm_rto();
}

void TcpSource::schedule_pacing(sim::Time now) {
  if (pace_timer_.pending()) return;
  if (inflight() >= window()) return;  // an ACK will reopen the spigot
  pace_timer_.arm_at(std::max(now, next_pace_time_));
}

void TcpSource::on_pace() {
  if (!running_) return;
  if (inflight() >= window()) return;  // re-scheduled from the next ACK
  send_segment(next_seq_, /*is_retransmit=*/false);
  ++next_seq_;
  const sim::Time now = sim_.now();
  const double rate = cc_.pacing_rate();
  if (rate > 0) {
    next_pace_time_ = std::max(now, next_pace_time_) + 1.0 / rate;
    if (inflight() < window()) pace_timer_.arm_at(next_pace_time_);
  } else if (inflight() < window()) {
    send_available();  // model went quiet: fall back to window release
  }
  if (inflight() > 0 && !rto_timer_.pending()) arm_rto();
}

void TcpSource::arm_rto() {
  // Anchor the timer at the EARLIEST outstanding transmission, not at now:
  // an ACK for newer data must not push the oldest segment's deadline out.
  // (The old `arm_after(rto_)` rule quietly granted the first un-acked
  // segment a fresh full RTO on every ACK; pinned by RtoRearm* in
  // test_tcp.)
  const sim::Time now = sim_.now();
  const sim::Time base =
      inflight() > 0 ? sent_at_[snd_una_ & ring_mask_] : now;
  rto_timer_.arm_at(std::max(now, base + rto_));
}

void TcpSource::on_rto() {
  if (!running_ || inflight() == 0) return;
  ++timeouts_;
  dup_acks_ = 0;
  in_recovery_ = false;
  cc_.on_rto();
  rto_ = std::min(rto_ * 2.0, config_.max_rto);  // exponential backoff
  timing_ = false;
  reorder_timer_.disarm();
  // Go-back-N from the first hole.
  next_seq_ = snd_una_;
  send_segment(next_seq_, /*is_retransmit=*/true);
  ++next_seq_;
  arm_rto();
}

void TcpSource::arm_reorder(sim::Time now) {
  if (reorder_timer_.pending()) return;
  // The earliest outstanding segment is declared lost once a full RTT plus
  // the reorder window has passed since it was (last) sent.
  const sim::Duration srtt_eff = srtt_ >= 0 ? srtt_ : rto_;
  const sim::Time deadline =
      sent_at_[snd_una_ & ring_mask_] + srtt_eff + cc_.reorder_window();
  reorder_armed_una_ = snd_una_;
  reorder_timer_.arm_at(std::max(now, deadline));
}

void TcpSource::on_reorder() {
  if (!running_ || in_recovery_ || inflight() == 0) return;
  // Progress since arming (or the dup evidence) cancels the verdict.
  if (snd_una_ != reorder_armed_una_ || dup_acks_ == 0) return;
  ++reorder_timeouts_;
  enter_recovery();
  send_segment(snd_una_, /*is_retransmit=*/true);
  send_available();
}

void TcpSource::enter_recovery() {
  recover_ = next_seq_;
  in_recovery_ = true;
  cc_.on_loss_event();
}

void TcpSource::update_rtt(sim::Duration sample) {
  if (srtt_ < 0) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(sample - srtt_);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, config_.min_rto, config_.max_rto);
}

void TcpSource::note_feedback(bool echoed) {
  ++fb_acks_;
  if (echoed) ++fb_marked_;
  if (fb_acks_ < fb_round_len_) return;
  // One AIMD step per window-length round of ACKs (DEC-TR-506): decrease
  // multiplicatively when at least fb_fraction of the round was marked,
  // otherwise increase additively.
  if (static_cast<double>(fb_marked_) >=
      config_.fb_fraction * static_cast<double>(fb_acks_)) {
    fb_wnd_ = std::max(2.0, fb_wnd_ * config_.fb_decrease);
    ++fb_backoffs_;
  } else {
    fb_wnd_ = std::min(config_.max_cwnd, fb_wnd_ + 1.0);
  }
  fb_acks_ = 0;
  fb_marked_ = 0;
  fb_round_len_ = std::max<std::uint64_t>(1, window());
}

void TcpSource::on_packet(net::PacketPtr p, sim::Time now) {
  assert(p->is_ack);
  if (!running_) return;
  const std::uint64_t ack = p->ack_seq;  // next expected by the receiver
  if (p->cong_echo) ++echoes_received_;
  if (config_.binary_feedback) note_feedback(p->cong_echo);

  if (ack > snd_una_) {
    // New data acknowledged.
    const std::uint64_t newly = ack - snd_una_;
    sim::Duration sample = -1.0;
    if (timing_ && ack > timed_seq_) {
      sample = now - timed_sent_at_;
      update_rtt(sample);
      timing_ = false;
    }
    snd_una_ = ack;
    dup_acks_ = 0;
    reorder_timer_.disarm();  // the suspect was delivered after all
    const bool was_recovery = in_recovery_;
    bool partial = false;
    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;
        cc_.on_recovery_exit();
      } else {
        partial = true;  // NewReno: retransmit the next hole, stay in
      }
    }
    cc_.on_ack(newly, sample, snd_una_, next_seq_, now, was_recovery);
    if (partial) send_segment(snd_una_, /*is_retransmit=*/true);
    // Restart the retransmission timer for remaining data, anchored at
    // the (new) earliest outstanding transmission.
    if (inflight() > 0) {
      arm_rto();
    } else {
      rto_timer_.disarm();
    }
  } else if (ack == snd_una_ && inflight() > 0) {
    ++dup_acks_;
    if (!in_recovery_) {
      switch (cc_.on_dup_ack(dup_acks_)) {
        case CongestionControl::DupAckAction::kNone:
          break;
        case CongestionControl::DupAckAction::kFastRetransmit:
          enter_recovery();
          send_segment(snd_una_, /*is_retransmit=*/true);
          break;
        case CongestionControl::DupAckAction::kArmReorderTimer:
          arm_reorder(now);
          break;
      }
    } else {
      cc_.on_dup_ack_in_recovery();
    }
  }
  send_available();
}

// -------------------------------------------------------------- receiver --

TcpSink::TcpSink(sim::Simulator& sim, TcpSource::Config config,
                 net::FlowId flow, net::NodeId sink_host, net::NodeId peer,
                 EmitFn emit)
    : sim_(sim),
      config_(config),
      flow_(flow),
      host_(sink_host),
      peer_(peer),
      emit_(std::move(emit)),
      oo_bits_(ring_capacity(config.max_cwnd) / 64 + 1, 0),
      oo_mask_(ring_capacity(config.max_cwnd) - 1) {}

bool TcpSink::test_bit(std::uint64_t seq) const {
  const std::uint64_t i = seq & oo_mask_;
  return ((oo_bits_[i >> 6] >> (i & 63)) & 1u) != 0;
}

void TcpSink::set_bit(std::uint64_t seq) {
  const std::uint64_t i = seq & oo_mask_;
  oo_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
}

void TcpSink::clear_bit(std::uint64_t seq) {
  const std::uint64_t i = seq & oo_mask_;
  oo_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

void TcpSink::on_packet(net::PacketPtr p, sim::Time now) {
  assert(!p->is_ack);
  const bool mark = p->cong_mark;
  if (p->seq == rcv_next_) {
    ++rcv_next_;
    // Drain any contiguous out-of-order segments from the bitmap ring.
    while (test_bit(rcv_next_)) {
      clear_bit(rcv_next_);
      ++rcv_next_;
    }
  } else if (p->seq > rcv_next_) {
    assert(p->seq - rcv_next_ <= oo_mask_ && "sender window exceeds ring");
    set_bit(p->seq);
  }  // else: duplicate of already-delivered data; still ACK cumulatively

  auto ack = pool_ != nullptr
                 ? net::make_packet(*pool_, flow_, p->seq, host_, peer_, now,
                                    config_.ack_bits)
                 : net::make_packet(flow_, p->seq, host_, peer_, now,
                                    config_.ack_bits);
  ack->service = net::ServiceClass::kDatagram;
  ack->is_ack = true;
  ack->ack_seq = rcv_next_;
  // DEC-TR-506: echo the congestion mark back to the source on the ACK.
  ack->cong_echo = mark;
  // The reverse path is real traffic: ledger it so conservation covers
  // ACKs that get dropped or are still queued at run end.
  if (stats_ != nullptr) {
    ++stats_->generated;
    ++stats_->injected;
  }
  ++acks_sent_;
  if (mark) ++echoes_sent_;
  emit_(std::move(ack));
}

}  // namespace ispn::traffic

// Responsive TCP bulk transfer — the paper's datagram workload, now with
// pluggable congestion control and DEC-TR-506 binary feedback.
//
// Table 3 adds "2 datagram TCP connections" as elastic best-effort load
// that pushes total link utilisation above 99% while the real-time classes
// keep their commitments.  The transport here owns sequencing, RTT
// estimation (Karn's rule), the retransmission/pacing/reorder timers and a
// per-segment send-time ring; the window-vs-rate response is delegated to
// a `CongestionControl` stack (traffic/cc.h): `reno` loss-window AIMD,
// `bbr`-style rate pacing, or `rack`-style time-based loss detection.
//
// Independent of the stack, the source can run the DEC-TR-506 binary
// feedback loop: schedulers set Packet::cong_mark when their average queue
// length exceeds a threshold, the receiver echoes the bit on the ACK
// (cong_echo), and the source applies additive-increase /
// multiplicative-decrease to a feedback window that caps the effective
// send window.  This is the ECN precursor — congestion response without
// packet loss.
//
// Segments are unit packets (1000 bits), matching the Appendix; ACKs are
// small and travel the reverse direction.  All timers are persistent
// sim::Timers re-armed in place: the steady-state send path (paced or
// window-released) performs zero allocation.

#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "net/host.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "traffic/cc.h"
#include "traffic/source.h"

namespace ispn::traffic {

/// Responsive sender.  A traffic::Source (so the scenario layer manages it
/// uniformly: stop/set_service/set_pool/set_epoch) that is also registered
/// as the FlowSink for its own flow at the *source* host, where the ACK
/// stream arrives.
class TcpSource final : public Source, public net::FlowSink {
 public:
  struct Config {
    sim::Bits packet_bits = sim::paper::kPacketBits;
    sim::Bits ack_bits = 320;  ///< 40-byte ACKs
    double initial_cwnd = 1.0;
    double initial_ssthresh = 64.0;
    /// Receiver-window cap on cwnd, in packets.
    double max_cwnd = 64.0;
    sim::Duration min_rto = 0.2;
    sim::Duration max_rto = 10.0;
    sim::Duration initial_rto = 1.0;

    /// Congestion-control stack (reno | bbr | rack).
    CcAlgo cc = CcAlgo::kReno;

    /// DEC-TR-506 binary feedback: respond to echoed congestion marks
    /// with additive increase / multiplicative decrease on a feedback
    /// window that caps the effective send window.
    bool binary_feedback = false;
    double fb_decrease = 0.875;  ///< multiplicative-decrease factor
    double fb_fraction = 0.5;    ///< marked-ACK fraction triggering decrease
  };

  TcpSource(sim::Simulator& sim, Config config, net::FlowId flow,
            net::NodeId src, net::NodeId dst, EmitFn emit,
            net::FlowStats* stats = nullptr);

  /// Starts the bulk transfer at `at`.
  void start(sim::Time at) override;

  /// Stops sending for good: disarms every timer, ignores later ACKs,
  /// and keeps a start() event that has not fired yet from starting.
  void stop() override;

  [[nodiscard]] bool idle() const override {
    return !start_pending_ && !rto_timer_.pending() && !pace_timer_.pending() &&
           !reorder_timer_.pending();
  }

  /// ACK arrival.
  void on_packet(net::PacketPtr p, sim::Time now) override;

  [[nodiscard]] CcAlgo algo() const { return cc_.algo(); }
  [[nodiscard]] double cwnd() const { return cc_.cwnd(); }
  [[nodiscard]] double ssthresh() const { return cc_.ssthresh(); }
  [[nodiscard]] sim::Duration rto() const { return rto_; }
  [[nodiscard]] sim::Duration srtt() const { return srtt_; }
  [[nodiscard]] std::uint64_t delivered() const { return snd_una_; }
  [[nodiscard]] std::uint64_t sent_segments() const { return sent_segments_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Reorder-timer expirations that declared a loss (rack stack).
  [[nodiscard]] std::uint64_t reorder_timeouts() const {
    return reorder_timeouts_;
  }

  // Binary-feedback observability.
  [[nodiscard]] double fb_wnd() const { return fb_wnd_; }
  [[nodiscard]] std::uint64_t echoes_received() const {
    return echoes_received_;
  }
  [[nodiscard]] std::uint64_t fb_backoffs() const { return fb_backoffs_; }

  /// The pending RTO expiry instant (test hook for the re-arm rule).
  [[nodiscard]] sim::Time rto_expiry() const { return rto_timer_.expiry(); }
  [[nodiscard]] bool rto_pending() const { return rto_timer_.pending(); }
  /// Last transmission time of segment `seq` (only meaningful while the
  /// segment is outstanding).
  [[nodiscard]] sim::Time sent_at(std::uint64_t seq) const {
    return sent_at_[seq & ring_mask_];
  }

 private:
  void send_available();
  void send_segment(std::uint64_t seq, bool is_retransmit);
  void schedule_pacing(sim::Time now);
  void on_pace();
  void arm_rto();
  void on_rto();
  void arm_reorder(sim::Time now);
  void on_reorder();
  void enter_recovery();
  void update_rtt(sim::Duration sample);
  void note_feedback(bool echoed);
  [[nodiscard]] std::uint64_t inflight() const { return next_seq_ - snd_una_; }
  [[nodiscard]] std::uint64_t window() const;

  Config config_;
  CongestionControl cc_;

  // Sequencing.
  std::uint64_t next_seq_ = 0;  ///< next new sequence to send
  std::uint64_t snd_una_ = 0;   ///< lowest unacknowledged sequence
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  ///< recovery exits when ack >= recover_

  /// Last transmission time per outstanding segment, a power-of-two ring
  /// indexed by seq & ring_mask_ (capacity > max_cwnd, so outstanding
  /// segments never alias).  Drives the RTO re-arm rule (earliest
  /// outstanding send time) and the RACK reorder deadline.
  std::vector<sim::Time> sent_at_;
  std::uint64_t ring_mask_;

  // RTT estimation (Karn: only fresh transmissions are timed).
  sim::Duration srtt_ = -1;
  sim::Duration rttvar_ = 0;
  sim::Duration rto_;
  std::uint64_t timed_seq_ = 0;
  sim::Time timed_sent_at_ = 0;
  bool timing_ = false;

  // Persistent timers, re-armed in place (no steady-state allocation).
  sim::Timer rto_timer_;
  sim::Timer pace_timer_;     ///< bbr: one segment per 1/pacing_rate
  sim::Timer reorder_timer_;  ///< rack: loss declared when it fires
  sim::Time next_pace_time_ = 0;
  std::uint64_t reorder_armed_una_ = 0;

  // DEC-TR-506 feedback window (AIMD on echoed marks, one step per
  // window-length round of ACKs).
  double fb_wnd_;
  std::uint64_t fb_acks_ = 0;
  std::uint64_t fb_marked_ = 0;
  std::uint64_t fb_round_len_;

  bool running_ = false;
  bool start_pending_ = false;  ///< start()'s one-shot has not fired yet
  bool stopped_ = false;

  std::uint64_t sent_segments_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t reorder_timeouts_ = 0;
  std::uint64_t echoes_received_ = 0;
  std::uint64_t fb_backoffs_ = 0;
};

/// Cumulative-ACK receiver.  Registered (behind the stats sink) for the
/// flow at the *destination* host; echoes congestion marks onto ACKs.
class TcpSink final : public net::FlowSink {
 public:
  TcpSink(sim::Simulator& sim, TcpSource::Config config, net::FlowId flow,
          net::NodeId sink_host, net::NodeId peer, EmitFn emit);

  void on_packet(net::PacketPtr p, sim::Time now) override;

  /// Draws ACK storage from `pool` (sharded runs: the dst domain's pool).
  void set_pool(net::PacketPool* pool) { pool_ = pool; }
  /// Accounts emitted ACKs as generated/injected traffic of the flow so
  /// the conservation ledger covers the reverse path.  The fields written
  /// are Counters: the sink lives in the dst domain, the source in src.
  void set_stats(net::FlowStats* stats) { stats_ = stats; }

  [[nodiscard]] std::uint64_t rcv_next() const { return rcv_next_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  /// ACKs that carried an echoed congestion mark.
  [[nodiscard]] std::uint64_t echoes_sent() const { return echoes_sent_; }

 private:
  [[nodiscard]] bool test_bit(std::uint64_t seq) const;
  void set_bit(std::uint64_t seq);
  void clear_bit(std::uint64_t seq);

  sim::Simulator& sim_;
  TcpSource::Config config_;
  net::FlowId flow_;
  net::NodeId host_;
  net::NodeId peer_;
  EmitFn emit_;
  net::PacketPool* pool_ = nullptr;
  net::FlowStats* stats_ = nullptr;

  std::uint64_t rcv_next_ = 0;
  /// Out-of-order bookkeeping: a power-of-two bitmap ring covering the
  /// sender's maximum window ahead of rcv_next_ — bounded, allocation-free
  /// after construction (the old std::set allocated per insert).
  std::vector<std::uint64_t> oo_bits_;
  std::uint64_t oo_mask_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t echoes_sent_ = 0;
};

}  // namespace ispn::traffic

// Pluggable congestion control — the policy seam behind TcpSource.
//
// A vtable-free stack selector: one enum (`CcAlgo`), one flat state
// object, switch dispatch.
// Three stacks share the seam:
//
//   * kReno — the original Tahoe/NewReno loss-window arithmetic: slow
//     start, AIMD congestion avoidance, fast retransmit on the third
//     duplicate ACK with window inflation, RTO collapse to one segment.
//   * kBbr — a rate-based model in the BBR style: per-round delivery-rate
//     samples through a windowed max filter plus a running min-RTT give a
//     bandwidth-delay product; a startup/drain/probe-bandwidth gain cycle
//     paces transmission (the transport drives a persistent sim::Timer at
//     pacing_rate()).  Loss does not collapse the window; an RTO falls
//     back to packet conservation until the model refills.  No randomness
//     anywhere: the probe cycle starts at a fixed phase, so runs are
//     byte-identical across shard counts.
//   * kRack — time-based loss detection in the RACK style: duplicate ACKs
//     never trigger an immediate retransmit; instead the transport arms a
//     reorder timer for the earliest outstanding segment's send time plus
//     srtt plus a reorder window (a fraction of min-RTT), tolerating
//     reordering that would fool a 3-dup-ack rule.  The window response on
//     a confirmed loss is a clean halving (no +3 inflation — detection is
//     timer-based, not dup-count-based).
//
// All state is plain doubles and integers updated by deterministic event
// arithmetic; there is no allocation after construction.

#pragma once

#include <cstdint>
#include <string>

#include "sim/units.h"

namespace ispn::traffic {

/// Congestion-control stack selector.
enum class CcAlgo : std::uint8_t {
  kReno = 0,  ///< loss-window AIMD (the classic stack)
  kBbr = 1,   ///< rate-based pacing with bandwidth + RTT probing
  kRack = 2,  ///< time-based reordering-tolerant loss detection
};

/// Short lowercase label ("reno", "bbr", "rack").
[[nodiscard]] const char* to_string(CcAlgo algo);

/// Parses "reno" / "bbr" / "rack" (exact, lowercase).  Returns false and
/// leaves `out` untouched on unknown input.
bool parse_cc_algo(const std::string& text, CcAlgo* out);

/// Tuning knobs for the stacks.  Window values are in packets.
struct CcParams {
  CcAlgo algo = CcAlgo::kReno;
  double initial_cwnd = 1.0;
  double initial_ssthresh = 64.0;
  double max_cwnd = 64.0;

  // BBR-style stack.
  double bbr_startup_gain = 2.885;  ///< pacing gain while probing for bw
  double bbr_cwnd_gain = 2.0;       ///< cwnd cap as a multiple of the BDP
  int bbr_bw_rounds = 10;           ///< max-filter window, in rounds
  double bbr_probe_up = 1.25;       ///< probe_bw cycle up-gain
  double bbr_probe_down = 0.75;     ///< probe_bw cycle drain-gain

  // RACK-style loss detection.
  double rack_reo_wnd_frac = 0.25;      ///< reorder window / min-RTT
  sim::Duration rack_min_reo_wnd = 1e-4;  ///< floor when min-RTT unknown/tiny
};

/// Per-connection congestion state machine.  The transport (TcpSource)
/// owns sequencing, timers and retransmission; this object owns the
/// window/rate response.  Dispatch is a switch on the algo — no vtable.
class CongestionControl {
 public:
  /// What the transport should do about a duplicate ACK outside recovery.
  enum class DupAckAction : std::uint8_t {
    kNone = 0,
    kFastRetransmit = 1,   ///< enter recovery and retransmit now
    kArmReorderTimer = 2,  ///< wait out the reorder window first
  };

  explicit CongestionControl(const CcParams& params);

  [[nodiscard]] CcAlgo algo() const { return params_.algo; }

  /// Current congestion window in packets.  The transport additionally
  /// caps the effective window by max_cwnd and the binary-feedback window.
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] double ssthresh() const { return ssthresh_; }

  /// True for stacks that release packets on a pacing clock.
  [[nodiscard]] bool paced() const { return params_.algo == CcAlgo::kBbr; }

  /// Packets per second the paced stack wants on the wire; 0 means "no
  /// estimate yet" and the transport falls back to window-release.
  [[nodiscard]] double pacing_rate() const;

  /// Delivery-rate estimate in packets/s (0 until the first round closes).
  [[nodiscard]] double bandwidth() const { return bw_; }
  /// Lowest RTT sample seen (< 0 until the first valid sample).
  [[nodiscard]] double min_rtt() const { return min_rtt_; }

  /// New cumulative ACK: `newly_acked` packets left the network.
  /// `rtt_sample` < 0 when Karn's rule suppressed the measurement.
  /// `in_recovery` is true when this ACK arrived during (or exited)
  /// loss recovery — the loss-window stacks do not grow on those.
  void on_ack(std::uint64_t newly_acked, sim::Duration rtt_sample,
              std::uint64_t snd_una, std::uint64_t next_seq, sim::Time now,
              bool in_recovery);

  /// Policy for the `dup_count`-th duplicate ACK outside recovery.
  [[nodiscard]] DupAckAction on_dup_ack(int dup_count) const;

  /// An extra duplicate ACK while already in recovery (Reno inflates).
  void on_dup_ack_in_recovery();

  /// A loss event was declared (fast retransmit or reorder timeout fired).
  void on_loss_event();

  /// Recovery completed (cumulative ACK reached the recover point).
  void on_recovery_exit();

  /// Retransmission timeout: collapse (reno/rack) or conserve (bbr).
  void on_rto();

  /// RACK reorder window in seconds, from the current min-RTT estimate.
  [[nodiscard]] sim::Duration reorder_window() const;

 private:
  // BBR internals.
  void bbr_on_ack(std::uint64_t newly_acked, std::uint64_t snd_una,
                  std::uint64_t next_seq, sim::Time now);
  void bbr_round_done(sim::Time now);
  void bbr_push_bw_sample(double sample);
  [[nodiscard]] double bbr_pacing_gain() const;
  [[nodiscard]] double bbr_bdp() const;
  [[nodiscard]] double bbr_target_cwnd() const;

  enum class BbrMode : std::uint8_t { kStartup, kDrain, kProbeBw };
  static constexpr int kCycleLen = 8;
  static constexpr int kMaxBwRounds = 16;  ///< filter ring capacity

  CcParams params_;
  double cwnd_;
  double ssthresh_;

  // Shared measurement state.
  double min_rtt_ = -1.0;

  // BBR model state.
  BbrMode mode_ = BbrMode::kStartup;
  double bw_ = 0.0;                    ///< max over the filter window
  double bw_ring_[kMaxBwRounds] = {};  ///< per-round delivery-rate samples
  int bw_rounds_ = 0;                  ///< samples pushed so far
  std::uint64_t delivered_ = 0;        ///< cumulative packets delivered
  std::uint64_t round_start_delivered_ = 0;
  std::uint64_t round_end_seq_ = 0;  ///< round closes when snd_una reaches it
  sim::Time round_start_time_ = -1.0;
  double full_bw_ = 0.0;  ///< startup-exit plateau detector
  int full_bw_count_ = 0;
  int cycle_index_ = 0;  ///< probe_bw gain-cycle phase (fixed start: 0)
  bool conservation_ = false;  ///< post-RTO: grow by acked until the model
};

}  // namespace ispn::traffic

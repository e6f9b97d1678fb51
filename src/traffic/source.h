// Common source machinery.
//
// A Source is an event-driven packet generation process.  Generated packets
// pass through an optional edge token-bucket policer (nonconforming packets
// are dropped at the source, per the paper's Appendix) and are then emitted
// into the network through an EmitFn — typically Host::inject plus stats
// bookkeeping, wired by core::CszNetworkBuilder or by the experiment code.

#pragma once

#include <functional>
#include <optional>

#include "net/flow.h"
#include "net/packet.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "traffic/token_bucket.h"

namespace ispn::traffic {

/// Delivers an emitted packet into the network.
using EmitFn = std::function<void(net::PacketPtr)>;

/// Base class handling identity, policing and emission accounting.
class Source {
 public:
  /// `stats` may be null (no accounting).  If `police` is set, packets not
  /// conforming to it at generation time are dropped at the source.
  Source(sim::Simulator& sim, net::FlowId flow, net::NodeId src,
         net::NodeId dst, EmitFn emit, net::FlowStats* stats,
         std::optional<TokenBucketSpec> police)
      : sim_(sim),
        flow_(flow),
        src_(src),
        dst_(dst),
        emit_(std::move(emit)),
        stats_(stats) {
    if (police) policer_.emplace(*police);
  }

  virtual ~Source() = default;
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Starts the generation process at simulated time `at`.
  virtual void start(sim::Time at) = 0;

  /// Stops generating after the current event chain unwinds.  Every
  /// concrete source implements this; the scenario runner relies on it to
  /// tear flows down mid-run.
  virtual void stop() = 0;

  /// True when destroying the source leaves no event that refers to it:
  /// its start event, if start() was called, has fired, and none of its
  /// timers is pending.  A stopped source becomes idle once its last
  /// pending emission has fired as a no-op; the scenario runner frees a
  /// closed flow's source then.
  [[nodiscard]] virtual bool idle() const = 0;

  /// Service class stamped onto each generated packet.
  void set_service(net::ServiceClass service, std::uint8_t priority = 0) {
    service_ = service;
    priority_ = priority;
  }

  /// §10 drop preference: marks packet `seq` as less important when the
  /// predicate returns true (e.g. every other packet for a layered codec).
  using ImportanceMarker = std::function<bool(std::uint64_t seq)>;
  void set_importance_marker(ImportanceMarker marker) {
    marker_ = std::move(marker);
  }

  /// Draws packet storage from `pool` instead of the process-wide default
  /// (sharded runs hand each source its domain's pool).
  void set_pool(net::PacketPool* pool) { pool_ = pool; }

  /// Stamps subsequent packets with routing epoch `epoch` (bumped when
  /// the flow is rerouted, so delay accounting can segment by path).
  void set_epoch(std::uint16_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint16_t epoch() const { return epoch_; }

  [[nodiscard]] net::FlowId flow() const { return flow_; }
  [[nodiscard]] net::NodeId src() const { return src_; }
  [[nodiscard]] net::NodeId dst() const { return dst_; }
  [[nodiscard]] std::uint64_t generated() const { return seq_; }

 protected:
  /// Creates, polices and (if conforming) emits one packet of `bits` at the
  /// current simulation time.  Returns true if the packet entered the net.
  bool generate(sim::Bits bits) {
    const sim::Time now = sim_.now();
    if (stats_ != nullptr) ++stats_->generated;
    const std::uint64_t seq = seq_++;
    if (policer_ && !policer_->try_consume(bits, now)) {
      if (stats_ != nullptr) ++stats_->source_drops;
      return false;
    }
    auto p = pool_ != nullptr
                 ? net::make_packet(*pool_, flow_, seq, src_, dst_, now, bits)
                 : net::make_packet(flow_, seq, src_, dst_, now, bits);
    p->service = service_;
    p->priority = priority_;
    p->path_epoch = epoch_;
    if (marker_) p->less_important = marker_(seq);
    if (stats_ != nullptr) ++stats_->injected;
    emit_(std::move(p));
    return true;
  }

  // Accessors for subclasses that build their own packets (the transport
  // sources reuse sequence numbers on retransmit, so generate() above does
  // not fit them).
  [[nodiscard]] net::PacketPool* pool() const { return pool_; }
  [[nodiscard]] net::FlowStats* stats() const { return stats_; }
  [[nodiscard]] net::ServiceClass service() const { return service_; }
  [[nodiscard]] std::uint8_t priority() const { return priority_; }
  void emit_packet(net::PacketPtr p) { emit_(std::move(p)); }

  sim::Simulator& sim_;

 private:
  net::FlowId flow_;
  net::NodeId src_;
  net::NodeId dst_;
  EmitFn emit_;
  net::FlowStats* stats_;
  std::optional<TokenBucket> policer_;
  net::PacketPool* pool_ = nullptr;
  net::ServiceClass service_ = net::ServiceClass::kDatagram;
  std::uint8_t priority_ = 0;
  std::uint16_t epoch_ = 0;
  ImportanceMarker marker_;
  std::uint64_t seq_ = 0;
};

}  // namespace ispn::traffic

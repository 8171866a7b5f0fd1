// Strategy plug-in interface (§III-B).
//
// "the features proposed in this article are mainly organized around the
// implementation of a new NewMadeleine optimization strategy which actually
// is a plug-in called to gather the data requests and interrogated by the
// lower layer in order to know what to do at the appropriate time."
//
// The engine interrogates the strategy at the paper's three decision points:
//  * plan_eager     — just before managing the emission of eager packets
//                     (also re-invoked whenever a NIC becomes idle);
//  * plan_rendezvous — when a rendezvous acknowledgement (CTS) arrives and
//                     the bulk data must be scheduled across rails;
//  * control_rail   — which rail carries a control segment.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/pooled_allocator.hpp"
#include "common/types.hpp"
#include "fabric/nic.hpp"
#include "fabric/sim_cores.hpp"
#include "qos/traffic_class.hpp"
#include "sampling/estimator.hpp"
#include "sampling/recalibration.hpp"
#include "strategy/offload_model.hpp"
#include "strategy/split_solver.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"

namespace rails::core {

struct SendRequest;

/// Fault-tolerance knobs (docs/FAULTS.md). The defaults are inert on a
/// healthy fabric: timeouts are armed with generous slack and simply expire
/// unnoticed after their chunk completed, so enabling failover does not
/// perturb fault-free timing.
struct FailoverConfig {
  bool enabled = true;
  /// A DMA chunk is declared lost when it exceeds `timeout_slack` times its
  /// estimator-predicted completion (floored at `min_timeout`).
  double timeout_slack = 4.0;
  SimDuration min_timeout = 50'000;  // 50 µs
  /// Post attempts per byte range (original + retries) before giving up and
  /// marking the send failed.
  unsigned max_attempts = 4;
  /// Initial quarantine window after an error/timeout; each unsuccessful
  /// re-probe multiplies the window by `quarantine_backoff`, capped at
  /// `max_quarantine`.
  SimDuration quarantine = 2'000'000;  // 2 ms
  double quarantine_backoff = 2.0;
  SimDuration max_quarantine = 50'000'000;  // 50 ms
};

/// End-to-end reliable-delivery knobs (docs/FAULTS.md, "Data-plane faults &
/// reliable delivery"). Default-off: a disabled engine takes no reliability
/// branch at all, keeping headline metrics bit-identical to pre-reliability
/// builds. Enabled at zero fault rate, the layer costs one coalesced ACK
/// per link per `ack_delay` plus a per-segment CRC — inside the bench gate.
struct ReliabilityConfig {
  bool enabled = false;
  /// Compute/verify the CRC32C wire checksum (header + payload). Off, a
  /// corrupted payload is delivered undetected — useful only for measuring
  /// the checksum's own cost.
  bool checksum = true;
  /// Retransmissions per sequence number before giving up, quarantining the
  /// last rail used, and triggering a postmortem.
  unsigned max_retransmits = 6;
  /// A segment is presumed lost when no ACK covers it within
  /// `ack_timeout_slack` x (predicted delivery + ack_delay), floored at
  /// `min_ack_timeout`; each retransmit multiplies the wait by `backoff`
  /// (the PR 2 prediction-scaled-timeout idiom, applied end-to-end).
  double ack_timeout_slack = 4.0;
  SimDuration min_ack_timeout = 100'000;  // 100 µs
  double backoff = 2.0;
  /// Receiver-side ACK coalescing window: acknowledgements piggyback state
  /// for every segment accepted within it, so a flood costs one control
  /// segment per link per window rather than one per message.
  SimDuration ack_delay = 25'000;  // 25 µs
  /// Consecutive inferred losses on one rail before the reliability layer
  /// escalates to the PR 2 quarantine path (0 disables the streak trigger;
  /// retry-budget exhaustion still quarantines).
  unsigned loss_streak_quarantine = 3;
};

struct EngineConfig {
  /// Core the packet scheduler (strategy) runs on.
  CoreId scheduler_core = 0;
  /// Multicore eager-offload parameters (TO etc.).
  strategy::OffloadConfig offload;
  /// Overrides the sampled eager/rendezvous threshold when non-zero.
  std::size_t rdv_threshold_override = 0;
  /// Host memcpy bandwidth charged when an iovec send must be coalesced
  /// because some rail lacks gather/scatter support (MB/s).
  double host_copy_mbps = 2500.0;
  /// Timeout/retry/quarantine behaviour on rail faults.
  FailoverConfig failover;
  /// End-to-end ACK/retransmit + wire-checksum layer (docs/FAULTS.md).
  ReliabilityConfig reliability;
  /// Online drift detection / adaptive recalibration (docs/CALIBRATION.md).
  sampling::RecalibrationConfig recalibration;
  /// Traffic-class scheduling, deadline admission, backpressure
  /// (docs/QOS.md). Default-off: a disabled engine is byte-for-byte the
  /// pre-QoS engine.
  qos::QosConfig qos;
  /// Health-plane time-series sampler (docs/OBSERVABILITY.md). Default-off:
  /// a disabled engine arms no health tick and samples nothing.
  telemetry::TimeseriesConfig timeseries;
  /// Declarative SLO objectives evaluated on the health tick; a firing
  /// burn-rate alert escalates into the flight recorder. Requires
  /// `timeseries.enabled` (the tick drives evaluation) and QoS (the
  /// per-class sources).
  std::vector<telemetry::SloSpec> slos;
};

/// Everything a strategy may inspect when interrogated.
struct StrategyContext {
  SimTime now = 0;
  const sampling::Estimator* estimator = nullptr;
  std::span<fabric::SimNic* const> nics;  ///< this node's NICs, indexed by rail
  fabric::SimCores* cores = nullptr;
  const EngineConfig* config = nullptr;

  /// Per-rail health mask maintained by the engine's fault-tolerance layer
  /// (empty = every rail usable, which keeps hand-built contexts valid).
  /// Quarantined rails keep their sampled profiles but must be skipped by
  /// strategies until a re-probe succeeds. The engine guarantees at least
  /// one usable rail (an all-quarantined node falls back to all-usable).
  std::span<const std::uint8_t> usable;

  /// Per-rail cost multipliers (≥ 1) from the recalibration trust layer
  /// (empty = every rail fully trusted). A SUSPECT rail's predictions are
  /// inflated by its penalty so the solver hands it smaller chunks.
  std::span<const double> trust_penalty;
  /// Set when some *usable* rail is UNTRUSTED or mid-resample: its numbers
  /// cannot feed the solver, so knowledge-based strategies fall back to
  /// knowledge-free iso weighting until trust is re-earned.
  bool trust_compromised = false;

  std::uint32_t rail_count() const { return static_cast<std::uint32_t>(nics.size()); }
  SimTime rail_busy_until(RailId rail) const { return nics[rail]->busy_until(); }
  SimDuration rail_ready_offset(RailId rail) const {
    const SimTime b = rail_busy_until(rail);
    return b > now ? b - now : 0;
  }
  bool rail_usable(RailId rail) const { return usable.empty() || usable[rail] != 0; }
  double rail_trust_penalty(RailId rail) const {
    return trust_penalty.empty() ? 1.0 : trust_penalty[rail];
  }
};

/// One piece of one application message inside an eager emission.
struct EagerPiece {
  const SendRequest* send = nullptr;
  std::size_t offset = 0;
  std::size_t len = 0;
};

/// Vectors of a plan live for one activation; their storage is recycled
/// (common/pooled_allocator.hpp) so planning fresh never allocates.
template <class T>
using PlanVector = std::vector<T, PooledAllocator<T>>;

/// One eager segment to post: possibly several aggregated pieces, possibly
/// submitted from a remote core (offload_core set) at a TO signalling cost.
struct EagerEmission {
  RailId rail = 0;
  std::optional<CoreId> offload_core;
  PlanVector<EagerPiece> pieces;

  std::size_t payload_bytes() const {
    std::size_t n = 0;
    for (const auto& p : pieces) n += p.len;
    return n;
  }
};

/// Result of plan_eager: emissions to post now. Sends not referenced by any
/// emission stay queued; the engine re-interrogates when a NIC frees up.
struct EagerSchedule {
  PlanVector<EagerEmission> emissions;
  bool empty() const { return emissions.empty(); }
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Plans emission of the queued eager sends (all to the same engine; the
  /// engine groups by destination before interrogating).
  virtual EagerSchedule plan_eager(const StrategyContext& ctx,
                                   std::span<const SendRequest* const> pending) = 0;

  /// Plans the DMA chunk layout for a rendezvous message of `len` bytes
  /// (called when the CTS arrives).
  virtual strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                                std::size_t len) = 0;

  /// Rail used for control segments (RTS/CTS/FIN). Default: the rail with
  /// the lowest predicted completion for a zero-byte eager message.
  virtual RailId control_rail(const StrategyContext& ctx) const;

  /// Not consulted: the engine plans every activation fresh. Kept until
  /// railbench's decorator stops overriding it.
  virtual bool eager_plan_cacheable(const StrategyContext&,
                                    std::span<const SendRequest* const>) const {
    return false;
  }
};

}  // namespace rails::core

// One engine fact, recorded once and fanned out (docs/OBSERVABILITY.md,
// "Engine event vocabulary").
//
// The engine describes every fact it records — a submission, an emission,
// a quarantine, a retransmit — as one trace::EventKind plus EventFields, and
// hands it to EventFanout::emit. One table, event_route, decides where each
// kind goes: the EngineStats ledger field it bumps, the registry counter it
// feeds, and whether the Tracer and the flight recorder see it. The few
// per-kind extras (per-rail byte counters, histograms, the health, trust,
// scale and drift gauges) live next to that table in emit().
//
// Cost contract: a detached sink costs one null check per fact, and emit
// never allocates once the registry handles are resolved by attach_metrics
// (verified by an allocation-counting test).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "trace/event_kind.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace rails::core {

struct EngineStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t eager_msgs = 0;
  std::uint64_t rdv_msgs = 0;
  std::uint64_t eager_segments = 0;      ///< eager segments posted
  std::uint64_t aggregated_packets = 0;  ///< sub-packets that shared a segment
  std::uint64_t split_eager_msgs = 0;    ///< eager messages split across rails
  std::uint64_t offloaded_chunks = 0;    ///< eager chunks submitted remotely
  std::uint64_t rdv_chunks = 0;          ///< DMA chunks posted
  std::vector<std::uint64_t> payload_bytes_per_rail;
  /// Payload bytes the host copied: eager pack and unpack, unexpected
  /// buffering, gather staging, rendezvous delivery, the reliability
  /// stash, and loans ended with views in flight. DATA chunks themselves
  /// borrow the sender's buffer.
  std::uint64_t payload_bytes_copied = 0;

  // -- fault tolerance (docs/FAULTS.md) --------------------------------
  std::uint64_t tx_errors = 0;          ///< segments reported dropped by a NIC
  std::uint64_t chunk_timeouts = 0;     ///< chunks past predicted completion + slack
  std::uint64_t failovers = 0;          ///< byte ranges re-split onto survivors
  std::uint64_t retries = 0;            ///< segments re-posted (any kind)
  std::uint64_t failover_exhausted = 0; ///< ranges that ran out of attempts
  std::uint64_t quarantines = 0;        ///< rails entering quarantine
  std::uint64_t reprobes = 0;           ///< quarantine re-probe attempts
  std::uint64_t reprobe_successes = 0;  ///< re-probes that lifted a quarantine
  std::uint64_t duplicate_chunks = 0;   ///< receiver-side duplicate DATA chunks
  std::uint64_t stale_control = 0;      ///< duplicate/unknown control segs ignored

  // -- end-to-end reliability (docs/FAULTS.md) -------------------------
  std::uint64_t rel_segments = 0;        ///< sequenced segments posted
  std::uint64_t rel_corruptions = 0;     ///< wire-checksum mismatches detected
  std::uint64_t rel_drops_inferred = 0;  ///< ACK timeouts presuming silent loss
  std::uint64_t rel_retransmits = 0;     ///< segments retransmitted end-to-end
  std::uint64_t rel_dup_suppressed = 0;  ///< sequence-window duplicate drops
  std::uint64_t rel_retry_exhausted = 0; ///< seqs that ran out of retry budget
  std::uint64_t rel_acks = 0;            ///< ACK control segments sent
  std::uint64_t rel_nacks = 0;           ///< NACK control segments sent
  std::uint64_t rel_parse_rejects = 0;   ///< malformed eager frames dropped

  // -- recalibration (docs/CALIBRATION.md) -----------------------------
  std::uint64_t recal_corrections = 0;  ///< profile scale corrections applied
  std::uint64_t recal_resamples = 0;    ///< background re-sampling sweeps run
  std::uint64_t trust_demotions = 0;    ///< trust-state demotions observed
  std::uint64_t trust_promotions = 0;   ///< trust-state promotions observed

  // -- traffic-class QoS (docs/QOS.md) ---------------------------------
  std::uint64_t qos_grants = 0;               ///< sends released by the arbiter
  std::uint64_t qos_stream_chunks = 0;        ///< windowed bulk chunks posted
  std::uint64_t qos_admission_rejects = 0;    ///< deadline-infeasible sends refused
  std::uint64_t qos_admission_downgrades = 0; ///< ... downgraded to BACKGROUND
  std::uint64_t qos_deadline_hits = 0;        ///< deadline-tagged sends in time
  std::uint64_t qos_deadline_misses = 0;      ///< ... that completed late

  // -- railbench compatibility -------------------------------------------
  /// Not counted, always 0; kept until railbench stops reading them.
  std::uint64_t strategy_cache_hits = 0;
  std::uint64_t strategy_cache_misses = 0;
};

/// The fields of one fact. Unused fields stay at their defaults; `a` and
/// `b` are the kind-specific operands documented on trace::EventKind.
struct EventFields {
  std::uint64_t msg_id = 0;
  Tag tag = 0;
  RailId rail = 0;
  CoreId core = 0;
  std::size_t bytes = 0;
  SimTime time = -1;    ///< virtual time of the fact; -1 = now
  SimTime nic_end = 0;  ///< predicted NIC completion of an emission or chunk
  /// Start of the interval the fact closes, -1 = none: the submit (or post)
  /// time on a completion, and on a message's first emission or chunk,
  /// which makes `time - since` its queueing delay.
  SimTime since = -1;
  std::uint32_t cls = 0;  ///< QoS traffic class of the owning send
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Where one kind goes.
struct EventRoute {
  enum Sinks : std::uint8_t { kCounted = 0, kTraced = 1, kFlight = 2, kBoth = 3 };
  std::uint8_t sinks = kCounted;                ///< Tracer / flight recorder
  std::uint64_t EngineStats::*stat = nullptr;   ///< ledger field, or none
  const char* counter = nullptr;                ///< registry counter, or none
};

/// The routing table: one entry per kind.
const EventRoute& event_route(trace::EventKind kind);

/// Fans each fact out to the ledger, the registry, the Tracer and the
/// flight recorder of one engine.
class EventFanout {
 public:
  EventFanout(NodeId node, std::size_t rail_count);

  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }
  void reset_stats();

  /// Resolves every registry handle once (allocating registry entries);
  /// nullptr detaches.
  void attach_metrics(telemetry::MetricsRegistry* registry);
  bool metrics_attached() const { return registry_ != nullptr; }
  /// Re-resolves the strategy.<name>.plan_* counters of kPlanEager and
  /// kPlanRendezvous.
  void set_strategy_name(const std::string& name);

  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  void set_flight_recorder(trace::FlightRecorder* recorder) { flight_ = recorder; }

  /// Records one fact in every sink its route names; `now` stamps facts
  /// whose `time` is unset.
  void emit(trace::EventKind kind, const EventFields& f, SimTime now);

 private:
  NodeId node_;
  std::size_t rail_count_;
  EngineStats stats_;
  trace::Tracer* tracer_ = nullptr;
  trace::FlightRecorder* flight_ = nullptr;

  // -- registry handles (all null while detached) ---------------------------
  telemetry::MetricsRegistry* registry_ = nullptr;
  std::string strategy_name_;
  std::array<telemetry::Counter*, trace::kEventKindCount> counters_{};
  telemetry::Counter* eager_msgs_ = nullptr;
  telemetry::Counter* rdv_msgs_ = nullptr;
  telemetry::Counter* offload_signals_ = nullptr;
  telemetry::Counter* rdv_roundtrips_ = nullptr;
  telemetry::Counter* reprobe_successes_ = nullptr;
  telemetry::Histogram* send_latency_ = nullptr;
  telemetry::Histogram* recv_latency_ = nullptr;
  telemetry::Histogram* queueing_delay_ = nullptr;
  telemetry::Histogram* emission_bytes_ = nullptr;
  telemetry::Histogram* chunk_bytes_ = nullptr;
  telemetry::Gauge* trace_dropped_ = nullptr;
  telemetry::Gauge* flight_evictions_ = nullptr;
  struct RailMetrics {
    telemetry::Counter* payload_bytes = nullptr;
    telemetry::Counter* segments = nullptr;
    telemetry::Gauge* healthy = nullptr;
    telemetry::Gauge* trust = nullptr;
    telemetry::Gauge* scale = nullptr;
    telemetry::Gauge* drift = nullptr;
    void count_segment(std::size_t bytes) {
      payload_bytes->inc(bytes);
      segments->inc();
    }
  };
  std::vector<RailMetrics> rails_;
};

}  // namespace rails::core

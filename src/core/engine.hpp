// The communication engine (NewMadeleine analogue).
//
// Three-layer architecture per Fig. 5:
//  * application layer — isend()/irecv() enqueue requests into the pack list
//    and return immediately ("the application enqueues packets into a list
//    and immediately returns to computing");
//  * optimizer layer — a pluggable Strategy interrogated when eager packets
//    await emission, when a NIC becomes idle, and when a rendezvous
//    acknowledgement arrives;
//  * transfer layer — posts segments on the node's SimNics, charging the
//    submitting core for the PIO/setup host time.
//
// One Engine instance runs per node of the virtual cluster; all instances
// share the fabric's event queue, so "waiting" for a request means running
// fabric events until the request completes (see World).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine_events.hpp"
#include "core/message.hpp"
#include "core/strategy_iface.hpp"
#include "core/wire_format.hpp"
#include "fabric/fabric.hpp"
#include "qos/arbiter.hpp"
#include "telemetry/prediction.hpp"

namespace rails::core {

class Engine {
 public:
  Engine(fabric::Fabric* fabric, NodeId self, const sampling::Estimator* estimator,
         EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs the optimization strategy plug-in. Must be called before any
  /// traffic; may be swapped while the engine is quiescent.
  void set_strategy(std::unique_ptr<Strategy> strategy);
  Strategy& strategy();

  NodeId self() const { return self_; }
  const EngineConfig& config() const { return config_; }
  const sampling::Estimator& estimator() const { return *estimator_; }

  /// Message size at which sends switch to the rendezvous protocol.
  std::size_t rdv_threshold() const { return rdv_threshold_; }

  /// Non-blocking send. The data buffer must stay alive until completion.
  SendHandle isend(NodeId dst, Tag tag, const void* data, std::size_t len);

  /// Per-send QoS attributes (docs/QOS.md). Inert without the subsystem.
  struct SendOptions {
    /// Traffic class; kAutoClass = classify by size.
    std::uint32_t traffic_class = qos::kAutoClass;
    /// Absolute completion deadline (virtual time); 0 = none. With QoS on,
    /// a deadline the estimator deems infeasible is rejected (handle state
    /// kRejected) or downgraded, per QosConfig::deadline_downgrade.
    SimTime deadline = 0;
  };

  /// isend with explicit QoS attributes.
  SendHandle isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                   const SendOptions& opts);

  /// Backpressured submit: returns nullptr (sheds load) when the resolved
  /// class's bounded queue is full. Identical to isend otherwise.
  SendHandle try_isend(NodeId dst, Tag tag, const void* data, std::size_t len);
  SendHandle try_isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                       const SendOptions& opts);

  /// The QoS arbiter; nullptr unless config().qos.enabled.
  qos::QosArbiter* qos() { return qos_.get(); }
  const qos::QosArbiter* qos() const { return qos_.get(); }

  /// One piece of a gathered (iovec) send.
  struct IoSlice {
    const void* data = nullptr;
    std::size_t len = 0;
  };

  /// Non-blocking gathered send: the message is the concatenation of the
  /// slices. When every rail advertises gather/scatter (§II-B: "the
  /// availability of gather/scatter operations"), the NICs assemble the
  /// iovec for free; otherwise the engine coalesces into a staging buffer
  /// first, charging the scheduler core the memcpy time.
  SendHandle isendv(NodeId dst, Tag tag, std::span<const IoSlice> slices);

  /// Non-blocking receive from `src` with matching `tag`.
  RecvHandle irecv(NodeId src, Tag tag, void* data, std::size_t capacity);

  const EngineStats& stats() const { return events_.stats(); }
  void reset_stats() { events_.reset_stats(); }

  /// Attaches an execution tracer (nullptr detaches). The tracer must
  /// outlive the engine or be detached first.
  void set_tracer(trace::Tracer* tracer) { events_.set_tracer(tracer); }

  /// Attaches the always-on flight recorder (nullptr detaches; same
  /// lifetime contract as set_tracer). Data-plane events and control-plane
  /// transitions are mirrored into its lock-free ring, and failover /
  /// quarantine / trust-demotion events trigger postmortem bundles. Also
  /// installs this engine as the recorder's state writer, so bundles carry
  /// the per-rail health/trust/scale view and the failover config.
  void set_flight_recorder(trace::FlightRecorder* recorder);

  /// Writes one JSON object describing the engine's live control-plane
  /// state (per-rail quarantine/trust/scale, key config knobs) — embedded
  /// in postmortem bundles, also handy for diagnostics.
  void write_state_json(std::ostream& os) const;

  /// Attaches a metrics registry (nullptr detaches). Handles are resolved
  /// once here; afterwards the hot path touches only relaxed atomics, and a
  /// detached engine pays one null-check per site (same contract as
  /// set_tracer). The registry must outlive the engine or be detached.
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Attaches a predicted-vs-actual completion tracker (nullptr detaches).
  /// Records one sample per emission/chunk: the duration the estimator (or
  /// the split solver) promised against the fabric's actual NIC completion.
  void set_prediction_tracker(telemetry::PredictionTracker* tracker) {
    predictions_ = tracker;
  }

  /// Attaches the shared drift detector (nullptr detaches; same contract as
  /// set_tracer). Every emission/chunk completion is fed to it, and the
  /// engine arms background re-sampling sweeps when the detector asks.
  void set_recalibrator(sampling::Recalibrator* recal);

  /// Requests an immediate background re-sampling sweep of `rail`
  /// (railsctl --force-recal). No-op without an attached recalibrator.
  void force_recalibrate(RailId rail);

  /// Number of sends still sitting in the pack list (tests/diagnostics).
  std::size_t pending_sends() const { return pending_eager_.size(); }

  /// True when `rail` is currently quarantined (excluded from strategy
  /// decisions until a re-probe finds the link up again).
  bool rail_quarantined(RailId rail) const { return rail_health_[rail].quarantined; }

  /// Sequenced segments posted but not yet acknowledged end-to-end (0 when
  /// the reliability layer is off or fully drained). Tests use this to
  /// assert that a soak leaves no retransmit state behind.
  std::uint64_t reliable_in_flight() const { return rel_live_entries_; }

  /// Health-plane sampler / SLO monitor (docs/OBSERVABILITY.md); nullptr
  /// unless config().timeseries.enabled (monitor also needs config().slos).
  telemetry::HealthSampler* health() { return health_.get(); }
  const telemetry::HealthSampler* health() const { return health_.get(); }
  telemetry::SloMonitor* slo_monitor() { return slo_.get(); }
  const telemetry::SloMonitor* slo_monitor() const { return slo_.get(); }
  /// QoS class names in ClassId order (empty when QoS is off) — the axis of
  /// the per-class series and the scorecard.
  std::vector<std::string> qos_class_names() const;

 private:
  using MsgKey = std::pair<NodeId, std::uint64_t>;  // (source node, msg id)

  struct UnexpectedEager {
    Tag tag = 0;
    std::size_t total = 0;
    std::size_t received = 0;
    std::vector<std::uint8_t> buffer;
  };

  struct UnexpectedRts {
    NodeId src = 0;
    std::uint64_t msg_id = 0;
    Tag tag = 0;
    std::size_t total = 0;
  };

  struct InboundRdv {
    RecvHandle recv;
    NodeId src = 0;
    /// Disjoint byte ranges already landed ([start, end) keyed by start).
    /// Makes reception idempotent: a duplicate DATA chunk — the original
    /// arriving after a spurious-timeout retransmit — adds nothing.
    std::map<std::uint64_t, std::uint64_t> covered;
  };

  /// Per-rail quarantine state (docs/FAULTS.md).
  struct RailHealth {
    bool quarantined = false;
    SimTime until = 0;       ///< quarantine lifts no earlier than this
    SimDuration window = 0;  ///< current backoff window (0 = config default)
  };

  StrategyContext make_context();
  /// Shared isend/try_isend implementation. `bounded` = refuse (nullptr)
  /// instead of enqueueing past the class queue capacity.
  SendHandle submit_send(NodeId dst, Tag tag, const void* data, std::size_t len,
                         const SendOptions& opts, bool bounded);
  void on_segment(fabric::Segment&& seg);
  void handle_eager(const fabric::Segment& seg);
  void handle_rts(const fabric::Segment& seg);
  void handle_cts(const fabric::Segment& seg);
  void handle_data(const fabric::Segment& seg);
  void handle_fin(const fabric::Segment& seg);

  /// Interrogates the strategy for the queued eager sends and posts the
  /// returned emissions. When the strategy defers, schedule_retry re-arms
  /// it for the next instant a planner input can change.
  void progress();
  void schedule_retry();

  // -- scheduler wakeups (docs/PERF.md, "Scheduler wakeups") ---------------
  /// One re-armable wakeup. Every (re-)arm stamps a new generation; an
  /// event whose stamp is stale was superseded by an earlier arm and does
  /// nothing.
  struct Wake {
    SimTime at = kSimTimeNever;  ///< armed instant; kSimTimeNever = unarmed
    std::uint64_t gen = 0;
    /// The wake sleeps past an idle NIC its rule skips, so any planner
    /// input change must pull it to the present (note_planner_input).
    bool deferred = false;
  };
  /// Rails a wake serves. kPlanner: the eager strategies' — the usable
  /// rails, or every rail when none is usable, plus busy quarantined rails
  /// (SingleRail ignores usability). kStreams: the windowed stream pump's,
  /// which posts on usable rails only.
  enum class WakeScope { kPlanner, kStreams };
  struct WakePlan {
    SimTime at = kSimTimeNever;
    bool deferred = false;
  };
  /// Earliest instant a `scope` input can change on its own: a busy rail
  /// frees (for kStreams, only a usable one). An idle rail defers a kPlanner
  /// wake to the next planner input, unless a QoS backlog waits on the
  /// arbiter; kStreams feeds idle usable rails at now + 1.
  WakePlan plan_wake(WakeScope scope) const;
  /// Arms an unarmed `wake` at `when`. An armed wake moves only when it is
  /// deferred and `when` is earlier; a plain one stays at its NIC-free
  /// instant.
  void arm_wake(Wake& wake, SimTime when, bool deferred, void (Engine::*run)());
  /// Called on every planner-input change (quarantine, lift, failover,
  /// recalibration, strategy swap): pulls the deferred wakes to the present.
  void note_planner_input();
  void post_emission(const EagerEmission& emission);
  void start_rendezvous(const SendHandle& send);
  void accept_rendezvous(NodeId src, std::uint64_t msg_id);
  void stream_chunks(SendRequest& send);

  // -- traffic-class QoS (docs/QOS.md) -----------------------------------
  /// Asks the arbiter for one grant round and moves the grants into the
  /// pack list (called at the head of every scheduler activation).
  void drain_qos();
  /// Earliest predicted completion of a `len`-byte send submitted now
  /// (eager: best usable rail; rendezvous: handshake + equal-finish
  /// makespan across usable rails, busy offsets included). Feeds deadline
  /// admission.
  SimTime earliest_feasible_completion(std::size_t len) const;
  /// Marks `send` done at `when` and records its completion; QoS sends also
  /// settle their deadline. `rail` is the emitting rail of an eager send.
  void finish_send(SendRequest& send, SimTime when, RailId rail, bool rendezvous);
  /// Windowed rendezvous streaming: posts at most one bulk_chunk-sized
  /// chunk per idle usable rail per sweep, so strict classes grab rail
  /// slots between chunks, then re-arms at the next NIC-idle time.
  void pump_qos_streams();
  void arm_qos_pump();

  /// Posts one segment on `rail`; the submitting core is busy for the host
  /// share of the post. `extra_delay` models offload signalling (TO).
  fabric::SimNic::PostTimes post_segment(RailId rail, fabric::Segment seg,
                                         CoreId core, SimDuration extra_delay = 0);

  void deliver_fragment(const SubPacket& sp, NodeId src);
  void complete_recv(const RecvHandle& recv);
  RecvHandle match_posted(NodeId src, Tag tag);

  // -- fault tolerance ---------------------------------------------------
  bool rail_usable(RailId rail) const { return !rail_health_[rail].quarantined; }
  void on_tx_error(fabric::Segment&& seg);
  void on_tx_complete(const fabric::Segment& seg);
  void on_chunk_timeout(std::uint64_t msg_id, std::uint64_t offset, std::size_t bytes,
                        RailId rail, unsigned attempt);
  /// Re-splits a lost byte range of `send` across the surviving rails.
  void failover_chunk(SendRequest& send, std::uint64_t offset, std::size_t bytes,
                      RailId failed_rail, unsigned attempt);
  /// Posts one DATA chunk of `send` and records it, observes its completion
  /// and arms its timeout. `attempt` > 0 marks a failover re-post, `stream`
  /// a windowed QoS chunk; `plan` (default: the estimator's prediction) is
  /// the predicted duration the timeout derives from.
  void post_chunk(const SendRequest& send, RailId rail, std::uint64_t offset,
                  std::size_t bytes, unsigned attempt, bool stream,
                  std::optional<SimDuration> plan = std::nullopt);
  /// Registers a live chunk and arms its timeout event, `armed_from` (the
  /// post's host start) plus the slack-scaled prediction. `dst` feeds the
  /// multi-hop flight allowance (Fabric::extra_path_latency).
  void track_chunk(std::uint64_t msg_id, NodeId dst, std::uint64_t offset,
                   std::size_t bytes, RailId rail, unsigned attempt,
                   SimTime armed_from, SimDuration predicted);
  void quarantine_rail(RailId rail);
  void schedule_reprobe(RailId rail);
  void reprobe_rail(RailId rail);

  // -- end-to-end reliability (docs/FAULTS.md) ---------------------------
  // Sender side: every non-ACK segment gets a per-(src,dst)-link sequence
  // number and a CRC32C, and a copy of its payload parks in a power-of-two
  // ring slab until a cumulative/selective ACK retires it. Loss is inferred
  // by prediction-scaled ACK timeout (silent drops), NACK (checksum
  // failures), or NIC tx-error; recovery retransmits from the parked copy —
  // never touching PR 2's failover re-split, which would race it.

  /// One unacknowledged sequenced segment (slot in a RelLink ring).
  struct RelTxEntry {
    bool in_use = false;
    fabric::SegKind kind = fabric::SegKind::kEager;
    unsigned attempt = 0;
    unsigned retransmits = 0;       ///< end-to-end retransmissions so far
    RailId rail = 0;                ///< rail of the latest transmission
    NodeId dst = 0;
    std::uint64_t seq = 0;
    std::uint64_t msg_id = 0;
    Tag tag = 0;
    std::uint64_t offset = 0;
    std::uint64_t total_len = 0;
    std::uint32_t crc = 0;
    SimDuration base_timeout = 0;   ///< first-transmission ACK wait (pre-backoff)
    std::vector<std::uint8_t> payload;  ///< parked copy for retransmission
  };

  /// Per-peer link state, indexed by node id. TX: seq allocation + the
  /// unacked ring. RX: cumulative counter + a kRelRxWindow-seq bitmap ring
  /// making receives exactly-once, plus the coalesced-ACK arm flag.
  struct RelLink {
    std::uint64_t next_seq = 1;        ///< 0 is "unsequenced" on the wire
    std::uint64_t oldest_unacked = 1;
    std::vector<RelTxEntry> ring;      ///< power-of-two, slot = seq & (size-1)
    std::uint64_t rx_cumulative = 0;   ///< every seq <= this was accepted
    std::array<std::uint64_t, 16> rx_bits{};  ///< seqs (cumulative, +window]
    bool ack_armed = false;
  };
  static constexpr std::uint64_t kRelRxWindow = 16 * 64;  ///< rx_bits span

  /// Assigns seq + CRC to an outbound segment and parks a retransmit copy.
  void rel_stash(fabric::Segment& seg, RailId rail);
  /// Arms (or re-arms, with backoff) the ACK timeout for (dst, seq).
  void rel_arm(NodeId dst, std::uint64_t seq, SimDuration predicted_flight);
  void rel_on_timeout(NodeId dst, std::uint64_t seq, unsigned expected_retransmits);
  /// Shared loss reaction: budget check, then retransmit or give up.
  /// `count_streak` = an inferred silent loss (timeout), which feeds the
  /// per-rail loss streak; NACK/tx-error losses already name their cause.
  void rel_presume_lost(RelTxEntry& entry, bool count_streak);
  void rel_retransmit(RelTxEntry& entry);
  void rel_exhaust(RelTxEntry& entry);
  void rel_retire(NodeId dst, std::uint64_t seq);
  void rel_release(RelTxEntry& entry);
  RelTxEntry* rel_find(NodeId dst, std::uint64_t seq);
  RelTxEntry& rel_slot(RelLink& link, std::uint64_t seq);
  void rel_grow_ring(RelLink& link);

  /// Receiver gate: verify CRC, suppress duplicates, record the seq, arm
  /// the coalesced ACK. False = segment consumed (drop/dup/corrupt).
  bool rel_rx_accept(const fabric::Segment& seg);
  void rel_arm_ack(NodeId src);
  void rel_flush_ack(NodeId src);
  void rel_send_nack(NodeId src, std::uint64_t seq);
  void rel_handle_ack(const fabric::Segment& seg);
  void rel_handle_nack(const fabric::Segment& seg);

  // -- recalibration -----------------------------------------------------
  /// Feeds one completed transfer into the tracker and the drift detector,
  /// turning the detector's verdict into stats/metrics/sweeps. `plan` is
  /// what the scheduler promised (tracker, timeouts); `model` is the raw
  /// estimator prediction — the drift detector must see the latter, because
  /// the plan bakes in the trust penalty of a SUSPECT rail and feeding that
  /// back would make the correction chase the penalty instead of the
  /// network.
  void observe_completion(RailId rail, SimDuration plan, SimDuration model,
                          SimDuration actual);
  /// True when some attached observer wants (predicted, actual) pairs.
  bool observing() const { return predictions_ != nullptr || recal_ != nullptr; }
  void schedule_resample(RailId rail);
  void run_resample(RailId rail);
  /// Best usable rail for re-posting a self-contained segment.
  RailId repost_rail(const fabric::Segment& seg) const;

  // -- health plane (docs/OBSERVABILITY.md) ------------------------------
  /// One sampling tick: snapshot the curated metrics, evaluate the SLOs,
  /// escalate new-firing alerts into the flight recorder, and re-arm while
  /// the engine still has work in flight. The tick deliberately does NOT
  /// re-arm on an idle engine — a perpetual periodic event would keep
  /// run_all()/run_until() from ever terminating; submit/receive activity
  /// re-arms it instead.
  void health_tick();
  void arm_health();
  bool health_work_pending() const;

  /// Records one engine fact in every sink its kind is routed to
  /// (core/engine_events.hpp); the engine writes to no sink any other way.
  void emit(trace::EventKind kind, const EventFields& f = {}) {
    events_.emit(kind, f, fabric_->now());
  }
  /// Requests a postmortem bundle dump (no-op when detached/rate-limited).
  void flight_trigger(const char* reason, const std::string& detail);

  fabric::Fabric* fabric_;
  NodeId self_;
  const sampling::Estimator* estimator_;
  EngineConfig config_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<fabric::SimNic*> nics_;
  std::size_t rdv_threshold_ = 0;
  std::uint64_t next_msg_id_ = 1;
  Wake progress_wake_;
  Wake pump_wake_;

  std::vector<RailHealth> rail_health_;            ///< per-rail quarantine state
  std::vector<std::uint8_t> rail_usable_;          ///< mask refreshed per context
  /// In-flight DMA chunks: msg id -> (offset -> retransmission attempt).
  /// Entries vanish on local tx-completion, error hand-off, or FIN — a
  /// timeout event that finds no entry (or a newer attempt) is stale.
  std::map<std::uint64_t, std::map<std::uint64_t, unsigned>> live_chunks_;

  std::vector<SendHandle> pending_eager_;          ///< the pack list
  std::map<std::uint64_t, SendHandle> rdv_sends_;  ///< RTS sent, keyed by msg id

  // -- end-to-end reliability (docs/FAULTS.md) ---------------------------
  std::vector<RelLink> rel_links_;        ///< per-peer, indexed by node id
  std::vector<unsigned> rel_loss_streak_; ///< consecutive inferred losses/rail
  std::uint64_t rel_live_entries_ = 0;    ///< unacked sequenced segments

  // -- traffic-class QoS (docs/QOS.md) -----------------------------------
  std::unique_ptr<qos::QosArbiter> qos_;  ///< null when disabled
  /// One windowed bulk stream: CTS arrived, chunks fed bulk_chunk at a time.
  struct QosStream {
    SendHandle send;
    std::uint64_t next_offset = 0;
  };
  std::map<std::uint64_t, QosStream> qos_streams_;  ///< keyed by msg id
  std::vector<RecvHandle> posted_recvs_;           ///< unmatched, FIFO
  /// Matched multi-fragment eager receives. Flat + swap-erase: lookups are
  /// linear but the live set is small, and binding never allocates once the
  /// vector is warm (a std::map node did, every message).
  std::vector<std::pair<MsgKey, RecvHandle>> bound_recvs_;
  std::map<MsgKey, InboundRdv> inbound_rdv_;       ///< CTS sent, data flowing
  std::map<MsgKey, UnexpectedEager> unexpected_;   ///< early eager fragments
  std::vector<UnexpectedRts> unexpected_rts_;      ///< early RTS, FIFO

  EventFanout events_;  ///< the ledger, registry, Tracer and flight sinks
  trace::FlightRecorder* flight_ = nullptr;  ///< postmortem triggers

  // -- health plane (docs/OBSERVABILITY.md) ------------------------------
  std::unique_ptr<telemetry::HealthSampler> health_;  ///< null when disabled
  std::unique_ptr<telemetry::SloMonitor> slo_;        ///< null without slos
  bool health_armed_ = false;
  telemetry::PredictionTracker* predictions_ = nullptr;
  sampling::Recalibrator* recal_ = nullptr;
  std::vector<double> trust_penalty_;      ///< per-rail penalties for contexts
  std::vector<std::uint8_t> resample_armed_;  ///< dedups sweep events per rail

  // -- hot-path scratch (docs/PERF.md) ------------------------------------
  // Persistent buffers recycled across activations so the steady-state
  // submit -> schedule -> emit path touches no allocator.

  /// Single-pass destination grouping: dst -> group index, stamped with
  /// group_epoch_ so clearing between activations is O(1).
  std::vector<std::vector<const SendRequest*>> group_sends_;
  std::size_t groups_used_ = 0;
  std::vector<std::uint32_t> dst_group_;
  std::vector<std::uint32_t> dst_epoch_;
  std::uint32_t group_epoch_ = 0;

  /// earliest_feasible_completion / failover re-split scratch (the former
  /// is const, hence mutable).
  mutable std::vector<RailId> rail_scratch_;
  mutable std::vector<strategy::ProfileCost> cost_scratch_;
  mutable std::vector<strategy::SolverRail> solver_scratch_;

  std::vector<SubPacket> subpacket_scratch_;  ///< eager unpack scratch
};

}  // namespace rails::core

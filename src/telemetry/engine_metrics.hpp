// Cached metric handles for the communication engine's hot path.
//
// attach() resolves every named metric once (allocating registry entries);
// afterwards each hook is a single branch on `registry_` plus relaxed
// atomics — no map lookups, no allocation, no locks. Detached, every hook
// is exactly one null-pointer check, mirroring Engine::set_tracer's
// zero-cost contract (verified by an allocation-counting test).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace rails::telemetry {

class EngineMetrics {
 public:
  /// Resolves handles against `registry` for `rail_count` rails. Passing
  /// nullptr detaches (all hooks become no-ops).
  void attach(MetricsRegistry* registry, std::size_t rail_count) {
    registry_ = registry;
    per_rail_bytes_.clear();
    per_rail_chunks_.clear();
    per_rail_healthy_.clear();
    per_rail_trust_.clear();
    per_rail_scale_.clear();
    per_rail_drift_.clear();
    if (registry_ == nullptr) return;
    submits_ = registry_->counter("engine.sends");
    recv_posts_ = registry_->counter("engine.recvs");
    eager_msgs_ = registry_->counter("engine.eager_msgs");
    rdv_msgs_ = registry_->counter("engine.rdv_msgs");
    eager_emits_ = registry_->counter("engine.eager_segments");
    chunks_posted_ = registry_->counter("engine.rdv_chunks");
    offload_signals_ = registry_->counter("engine.offload_signals");
    rdv_roundtrips_ = registry_->counter("engine.rdv_roundtrips");
    progress_calls_ = registry_->counter("engine.progress_calls");
    progress_empty_ = registry_->counter("engine.progress_empty");
    send_latency_ = registry_->histogram("engine.send_latency_ns");
    recv_latency_ = registry_->histogram("engine.recv_latency_ns");
    queueing_delay_ = registry_->histogram("engine.queueing_delay_ns");
    emission_bytes_ = registry_->histogram("engine.emission_bytes");
    chunk_bytes_ = registry_->histogram("engine.chunk_bytes");
    tx_errors_ = registry_->counter("engine.tx_errors");
    chunk_timeouts_ = registry_->counter("engine.chunk_timeouts");
    failovers_ = registry_->counter("engine.failovers");
    retries_ = registry_->counter("engine.failover_retries");
    exhausted_ = registry_->counter("engine.failover_exhausted");
    quarantines_ = registry_->counter("engine.quarantines");
    reprobes_ = registry_->counter("engine.reprobes");
    reprobe_successes_ = registry_->counter("engine.reprobe_successes");
    duplicate_chunks_ = registry_->counter("engine.duplicate_chunks");
    rel_corruptions_ = registry_->counter("engine.reliability.corruptions");
    rel_drops_inferred_ = registry_->counter("engine.reliability.drops_inferred");
    rel_retransmits_ = registry_->counter("engine.reliability.retransmits");
    rel_dup_suppressed_ = registry_->counter("engine.reliability.dup_suppressed");
    rel_exhausted_ = registry_->counter("engine.reliability.retry_exhausted");
    rel_acks_ = registry_->counter("engine.reliability.acks");
    rel_nacks_ = registry_->counter("engine.reliability.nacks");
    recal_corrections_ = registry_->counter("engine.recal.corrections");
    recal_resamples_ = registry_->counter("engine.recal.resamples");
    trust_demotions_ = registry_->counter("engine.recal.demotions");
    trust_promotions_ = registry_->counter("engine.recal.promotions");
    trace_dropped_ = registry_->gauge("engine.trace_dropped");
    flight_evictions_ = registry_->gauge("engine.flight_evictions");
    per_rail_bytes_.reserve(rail_count);
    per_rail_chunks_.reserve(rail_count);
    per_rail_healthy_.reserve(rail_count);
    per_rail_trust_.reserve(rail_count);
    per_rail_scale_.reserve(rail_count);
    per_rail_drift_.reserve(rail_count);
    for (std::size_t r = 0; r < rail_count; ++r) {
      const std::string prefix = "engine.rail" + std::to_string(r);
      per_rail_bytes_.push_back(registry_->counter(prefix + ".payload_bytes"));
      per_rail_chunks_.push_back(registry_->counter(prefix + ".segments"));
      per_rail_healthy_.push_back(registry_->gauge(prefix + ".healthy"));
      per_rail_healthy_.back()->set(1);
      per_rail_trust_.push_back(registry_->gauge(prefix + ".trust"));
      per_rail_trust_.back()->set(0);  // TRUSTED
      per_rail_scale_.push_back(registry_->gauge(prefix + ".profile_scale_x1000"));
      per_rail_scale_.back()->set(1000);
      per_rail_drift_.push_back(registry_->gauge(prefix + ".drift_x1000"));
      per_rail_drift_.back()->set(0);
    }
  }

  /// Re-resolves the per-strategy decision counters; called whenever the
  /// installed strategy (or the registry) changes.
  void set_strategy_name(const std::string& name) {
    strategy_name_ = name;
    if (registry_ == nullptr || name.empty()) {
      plan_eager_ = nullptr;
      plan_rendezvous_ = nullptr;
      return;
    }
    plan_eager_ = registry_->counter("strategy." + name + ".plan_eager");
    plan_rendezvous_ = registry_->counter("strategy." + name + ".plan_rendezvous");
  }

  bool attached() const { return registry_ != nullptr; }
  const std::string& strategy_name() const { return strategy_name_; }

  // -- hot-path hooks (one branch when detached) -----------------------------

  void on_submit(bool rendezvous) {
    if (registry_ == nullptr) return;
    submits_->inc();
    (rendezvous ? rdv_msgs_ : eager_msgs_)->inc();
  }
  void on_recv_posted() {
    if (registry_ == nullptr) return;
    recv_posts_->inc();
  }
  void on_progress() {
    if (registry_ == nullptr) return;
    progress_calls_->inc();
  }
  /// A progress pass that posted nothing: the strategy deferred every group.
  void on_progress_empty() {
    if (registry_ == nullptr) return;
    progress_empty_->inc();
  }
  void on_plan_eager() {
    if (registry_ == nullptr || plan_eager_ == nullptr) return;
    plan_eager_->inc();
  }
  void on_plan_rendezvous() {
    if (registry_ == nullptr || plan_rendezvous_ == nullptr) return;
    plan_rendezvous_->inc();
  }
  void on_eager_emit(RailId rail, std::size_t bytes, bool offloaded) {
    if (registry_ == nullptr) return;
    eager_emits_->inc();
    if (offloaded) offload_signals_->inc();
    emission_bytes_->observe(bytes);
    if (rail < per_rail_bytes_.size()) {
      per_rail_bytes_[rail]->inc(bytes);
      per_rail_chunks_[rail]->inc();
    }
  }
  void on_chunk_posted(RailId rail, std::size_t bytes) {
    if (registry_ == nullptr) return;
    chunks_posted_->inc();
    chunk_bytes_->observe(bytes);
    if (rail < per_rail_bytes_.size()) {
      per_rail_bytes_[rail]->inc(bytes);
      per_rail_chunks_[rail]->inc();
    }
  }
  void on_rdv_complete() {
    if (registry_ == nullptr) return;
    rdv_roundtrips_->inc();
  }
  void on_send_complete(SimDuration latency) {
    if (registry_ == nullptr) return;
    send_latency_->observe(latency > 0 ? static_cast<std::uint64_t>(latency) : 0);
  }
  /// Submission-to-first-emission delay of one message.
  void on_queueing(SimDuration queueing) {
    if (registry_ == nullptr) return;
    queueing_delay_->observe(queueing > 0 ? static_cast<std::uint64_t>(queueing) : 0);
  }
  void on_recv_complete(SimDuration latency) {
    if (registry_ == nullptr) return;
    recv_latency_->observe(latency > 0 ? static_cast<std::uint64_t>(latency) : 0);
  }

  // -- fault-tolerance hooks -------------------------------------------------

  /// A posted segment came back as a completion-queue error (dropped by a
  /// down link).
  void on_tx_error() {
    if (registry_ == nullptr) return;
    tx_errors_->inc();
  }
  /// A DMA chunk exceeded its predicted completion plus slack.
  void on_chunk_timeout() {
    if (registry_ == nullptr) return;
    chunk_timeouts_->inc();
  }
  /// An in-flight byte range was re-split across surviving rails.
  void on_failover() {
    if (registry_ == nullptr) return;
    failovers_->inc();
  }
  /// One segment re-posted (counts every retransmitted segment).
  void on_retry() {
    if (registry_ == nullptr) return;
    retries_->inc();
  }
  /// A byte range ran out of attempts; its send is now failed.
  void on_exhausted() {
    if (registry_ == nullptr) return;
    exhausted_->inc();
  }
  void on_quarantine(RailId rail) {
    if (registry_ == nullptr) return;
    quarantines_->inc();
    if (rail < per_rail_healthy_.size()) per_rail_healthy_[rail]->set(0);
  }
  void on_reprobe(RailId rail, bool success) {
    if (registry_ == nullptr) return;
    reprobes_->inc();
    if (!success) return;
    reprobe_successes_->inc();
    if (rail < per_rail_healthy_.size()) per_rail_healthy_[rail]->set(1);
  }
  /// Receiver saw a DATA chunk for bytes it already has (late duplicate
  /// after a spurious-timeout retransmit).
  void on_duplicate_chunk() {
    if (registry_ == nullptr) return;
    duplicate_chunks_->inc();
  }

  // -- end-to-end reliability hooks (docs/FAULTS.md) -------------------------

  /// Wire-checksum mismatch detected on receive (the segment was NACKed).
  void on_rel_corruption() {
    if (registry_ == nullptr) return;
    rel_corruptions_->inc();
  }
  /// ACK timeout expired — a silent drop was inferred.
  void on_rel_drop_inferred() {
    if (registry_ == nullptr) return;
    rel_drops_inferred_->inc();
  }
  /// A sequenced segment was retransmitted from its parked copy.
  void on_rel_retransmit() {
    if (registry_ == nullptr) return;
    rel_retransmits_->inc();
  }
  /// The receive sequence window swallowed a duplicate.
  void on_rel_dup_suppressed() {
    if (registry_ == nullptr) return;
    rel_dup_suppressed_->inc();
  }
  /// A sequence ran out of retransmit budget (rail quarantined, postmortem
  /// triggered).
  void on_rel_exhausted() {
    if (registry_ == nullptr) return;
    rel_exhausted_->inc();
  }
  void on_rel_ack() {
    if (registry_ == nullptr) return;
    rel_acks_->inc();
  }
  void on_rel_nack() {
    if (registry_ == nullptr) return;
    rel_nacks_->inc();
  }

  // -- recalibration hooks (docs/CALIBRATION.md) -----------------------------

  /// A multiplicative scale correction was written into the rail's profile.
  void on_recal_correction(RailId rail, double scale) {
    if (registry_ == nullptr) return;
    recal_corrections_->inc();
    if (rail < per_rail_scale_.size())
      per_rail_scale_[rail]->set(static_cast<std::int64_t>(scale * 1000.0));
  }
  /// The rail's trust state changed (gauge encodes TrustState 0..3).
  void on_trust_change(RailId rail, int state, bool demoted) {
    if (registry_ == nullptr) return;
    (demoted ? trust_demotions_ : trust_promotions_)->inc();
    if (rail < per_rail_trust_.size()) per_rail_trust_[rail]->set(state);
  }
  /// Gauge-only refresh (transitional states that are neither verdict).
  void on_trust_gauge(RailId rail, int state) {
    if (registry_ == nullptr) return;
    if (rail < per_rail_trust_.size()) per_rail_trust_[rail]->set(state);
  }
  /// One drift-detector update (|EWMA bias|, scaled by 1000 for the gauge).
  void on_drift_sample(RailId rail, double drift) {
    if (registry_ == nullptr) return;
    if (rail < per_rail_drift_.size())
      per_rail_drift_[rail]->set(static_cast<std::int64_t>(drift * 1000.0));
  }
  // -- bounded-buffer loss gauges (docs/OBSERVABILITY.md) --------------------

  /// Events evicted from a bounded Tracer ring so far (0 = lossless). A
  /// nonzero value means span reconstruction may report messages incomplete.
  void on_trace_dropped(std::uint64_t dropped) {
    if (registry_ == nullptr) return;
    trace_dropped_->set(static_cast<std::int64_t>(dropped));
  }
  /// Records evicted from the flight recorder's ring (expected to grow on
  /// long runs; the postmortem window is the last N, by design).
  void on_flight_evictions(std::uint64_t evictions) {
    if (registry_ == nullptr) return;
    flight_evictions_->set(static_cast<std::int64_t>(evictions));
  }

  /// A background re-sampling sweep installed a fresh profile.
  void on_resample(RailId rail, double scale) {
    if (registry_ == nullptr) return;
    recal_resamples_->inc();
    if (rail < per_rail_scale_.size())
      per_rail_scale_[rail]->set(static_cast<std::int64_t>(scale * 1000.0));
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  std::string strategy_name_;
  Counter* submits_ = nullptr;
  Counter* recv_posts_ = nullptr;
  Counter* eager_msgs_ = nullptr;
  Counter* rdv_msgs_ = nullptr;
  Counter* eager_emits_ = nullptr;
  Counter* chunks_posted_ = nullptr;
  Counter* offload_signals_ = nullptr;
  Counter* rdv_roundtrips_ = nullptr;
  Counter* progress_calls_ = nullptr;
  Counter* progress_empty_ = nullptr;
  Counter* plan_eager_ = nullptr;
  Counter* plan_rendezvous_ = nullptr;
  Histogram* send_latency_ = nullptr;
  Histogram* recv_latency_ = nullptr;
  Histogram* queueing_delay_ = nullptr;
  Histogram* emission_bytes_ = nullptr;
  Histogram* chunk_bytes_ = nullptr;
  Counter* tx_errors_ = nullptr;
  Counter* chunk_timeouts_ = nullptr;
  Counter* failovers_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* exhausted_ = nullptr;
  Counter* quarantines_ = nullptr;
  Counter* reprobes_ = nullptr;
  Counter* reprobe_successes_ = nullptr;
  Counter* duplicate_chunks_ = nullptr;
  Counter* rel_corruptions_ = nullptr;
  Counter* rel_drops_inferred_ = nullptr;
  Counter* rel_retransmits_ = nullptr;
  Counter* rel_dup_suppressed_ = nullptr;
  Counter* rel_exhausted_ = nullptr;
  Counter* rel_acks_ = nullptr;
  Counter* rel_nacks_ = nullptr;
  Counter* recal_corrections_ = nullptr;
  Counter* recal_resamples_ = nullptr;
  Counter* trust_demotions_ = nullptr;
  Counter* trust_promotions_ = nullptr;
  Gauge* trace_dropped_ = nullptr;
  Gauge* flight_evictions_ = nullptr;
  std::vector<Counter*> per_rail_bytes_;
  std::vector<Counter*> per_rail_chunks_;
  std::vector<Gauge*> per_rail_healthy_;
  std::vector<Gauge*> per_rail_trust_;
  std::vector<Gauge*> per_rail_scale_;
  std::vector<Gauge*> per_rail_drift_;
};

}  // namespace rails::telemetry

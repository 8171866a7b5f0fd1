#include "core/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/log.hpp"
#include "fabric/buffer_pool.hpp"
#include "perf/profiler.hpp"

namespace rails::core {

using trace::EventKind;

namespace {

/// CRC32C over the protocol-stable segment fields plus the payload. `rail`
/// and `attempt` are deliberately excluded: both legitimately change when a
/// segment is retransmitted on another rail, and a retransmission must
/// checksum identically to the original so the receiver's verify works on
/// whichever copy arrives first.
std::uint32_t reliable_crc(const fabric::Segment& seg) {
  std::uint8_t hdr[49];
  std::size_t n = 0;
  hdr[n++] = static_cast<std::uint8_t>(seg.kind);
  const auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) hdr[n++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  const auto put64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) hdr[n++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(seg.src);
  put32(seg.dst);
  put64(seg.msg_id);
  put64(seg.tag);
  put64(seg.offset);
  put64(seg.total_len);
  put64(seg.seq);
  const std::uint32_t head = crc32c(hdr, n);
  if (seg.payload.empty()) return head;
  return crc32c_extend(head, seg.payload.data(), seg.payload.size());
}

/// Operand of a scaled gauge or flight record: `v` x1000, truncated.
std::int64_t x1000(double v) { return static_cast<std::int64_t>(v * 1000.0); }

}  // namespace

RailId Strategy::control_rail(const StrategyContext& ctx) const {
  // Default policy: the usable rail whose zero-byte eager message completes
  // first, busy offsets included — typically the lowest-latency idle rail.
  RailId best = 0;
  SimTime best_done = kSimTimeNever;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    const sampling::RailState state{r, ctx.rail_busy_until(r)};
    const SimTime done =
        ctx.estimator->completion(state, ctx.now, 0, fabric::Protocol::kEager);
    if (done < best_done) {
      best_done = done;
      best = r;
    }
  }
  return best;
}

Engine::Engine(fabric::Fabric* fabric, NodeId self, const sampling::Estimator* estimator,
               EngineConfig config)
    : fabric_(fabric), self_(self), estimator_(estimator), config_(config),
      events_(self, fabric->rail_count()) {
  RAILS_CHECK(fabric_ != nullptr && estimator_ != nullptr);
  RAILS_CHECK_MSG(estimator_->rail_count() == fabric_->rail_count(),
                  "estimator and fabric disagree on the rail count");
  nics_.reserve(fabric_->rail_count());
  for (RailId r = 0; r < fabric_->rail_count(); ++r) nics_.push_back(&fabric_->nic(self_, r));
  rdv_threshold_ = config_.rdv_threshold_override != 0 ? config_.rdv_threshold_override
                                                       : estimator_->engine_rdv_threshold();
  if (config_.qos.enabled) {
    qos_ = std::make_unique<qos::QosArbiter>(config_.qos, rdv_threshold_);
  }
  if (config_.reliability.enabled) {
    rel_links_.resize(fabric_->node_count());
    rel_loss_streak_.assign(fabric_->rail_count(), 0);
  }
  rail_health_.assign(fabric_->rail_count(), RailHealth{});
  rail_usable_.assign(fabric_->rail_count(), 1);
  trust_penalty_.assign(fabric_->rail_count(), 1.0);
  resample_armed_.assign(fabric_->rail_count(), 0);
  if (config_.timeseries.enabled) {
    health_ = std::make_unique<telemetry::HealthSampler>(config_.timeseries);
    if (!config_.slos.empty()) {
      slo_ = std::make_unique<telemetry::SloMonitor>(config_.slos);
      slo_->bind(qos_class_names());
    }
  }
  fabric_->set_rx_handler(self_, [this](fabric::Segment&& seg) { on_segment(std::move(seg)); });
  // Completion-queue hooks on this node's own NICs: successful deliveries
  // retire live chunks, drops enter the failover path.
  for (fabric::SimNic* nic : nics_) {
    nic->set_tx_error([this](fabric::Segment&& seg) { on_tx_error(std::move(seg)); });
    nic->set_tx_complete([this](const fabric::Segment& seg) { on_tx_complete(seg); });
  }
}

void Engine::set_strategy(std::unique_ptr<Strategy> strategy) {
  RAILS_CHECK(strategy != nullptr);
  strategy_ = std::move(strategy);
  events_.set_strategy_name(strategy_->name());
  note_planner_input();  // the new strategy may post what the old one declined
}

void Engine::set_metrics(telemetry::MetricsRegistry* registry) {
  events_.attach_metrics(registry);
  if (qos_ != nullptr) qos_->attach_metrics(registry);
  if (health_ != nullptr) {
    health_->attach(registry, qos_class_names(), fabric_->rail_count());
  }
}

std::vector<std::string> Engine::qos_class_names() const {
  std::vector<std::string> names;
  if (qos_ != nullptr) {
    names.reserve(qos_->class_count());
    for (qos::ClassId c = 0; c < qos_->class_count(); ++c) {
      names.push_back(qos_->spec(c).name);
    }
  }
  return names;
}

void Engine::set_recalibrator(sampling::Recalibrator* recal) {
  if (recal != nullptr) {
    RAILS_CHECK_MSG(recal->rail_count() == nics_.size(),
                    "recalibrator and fabric disagree on the rail count");
  }
  recal_ = recal;
}

void Engine::set_flight_recorder(trace::FlightRecorder* recorder) {
  flight_ = recorder;
  events_.set_flight_recorder(recorder);
  if (flight_ != nullptr) {
    flight_->set_state_writer([this](std::ostream& os) { write_state_json(os); });
    if (health_ != nullptr) {
      // SLO postmortems carry the offending time series, not just the
      // moment of the page (docs/OBSERVABILITY.md).
      flight_->set_series_writer(
          [this](std::ostream& os) { health_->write_json(os); });
    }
  }
}

void Engine::write_state_json(std::ostream& os) const {
  os << "{\"node\":" << self_ << ",\"strategy\":\""
     << (strategy_ != nullptr ? strategy_->name() : "(none)") << '"'
     << ",\"rdv_threshold\":" << rdv_threshold_ << ",\"rails\":[";
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != 0) os << ',';
    os << "{\"rail\":" << r << ",\"quarantined\":"
       << (rail_health_[r].quarantined ? "true" : "false");
    if (rail_health_[r].quarantined) {
      os << ",\"until_us\":" << to_usec(rail_health_[r].until);
    }
    if (recal_ != nullptr) {
      os << ",\"trust\":\"" << sampling::to_string(recal_->trust(r)) << '"'
         << ",\"scale\":" << recal_->scale(r)
         << ",\"drift\":" << recal_->drift_score(r);
    }
    os << '}';
  }
  os << "],\"config\":{\"failover_enabled\":"
     << (config_.failover.enabled ? "true" : "false")
     << ",\"timeout_slack\":" << config_.failover.timeout_slack
     << ",\"max_attempts\":" << config_.failover.max_attempts
     << ",\"quarantine_us\":" << to_usec(config_.failover.quarantine)
     << ",\"reliability_enabled\":" << (config_.reliability.enabled ? "true" : "false")
     << ",\"reliability_checksum\":" << (config_.reliability.checksum ? "true" : "false")
     << ",\"max_retransmits\":" << config_.reliability.max_retransmits
     << ",\"reliable_in_flight\":" << rel_live_entries_
     << ",\"recal_attached\":" << (recal_ != nullptr ? "true" : "false") << "}}";
}

// -- health plane (docs/OBSERVABILITY.md) ------------------------------------

bool Engine::health_work_pending() const {
  return !pending_eager_.empty() || !rdv_sends_.empty() || !qos_streams_.empty() ||
         !inbound_rdv_.empty() || !unexpected_.empty() || rel_live_entries_ > 0 ||
         (qos_ != nullptr && qos_->backlog());
}

void Engine::arm_health() {
  if (health_ == nullptr || health_armed_) return;
  health_armed_ = true;
  fabric_->events().after(health_->interval(), [this] { health_tick(); });
}

void Engine::health_tick() {
  health_armed_ = false;
  if (health_ == nullptr) return;
  const SimTime now = fabric_->now();
  const auto& ticks = health_->sample(now);
  if (slo_ != nullptr) {
    for (const telemetry::AlertEvent& ev : slo_->observe(now, ticks)) {
      emit(EventKind::kSloAlert, {.a = ev.firing, .b = x1000(ev.fast_value)});
      if (ev.firing) flight_trigger("slo-burn", ev.detail);
    }
  }
  // Re-arm only while work is in flight: one trailing tick captures the
  // final deltas after the engine drains, then the event chain ends so
  // run_all()/run_until() can terminate.
  if (health_work_pending()) arm_health();
}

void Engine::flight_trigger(const char* reason, const std::string& detail) {
  if (flight_ == nullptr) return;
  flight_->trigger(reason, detail, fabric_->now());
}

void Engine::force_recalibrate(RailId rail) {
  if (recal_ == nullptr) return;
  RAILS_CHECK(rail < nics_.size());
  recal_->force_resample(rail);
  schedule_resample(rail);
}

void Engine::observe_completion(RailId rail, SimDuration plan, SimDuration model,
                                SimDuration actual) {
  if (predictions_ != nullptr) predictions_->record(rail, plan, actual);
  if (recal_ == nullptr) return;
  const auto out = recal_->observe(rail, model, actual, fabric_->now());
  // A scale correction or trust transition changes estimator outputs, and
  // thus what the planner would decide.
  if (out.scale_corrected || out.state_changed) note_planner_input();
  if (out.scale_corrected) {
    emit(EventKind::kScaleCorrection, {.rail = rail, .a = x1000(recal_->scale(rail))});
  }
  if (out.demoted) {
    emit(EventKind::kTrustDemotion, {.rail = rail, .a = static_cast<int>(out.state)});
    char detail[128];
    std::snprintf(detail, sizeof(detail), "rail %u trust demoted to %s", rail,
                  sampling::to_string(out.state));
    flight_trigger("trust-demotion", detail);
  }
  if (out.promoted) {
    emit(EventKind::kTrustPromotion, {.rail = rail, .a = static_cast<int>(out.state)});
  }
  emit(EventKind::kDriftSample, {.rail = rail, .a = x1000(recal_->drift_score(rail))});
  if (out.resample_requested) schedule_resample(rail);
}

void Engine::schedule_resample(RailId rail) {
  if (resample_armed_[rail] != 0) return;
  resample_armed_[rail] = 1;
  // The detector rate-limits sweeps; arm the event no earlier than the next
  // slot so a hot rail does not spin the queue.
  const SimTime when = std::max(fabric_->now(), recal_->earliest_resample(rail));
  fabric_->events().at(when, [this, rail] {
    resample_armed_[rail] = 0;
    run_resample(rail);
  });
}

void Engine::run_resample(RailId rail) {
  if (recal_ == nullptr) return;
  const SimTime now = fabric_->now();
  // Several engines share the detector; whoever gets here first (and passes
  // the budget/interval gate) runs the sweep, the rest find it not due.
  if (!recal_->resample_due(rail, now)) return;
  recal_->begin_resample(rail, now);
  // The probe burst is not free: charge the scheduler core.
  fabric_->cores(self_).occupy(config_.scheduler_core, now,
                               config_.recalibration.resample_host_cost);
  sampling::RailProfile fresh = sampling::resample_rail_via_preview(
      *nics_[rail], now, config_.recalibration.resample_sampler);
  recal_->complete_resample(rail, std::move(fresh), now);
  note_planner_input();  // the rail's cost profile just changed
  emit(EventKind::kResample, {.rail = rail, .a = x1000(recal_->scale(rail))});
  emit(EventKind::kTrustState, {.rail = rail, .a = static_cast<int>(recal_->trust(rail))});
}

Strategy& Engine::strategy() {
  RAILS_CHECK_MSG(strategy_ != nullptr, "no strategy installed");
  return *strategy_;
}

StrategyContext Engine::make_context() {
  StrategyContext ctx;
  ctx.now = fabric_->now();
  ctx.estimator = estimator_;
  ctx.nics = std::span<fabric::SimNic* const>(nics_.data(), nics_.size());
  ctx.cores = &fabric_->cores(self_);
  ctx.config = &config_;
  // Health mask: quarantined rails are hidden from the strategy. When every
  // rail is quarantined there is nothing left to prefer — expose all of
  // them so traffic keeps flowing (and keeps probing).
  bool any_usable = false;
  for (RailId r = 0; r < nics_.size(); ++r) {
    rail_usable_[r] = rail_usable(r) ? 1 : 0;
    any_usable = any_usable || rail_usable_[r] != 0;
  }
  if (!any_usable) rail_usable_.assign(nics_.size(), 1);
  ctx.usable = std::span<const std::uint8_t>(rail_usable_.data(), rail_usable_.size());
  // Trust layer: SUSPECT rails carry a cost penalty; an UNTRUSTED (or
  // mid-resample) rail that is still usable compromises the solver's inputs
  // and pushes knowledge-based strategies to their iso fallback.
  if (recal_ != nullptr) {
    bool compromised = false;
    for (RailId r = 0; r < nics_.size(); ++r) {
      trust_penalty_[r] = recal_->cost_penalty(r);
      compromised = compromised || (rail_usable_[r] != 0 && recal_->compromised(r));
    }
    ctx.trust_penalty = std::span<const double>(trust_penalty_.data(), trust_penalty_.size());
    ctx.trust_compromised = compromised;
  }
  return ctx;
}

SendHandle Engine::isend(NodeId dst, Tag tag, const void* data, std::size_t len) {
  return submit_send(dst, tag, data, len, SendOptions{}, /*bounded=*/false);
}

SendHandle Engine::isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                         const SendOptions& opts) {
  return submit_send(dst, tag, data, len, opts, /*bounded=*/false);
}

SendHandle Engine::try_isend(NodeId dst, Tag tag, const void* data, std::size_t len) {
  return submit_send(dst, tag, data, len, SendOptions{}, /*bounded=*/true);
}

SendHandle Engine::try_isend(NodeId dst, Tag tag, const void* data, std::size_t len,
                             const SendOptions& opts) {
  return submit_send(dst, tag, data, len, opts, /*bounded=*/true);
}

SendHandle Engine::submit_send(NodeId dst, Tag tag, const void* data, std::size_t len,
                               const SendOptions& opts, bool bounded) {
  RAILS_PERF_SCOPE(perf::Layer::kSubmit);
  RAILS_CHECK_MSG(dst != self_, "self-sends are not routed through the fabric");
  SendHandle send = make_send_request();
  send->id = next_msg_id_++;
  send->dst = dst;
  send->tag = tag;
  send->data = static_cast<const std::uint8_t*>(data);
  send->len = len;
  send->submit_time = fabric_->now();

  if (qos_ != nullptr) {
    RAILS_PERF_SCOPE(perf::Layer::kClassify);
    send->qos_class = qos_->resolve(opts.traffic_class, len);
    // Deadline admission (docs/QOS.md): compare the estimator's earliest
    // feasible completion against the requested (or class-default) deadline
    // at submit time — an infeasible send is refused or downgraded here
    // instead of timing out on the wire.
    SimTime deadline = opts.deadline;
    if (deadline == 0) {
      const SimDuration d = qos_->spec(send->qos_class).default_deadline;
      if (d > 0) deadline = send->submit_time + d;
    }
    if (deadline != 0 && earliest_feasible_completion(len) > deadline) {
      if (config_.qos.deadline_downgrade) {
        const auto downgraded = std::min<std::uint32_t>(
            qos::kBackground, static_cast<std::uint32_t>(qos_->class_count() - 1));
        // A bounded send that the capacity check below would shed must leave
        // no admission accounting behind: check the class it would actually
        // occupy BEFORE mutating the downgrade counters.
        if (bounded && len <= rdv_threshold_ && !qos_->has_capacity(downgraded)) {
          qos_->note_rejected_full(downgraded);
          return nullptr;
        }
        qos_->note_admission_downgrade(send->qos_class);
        emit(EventKind::kAdmissionDowngrade);
        send->qos_class = downgraded;
        deadline = 0;  // downgraded sends run best-effort
      } else {
        qos_->note_admission_reject(send->qos_class);
        emit(EventKind::kAdmissionReject);
        send->state = SendState::kRejected;
        return send;
      }
    }
    send->deadline = deadline;
    // try_send bound: shed load while the class queue is at capacity (only
    // eager sends occupy the queue; rendezvous is paced by its handshake
    // and the windowed streamer).
    if (bounded && len <= rdv_threshold_ && !qos_->has_capacity(send->qos_class)) {
      qos_->note_rejected_full(send->qos_class);
      return nullptr;
    }
  }

  send->rendezvous = len > rdv_threshold_;
  emit(EventKind::kSubmit, {.msg_id = send->id, .tag = tag, .bytes = len,
                            .time = send->submit_time, .cls = send->qos_class,
                            .a = send->rendezvous});
  arm_health();  // (re)start the health tick while traffic is in flight

  if (send->rendezvous) {
    start_rendezvous(send);
  } else {
    if (qos_ != nullptr) {
      qos_->enqueue(send->qos_class, send, send->submit_time);
    } else {
      pending_eager_.push_back(send);
    }
    // The application returns immediately; the scheduler runs as a separate
    // activation at the same virtual instant. Deferring to an event lets a
    // burst of submissions issued back-to-back land in the pack list before
    // the strategy is interrogated — this is what makes aggregation see the
    // whole burst, exactly like NewMadeleine's pack list. An armed wake
    // stays put unless it sleeps past an idle NIC.
    arm_wake(progress_wake_, fabric_->now(), false, &Engine::progress);
  }
  return send;
}

SendHandle Engine::isendv(NodeId dst, Tag tag, std::span<const IoSlice> slices) {
  std::size_t total = 0;
  for (const IoSlice& s : slices) total += s.len;

  // With gather/scatter on every rail the NICs can walk the iovec during
  // injection; without it the message must be contiguous first, and that
  // memcpy costs real core time (charged before the send is even queued).
  bool all_gather = true;
  for (const auto* nic : nics_) {
    all_gather = all_gather && nic->model().params().gather_scatter;
  }

  std::vector<std::uint8_t> staging;
  staging.reserve(total);
  for (const IoSlice& s : slices) {
    const auto* bytes = static_cast<const std::uint8_t*>(s.data);
    staging.insert(staging.end(), bytes, bytes + s.len);
  }
  if (!all_gather && total > 0) {
    fabric::SimCores& cores = fabric_->cores(self_);
    cores.occupy(config_.scheduler_core, fabric_->now(),
                 wire_time(total, config_.host_copy_mbps));
  }

  SendHandle send = isend(dst, tag, staging.data(), total);
  send->staging = std::move(staging);
  send->data = send->staging.data();
  return send;
}

RecvHandle Engine::irecv(NodeId src, Tag tag, void* data, std::size_t capacity) {
  RecvHandle recv = make_recv_request();
  recv->id = next_msg_id_++;
  recv->src = src;
  recv->tag = tag;
  recv->data = static_cast<std::uint8_t*>(data);
  recv->capacity = capacity;
  recv->post_time = fabric_->now();
  emit(EventKind::kRecvPosted, {.msg_id = recv->id, .tag = tag, .bytes = capacity});

  // Unexpected eager data first (FIFO by message id within the source).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (src != kAnySource && it->first.first != src) continue;
    if (tag != kAnyTag && it->second.tag != tag) continue;
    UnexpectedEager& u = it->second;
    RAILS_CHECK_MSG(u.total <= capacity, "posted receive buffer too small");
    recv->state = RecvState::kMatched;
    recv->src = it->first.first;
    recv->tag = u.tag;
    recv->matched_msg = it->first.second;
    recv->expected = u.total;
    recv->bytes_received = u.received;
    if (u.received > 0) std::memcpy(recv->data, u.buffer.data(), u.buffer.size());
    const bool complete = u.received == u.total;
    if (complete) {
      unexpected_.erase(it);
      complete_recv(recv);
    } else {
      // Key by the *actual* source (recv->src is bound above) — `src` may
      // be the kAnySource wildcard.
      bound_recvs_.emplace_back(MsgKey{recv->src, recv->matched_msg}, recv);
      unexpected_.erase(it);
    }
    return recv;
  }

  // Then unexpected rendezvous requests (FIFO by arrival).
  for (auto it = unexpected_rts_.begin(); it != unexpected_rts_.end(); ++it) {
    if (src != kAnySource && it->src != src) continue;
    if (tag != kAnyTag && it->tag != tag) continue;
    RAILS_CHECK_MSG(it->total <= capacity, "posted receive buffer too small");
    recv->state = RecvState::kMatched;
    recv->src = it->src;
    recv->tag = it->tag;
    recv->matched_msg = it->msg_id;
    recv->expected = it->total;
    const NodeId actual_src = it->src;  // `src` may be the wildcard
    inbound_rdv_[{actual_src, it->msg_id}] = InboundRdv{recv, actual_src};
    const std::uint64_t msg_id = it->msg_id;
    unexpected_rts_.erase(it);
    accept_rendezvous(actual_src, msg_id);
    return recv;
  }

  posted_recvs_.push_back(recv);
  return recv;
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void Engine::progress() {
  // Strategy layer: everything here except the arbiter drain and the
  // emission posts (which open their own scopes) is pack-list management
  // and strategy interrogation.
  RAILS_PERF_SCOPE(perf::Layer::kStrategy);
  // With QoS on, the pack list is fed by the arbiter: strict classes and
  // aged messages first, then one weighted-DRR round. Rounds are paced by
  // the NIC-idle re-arms below, which is what enforces the weight shares
  // under saturation.
  if (qos_ != nullptr) drain_qos();
  if (pending_eager_.empty()) {
    if (qos_ != nullptr && qos_->backlog()) schedule_retry();
    return;
  }
  RAILS_CHECK_MSG(strategy_ != nullptr, "traffic submitted before a strategy was installed");
  emit(EventKind::kProgress);
  const std::uint64_t segments_before = stats().eager_segments;

  // Interrogate the strategy once per destination group, preserving the
  // first-appearance order of destinations and the submission order within
  // each group. Single pass over the pack list: each destination's group
  // index is memoized in dst_group_, stamped with group_epoch_ so resetting
  // the table between activations is O(1) (no per-node clearing), and the
  // group vectors themselves are recycled (clear keeps capacity).
  if (dst_epoch_.size() < fabric_->node_count()) {
    dst_epoch_.resize(fabric_->node_count(), 0);
    dst_group_.resize(fabric_->node_count(), 0);
  }
  if (++group_epoch_ == 0) {
    // Wrap: stamps from 2^32 activations ago could alias the fresh epoch.
    std::fill(dst_epoch_.begin(), dst_epoch_.end(), 0);
    group_epoch_ = 1;
  }
  groups_used_ = 0;
  for (const auto& s : pending_eager_) {
    std::uint32_t g;
    if (dst_epoch_[s->dst] == group_epoch_) {
      g = dst_group_[s->dst];
    } else {
      g = static_cast<std::uint32_t>(groups_used_++);
      if (groups_used_ > group_sends_.size()) group_sends_.emplace_back();
      group_sends_[g].clear();
      dst_epoch_[s->dst] = group_epoch_;
      dst_group_[s->dst] = g;
    }
    group_sends_[g].push_back(s.get());
  }
  // Each group is planned afresh, against the NIC and core state the
  // previous groups' posts left.
  for (std::size_t g = 0; g < groups_used_; ++g) {
    const StrategyContext ctx = make_context();
    emit(EventKind::kPlanEager);
    const EagerSchedule schedule = strategy_->plan_eager(ctx, group_sends_[g]);
    for (const EagerEmission& emission : schedule.emissions) post_emission(emission);
  }
  if (stats().eager_segments == segments_before) emit(EventKind::kProgressEmpty);

  // Drop fully posted sends from the pack list.
  std::erase_if(pending_eager_, [](const SendHandle& s) {
    RAILS_CHECK_MSG(s->bytes_posted == 0 || s->bytes_posted == s->len,
                    "strategy left a send partially posted");
    return s->bytes_posted == s->len;
  });

  if (!pending_eager_.empty() || (qos_ != nullptr && qos_->backlog())) schedule_retry();
}

void Engine::drain_qos() {
  RAILS_PERF_SCOPE(perf::Layer::kArbiter);
  qos_->grant(fabric_->now(), [this](SendHandle send) {
    emit(EventKind::kQosGrant);
    pending_eager_.push_back(std::move(send));
  });
}

SimTime Engine::earliest_feasible_completion(std::size_t len) const {
  const SimTime now = fabric_->now();
  if (len <= rdv_threshold_) {
    // Eager: best busy-aware completion over the usable rails (eq. 1).
    SimTime best = kSimTimeNever;
    for (RailId r = 0; r < nics_.size(); ++r) {
      if (!rail_usable(r)) continue;
      const sampling::RailState state{r, nics_[r]->busy_until()};
      best = std::min(best, estimator_->completion(state, now, len,
                                                   fabric::Protocol::kEager));
    }
    if (best != kSimTimeNever) return best;
    const sampling::RailState state{0, nics_[0]->busy_until()};
    return estimator_->completion(state, now, len, fabric::Protocol::kEager);
  }

  // Rendezvous: RTS/CTS round trip on the best rail plus the equal-finish
  // makespan of the payload across the usable rails, busy offsets included
  // (the same solver the failover path uses).
  std::vector<RailId>& usable = rail_scratch_;  // persistent submit-path scratch
  usable.clear();
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (rail_usable(r)) usable.push_back(r);
  }
  if (usable.empty()) {
    for (RailId r = 0; r < nics_.size(); ++r) usable.push_back(r);
  }
  std::vector<strategy::ProfileCost>& costs = cost_scratch_;
  costs.clear();
  costs.reserve(usable.size());
  for (RailId r : usable) costs.emplace_back(&estimator_->profile(r).rdv_chunk);
  std::vector<strategy::SolverRail>& rails = solver_scratch_;
  rails.clear();
  rails.reserve(usable.size());
  for (std::size_t i = 0; i < usable.size(); ++i) {
    const SimTime busy = nics_[usable[i]]->busy_until();
    rails.push_back({usable[i], &costs[i], busy > now ? busy - now : 0});
  }
  const strategy::SplitResult split =
      strategy::solve_equal_finish(std::span<const strategy::SolverRail>(rails), len);
  SimDuration makespan = 0;
  for (const SimDuration f : split.finish_times) makespan = std::max(makespan, f);
  if (makespan == 0) {
    for (const strategy::Chunk& c : split.chunks) {
      const sampling::RailState state{c.rail, nics_[c.rail]->busy_until()};
      makespan =
          std::max(makespan, estimator_->chunk_completion(state, now, c.bytes) - now);
    }
  }
  SimDuration handshake = kSimTimeNever;
  for (RailId r : usable) {
    const sampling::RailState state{r, nics_[r]->busy_until()};
    handshake = std::min(
        handshake,
        estimator_->completion(state, now, 0, fabric::Protocol::kEager) - now);
  }
  return now + 2 * handshake + makespan;
}

void Engine::finish_send(SendRequest& send, SimTime when, RailId rail, bool rendezvous) {
  send.state = SendState::kDone;
  send.complete_time = when;
  emit(EventKind::kSendComplete,
       {.msg_id = send.id, .tag = send.tag, .rail = rail, .bytes = send.len, .time = when,
        .since = send.submit_time, .cls = send.qos_class,
        .a = !rendezvous && send.chunk_count > 1, .b = rendezvous});
  if (qos_ == nullptr) return;
  const bool had_deadline = send.deadline != 0;
  const bool hit = had_deadline && when <= send.deadline;
  if (had_deadline) emit(hit ? EventKind::kDeadlineHit : EventKind::kDeadlineMiss);
  qos_->note_completion(send.qos_class, had_deadline, hit, when - send.submit_time);
}

void Engine::schedule_retry() {
  // Re-interrogate when the earliest NIC the planner can use frees up ("the
  // packet scheduler is only activated when a NIC becomes idle in order to
  // feed it"). An idle NIC is no reason to wake: the strategy just declined
  // it, or it is quarantined, and either stays so until a planner input
  // (submission, quarantine, lift) pulls the wake (note_planner_input).
  const WakePlan plan = plan_wake(WakeScope::kPlanner);
  arm_wake(progress_wake_, plan.at, plan.deferred, &Engine::progress);
}

Engine::WakePlan Engine::plan_wake(WakeScope scope) const {
  const SimTime now = fabric_->now();
  bool any_usable = false;
  for (RailId r = 0; r < nics_.size(); ++r) any_usable = any_usable || rail_usable(r);
  // Only the QoS arbiter moves with time alone (aging, DRR rounds): while
  // it holds a backlog, an idle rail still means "feed it next nanosecond".
  // The stream pump posts on every idle usable rail it is woken for.
  const bool feed_idle = scope == WakeScope::kStreams || (qos_ != nullptr && qos_->backlog());
  WakePlan plan;
  for (RailId r = 0; r < nics_.size(); ++r) {
    const SimTime busy = nics_[r]->busy_until();
    const bool usable = rail_usable(r) || (!any_usable && scope == WakeScope::kPlanner);
    if (usable && (busy > now || feed_idle)) {
      plan.at = std::min(plan.at, std::max(busy, now + 1));
    } else if (scope == WakeScope::kPlanner) {
      if (busy > now) {
        plan.at = std::min(plan.at, busy);
      } else {
        plan.deferred = true;  // idle rail: wait for an input change
      }
    }
  }
  // The stream pump posts on usable rails only; with none usable it waits
  // for a lift.
  if (scope == WakeScope::kStreams && !any_usable) plan.deferred = true;
  // Sleeping exactly one nanosecond is no deferral at all.
  if (plan.at <= now + 1) plan.deferred = false;
  return plan;
}

void Engine::arm_wake(Wake& wake, SimTime when, bool deferred, void (Engine::*run)()) {
  const bool armed = wake.at != kSimTimeNever;
  if (!armed && when == kSimTimeNever) {
    wake.deferred = deferred;  // nothing to arm: wait for an input change
    return;
  }
  // An armed plain wake stands: the NIC-free instant it was armed for is
  // the next observation point. Only a deferred wake is pulled earlier.
  if (armed && (!wake.deferred || when >= wake.at)) return;
  wake.at = when;
  wake.deferred = deferred;
  const std::uint64_t gen = ++wake.gen;
  fabric_->events().at(when, [this, &wake, gen, run] {
    if (wake.gen != gen) return;  // superseded by an earlier arm
    wake.at = kSimTimeNever;
    wake.deferred = false;
    (this->*run)();
  });
}

void Engine::note_planner_input() {
  const SimTime now = fabric_->now();
  if (progress_wake_.deferred) arm_wake(progress_wake_, now, true, &Engine::progress);
  if (pump_wake_.deferred) arm_wake(pump_wake_, now, true, &Engine::pump_qos_streams);
}

fabric::SimNic::PostTimes Engine::post_segment(RailId rail, fabric::Segment seg, CoreId core,
                                               SimDuration extra_delay) {
  fabric::SimCores& cores = fabric_->cores(self_);
  // ACK/NACK generation is a reliability offload: the NIC emits them from
  // firmware, so they neither wait for nor occupy a host core. Everything
  // else contends for the submitting core as usual.
  const bool control_lane = seg.kind == fabric::SegKind::kAck ||
                            seg.kind == fabric::SegKind::kNack;
  const SimTime earliest =
      control_lane ? fabric_->now() + extra_delay
                   : std::max(fabric_->now() + extra_delay, cores.busy_until(core));
  seg.src = self_;
  seg.rail = rail;
  const std::size_t payload = seg.payload.size();
  // Reliability choke point: every first-transmission segment (seq still 0)
  // except the ACK/NACK control plane gets sequenced, checksummed, and a
  // retransmit copy parked before it touches the NIC. Retransmissions carry
  // their original seq and skip straight through.
  const bool sequenced = config_.reliability.enabled && seg.seq == 0 &&
                         seg.kind != fabric::SegKind::kAck &&
                         seg.kind != fabric::SegKind::kNack;
  NodeId rel_dst = 0;
  std::uint64_t rel_seq = 0;
  if (sequenced) {
    rel_stash(seg, rail);
    rel_dst = seg.dst;
    rel_seq = seg.seq;
  }
  const auto times = nics_[rail]->post(std::move(seg), earliest);
  if (!control_lane) {
    cores.occupy(core, times.host_start, times.host_end - times.host_start);
  }
  emit(EventKind::kSegmentPosted, {.rail = rail, .bytes = payload});
  if (sequenced) {
    // deliver_at is the NIC model's single-hop arrival; on routed fabrics
    // the segment still has (hops - 1) links to cross before the receiver
    // can even generate the ACK, so budget that into the predicted flight.
    rel_arm(rel_dst, rel_seq,
            times.deliver_at - fabric_->now() +
                fabric_->extra_path_latency(self_, rel_dst, rail));
  }
  return times;
}

void Engine::post_emission(const EagerEmission& emission) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  RAILS_CHECK(!emission.pieces.empty());
  RAILS_CHECK(emission.rail < nics_.size());

  std::size_t framed = 0;
  for (const EagerPiece& piece : emission.pieces) framed += framed_size(piece.len);
  fabric::Segment seg;
  seg.payload = fabric::acquire_payload(framed);  // recycled on the receive side
  seg.kind = fabric::SegKind::kEager;
  seg.dst = emission.pieces.front().send->dst;
  seg.msg_id = emission.pieces.front().send->id;
  seg.tag = emission.pieces.front().send->tag;

  for (const EagerPiece& piece : emission.pieces) {
    RAILS_CHECK(piece.send != nullptr && piece.send->dst == seg.dst);
    RAILS_CHECK(piece.offset + piece.len <= piece.send->len);
    SubPacket sp;
    sp.msg_id = piece.send->id;
    sp.tag = piece.send->tag;
    sp.msg_total = piece.send->len;
    sp.offset = piece.offset;
    sp.bytes = piece.send->data != nullptr ? piece.send->data + piece.offset : nullptr;
    sp.len = static_cast<std::uint32_t>(piece.len);
    append_subpacket(seg.payload, sp);
  }
  RAILS_CHECK_MSG(seg.payload.size() <= nics_[emission.rail]->model().params().max_eager,
                  "eager emission exceeds the rail's segment cap");

  // Offloaded emissions start after the TO signalling delay on the remote
  // core; local emissions submit from the scheduler core immediately.
  CoreId core = config_.scheduler_core;
  SimDuration delay = 0;
  if (emission.offload_core) {
    core = *emission.offload_core;
    const bool idle = fabric_->cores(self_).idle(core, fabric_->now());
    delay = idle ? config_.offload.signal_cost : config_.offload.preempt_cost;
  }

  // Predict before posting: the post itself advances the NIC's busy-until.
  const SimTime decision_now = fabric_->now();
  const std::size_t framed_bytes = seg.payload.size();
  SimTime predicted_end = 0;
  if (observing()) {
    const sampling::RailState state{emission.rail, nics_[emission.rail]->busy_until()};
    predicted_end = estimator_->completion(state, decision_now + delay, framed_bytes,
                                           fabric::Protocol::kEager);
  }

  const auto times = post_segment(emission.rail, std::move(seg), core, delay);
  emit(EventKind::kEagerSegment,
       {.rail = emission.rail, .bytes = framed_bytes,
        .a = static_cast<std::int64_t>(emission.pieces.size()),
        .b = emission.offload_core.has_value()});
  if (observing()) {
    const SimDuration predicted = predicted_end - decision_now;
    observe_completion(emission.rail, predicted, predicted, times.nic_end - decision_now);
  }
  if (emission.offload_core) {
    const SendRequest& front = *emission.pieces.front().send;
    emit(EventKind::kOffloadSignal,
         {.msg_id = front.id, .tag = front.tag, .rail = emission.rail, .core = core,
          .cls = front.qos_class});
  }
  for (const EagerPiece& piece : emission.pieces) {
    // A send none of whose bytes are posted yet leaves the pack list here.
    const SendRequest& send = *piece.send;
    emit(EventKind::kEagerEmit,
         {.msg_id = send.id, .tag = send.tag, .rail = emission.rail, .core = core,
          .bytes = piece.len, .time = times.host_start, .nic_end = times.nic_end,
          .since = send.bytes_posted == 0 ? send.submit_time : -1,
          .cls = send.qos_class});
  }

  // Account posted bytes and complete sends whose last piece this was.
  for (const EagerPiece& piece : emission.pieces) {
    auto* send = const_cast<SendRequest*>(piece.send);
    send->bytes_posted += piece.len;
    ++send->chunk_count;
    if (emission.offload_core) ++send->offloaded_chunks;
    if (send->bytes_posted == send->len) {
      finish_send(*send, times.host_end, emission.rail, /*rendezvous=*/false);
    }
  }
}

void Engine::start_rendezvous(const SendHandle& send) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  const StrategyContext ctx = make_context();
  const RailId rail = strategy_ != nullptr ? strategy_->control_rail(ctx) : 0;
  fabric::Segment rts;
  rts.kind = fabric::SegKind::kRts;
  rts.dst = send->dst;
  rts.msg_id = send->id;
  rts.tag = send->tag;
  rts.total_len = send->len;
  post_segment(rail, std::move(rts), config_.scheduler_core);
  emit(EventKind::kRtsSent, {.msg_id = send->id, .tag = send->tag, .rail = rail,
                             .bytes = send->len, .cls = send->qos_class});
  send->state = SendState::kRtsSent;
  rdv_sends_[send->id] = send;
}

void Engine::handle_cts(const fabric::Segment& seg) {
  auto it = rdv_sends_.find(seg.msg_id);
  if (it == rdv_sends_.end() || it->second->state != SendState::kRtsSent) {
    // A duplicated or straggling CTS for a send that already streams,
    // completed or failed (wire dup with reliability off, failover
    // re-accept). Receives are idempotent; the control plane must be too.
    emit(EventKind::kStaleControl);
    return;
  }
  SendRequest& send = *it->second;
  send.state = SendState::kStreaming;
  if (qos_ != nullptr && send.len > config_.qos.bulk_chunk) {
    // Windowed streaming (docs/QOS.md): instead of laying out the whole
    // message at once, hand the NICs one bulk_chunk per idle rail and come
    // back when one frees up. Between chunks the scheduler runs first, so
    // LATENCY-class sends preempt bulk transfers at chunk granularity.
    qos_streams_[send.id] = QosStream{it->second, 0};
    pump_qos_streams();
  } else {
    stream_chunks(send);
  }
}

void Engine::pump_qos_streams() {
  // Latency preemption point: give the arbiter/strategy first claim on the
  // rails that just went idle before feeding them more bulk bytes.
  progress();
  const SimTime now = fabric_->now();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = qos_streams_.begin(); it != qos_streams_.end();) {
      SendRequest& send = *it->second.send;
      if (send.failed() || it->second.next_offset >= send.len) {
        it = qos_streams_.erase(it);
        continue;
      }
      // Best idle usable rail for the next chunk; busy rails wait for the
      // pump re-arm rather than queueing more bulk behind themselves.
      RailId best = 0;
      SimTime best_done = kSimTimeNever;
      bool found = false;
      for (RailId r = 0; r < nics_.size(); ++r) {
        if (!rail_usable(r)) continue;
        if (nics_[r]->busy_until() > now) continue;
        const sampling::RailState state{r, nics_[r]->busy_until()};
        const SimTime done =
            estimator_->chunk_completion(state, now, config_.qos.bulk_chunk);
        if (!found || done < best_done) {
          best = r;
          best_done = done;
          found = true;
        }
      }
      if (!found) {
        ++it;
        continue;
      }
      const std::size_t bytes = std::min<std::size_t>(
          config_.qos.bulk_chunk, send.len - it->second.next_offset);
      {
        RAILS_PERF_SCOPE(perf::Layer::kEmit);
        post_chunk(send, best, it->second.next_offset, bytes, /*attempt=*/0,
                   /*stream=*/true);
      }
      ++send.chunk_count;
      send.bytes_posted += bytes;
      it->second.next_offset += bytes;
      progressed = true;
      if (it->second.next_offset >= send.len) {
        it = qos_streams_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!qos_streams_.empty()) arm_qos_pump();
}

void Engine::arm_qos_pump() {
  const WakePlan plan = plan_wake(WakeScope::kStreams);
  arm_wake(pump_wake_, plan.at, plan.deferred, &Engine::pump_qos_streams);
}

void Engine::stream_chunks(SendRequest& send) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);
  // "when a rendezvous request has just been received" — the strategy is
  // interrogated with the live NIC states to lay out the DMA chunks.
  const StrategyContext ctx = make_context();
  emit(EventKind::kPlanRendezvous);
  strategy::SplitResult split;
  {
    RAILS_PERF_SCOPE(perf::Layer::kStrategy);
    split = strategy_->plan_rendezvous(ctx, send.len);
  }
  RAILS_CHECK(!split.chunks.empty());

  std::size_t covered = 0;
  for (const strategy::Chunk& chunk : split.chunks) covered += chunk.bytes;
  RAILS_CHECK_MSG(covered == send.len, "rendezvous plan does not tile the message");

  send.chunk_count = static_cast<unsigned>(split.chunks.size());
  for (std::size_t i = 0; i < split.chunks.size(); ++i) {
    const strategy::Chunk& chunk = split.chunks[i];
    // The solver's own per-chunk finish prediction when available (it saw
    // the ready offsets); otherwise the estimator's busy-aware fallback.
    // Besides feeding the PredictionTracker, this is what the chunk timeout
    // is derived from (predicted completion times the slack factor).
    std::optional<SimDuration> plan;
    if (i < split.finish_times.size()) plan = split.finish_times[i];
    post_chunk(send, chunk.rail, chunk.offset, chunk.bytes, /*attempt=*/0, /*stream=*/false,
               plan);
    send.bytes_posted += chunk.bytes;
  }
}

void Engine::handle_fin(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  auto it = rdv_sends_.find(seg.msg_id);
  if (it == rdv_sends_.end() || it->second->state != SendState::kStreaming) {
    // A duplicated FIN: the first copy completed the send and erased it.
    // Before the reliability PR this crashed the node (PR 2's dedup audit
    // only covered DATA); now it is counted and ignored.
    emit(EventKind::kStaleControl);
    return;
  }
  live_chunks_.erase(seg.msg_id);  // any armed timeouts are stale now
  qos_streams_.erase(seg.msg_id);  // a failover retransmit may finish early
  finish_send(*it->second, fabric_->now(), /*rail=*/0, /*rendezvous=*/true);
  rdv_sends_.erase(it);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Engine::on_segment(fabric::Segment&& seg) {
  arm_health();  // a pure receiver samples too while traffic flows
  // Reliability gate: verify the checksum, suppress duplicates, record the
  // sequence, and schedule the coalesced ACK — before any handler sees the
  // segment. A rejected segment (corrupt or duplicate) dies here.
  if (config_.reliability.enabled && seg.seq != 0 &&
      seg.kind != fabric::SegKind::kAck && seg.kind != fabric::SegKind::kNack &&
      !rel_rx_accept(seg)) {
    fabric::recycle_payload(std::move(seg.payload));
    return;
  }
  switch (seg.kind) {
    case fabric::SegKind::kEager: handle_eager(seg); break;
    case fabric::SegKind::kRts: handle_rts(seg); break;
    case fabric::SegKind::kCts: handle_cts(seg); break;
    case fabric::SegKind::kData: handle_data(seg); break;
    case fabric::SegKind::kFin: handle_fin(seg); break;
    case fabric::SegKind::kAck: rel_handle_ack(seg); break;
    case fabric::SegKind::kNack: rel_handle_nack(seg); break;
  }
  // The segment dies here; its payload buffer goes back to the pool the
  // sender-side post paths draw from (handlers only read the payload).
  fabric::recycle_payload(std::move(seg.payload));
}

namespace {

bool recv_matches(const RecvRequest& recv, NodeId src, Tag tag) {
  const bool src_ok = recv.src == kAnySource || recv.src == src;
  const bool tag_ok = recv.tag == kAnyTag || recv.tag == tag;
  return src_ok && tag_ok;
}

}  // namespace

RecvHandle Engine::match_posted(NodeId src, Tag tag) {
  // FIFO across all posted receives; wildcards match like MPI's.
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (recv_matches(**it, src, tag)) {
      RecvHandle recv = *it;
      posted_recvs_.erase(it);
      // Bind the wildcard fields to the actual message.
      recv->src = src;
      recv->tag = tag;
      return recv;
    }
  }
  return nullptr;
}

void Engine::handle_eager(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);  // unpack mirrors pack
  // Scratch parse: segments are delivered one at a time off the event queue
  // and deliver_fragment never re-enters the unpack path, so one buffer is
  // enough and the steady receive path stays allocation-free. The parse is
  // the non-aborting variant: with the wire checksum off, a corrupted
  // payload bit can land inside a sub-packet header, and a single wire
  // fault must not take down the node.
  if (!try_parse_subpackets(seg.payload, subpacket_scratch_)) {
    emit(EventKind::kCorruptDetected, {.msg_id = seg.msg_id, .rail = seg.rail, .a = -1});
    return;
  }
  for (const SubPacket& sp : subpacket_scratch_) deliver_fragment(sp, seg.src);
}

void Engine::deliver_fragment(const SubPacket& sp, NodeId src) {
  const MsgKey key{src, sp.msg_id};

  // Fragment of an already-bound receive?
  const auto it = std::find_if(bound_recvs_.begin(), bound_recvs_.end(),
                               [&key](const auto& e) { return e.first == key; });
  if (it != bound_recvs_.end()) {
    RecvHandle recv = it->second;
    if (sp.offset + sp.len > recv->expected) {
      // Only reachable via payload corruption with the checksum off: a
      // flipped bit inside the sub-packet header moved the fragment out of
      // bounds. Dropping beats scribbling past the receive buffer.
      emit(EventKind::kParseReject);
      return;
    }
    if (sp.len > 0) std::memcpy(recv->data + sp.offset, sp.bytes, sp.len);
    recv->bytes_received += sp.len;
    if (recv->bytes_received == recv->expected) {
      if (&*it != &bound_recvs_.back()) *it = std::move(bound_recvs_.back());
      bound_recvs_.pop_back();
      complete_recv(recv);
    }
    return;
  }

  // First fragment of a new message: try to bind a posted receive.
  if (RecvHandle recv = match_posted(src, sp.tag)) {
    RAILS_CHECK_MSG(sp.msg_total <= recv->capacity, "posted receive buffer too small");
    recv->state = RecvState::kMatched;
    recv->matched_msg = sp.msg_id;
    recv->expected = sp.msg_total;
    if (sp.len > 0) std::memcpy(recv->data + sp.offset, sp.bytes, sp.len);
    recv->bytes_received = sp.len;
    if (recv->bytes_received == recv->expected) {
      complete_recv(recv);
    } else {
      bound_recvs_.emplace_back(key, recv);
    }
    return;
  }

  // Unexpected: buffer until a matching receive is posted.
  UnexpectedEager& u = unexpected_[key];
  if (u.buffer.empty() && u.total == 0) {
    u.tag = sp.tag;
    u.total = sp.msg_total;
    u.buffer.assign(sp.msg_total, 0);
  }
  if (sp.offset + sp.len > u.total) {
    emit(EventKind::kParseReject);  // corrupted header, checksum off (see above)
    return;
  }
  if (sp.len > 0) std::memcpy(u.buffer.data() + sp.offset, sp.bytes, sp.len);
  u.received += sp.len;
}

void Engine::handle_rts(const fabric::Segment& seg) {
  // Duplicate RTS (wire dup, or sender retry racing the original): the
  // handshake is already in flight or already queued — matching it again
  // would bind a second receive to the same message.
  const auto queued = [&seg](const UnexpectedRts& u) {
    return u.src == seg.src && u.msg_id == seg.msg_id;
  };
  if (inbound_rdv_.count({seg.src, seg.msg_id}) != 0 ||
      std::any_of(unexpected_rts_.begin(), unexpected_rts_.end(), queued)) {
    emit(EventKind::kStaleControl);
    return;
  }
  if (RecvHandle recv = match_posted(seg.src, seg.tag)) {
    RAILS_CHECK_MSG(seg.total_len <= recv->capacity, "posted receive buffer too small");
    recv->state = RecvState::kMatched;
    recv->matched_msg = seg.msg_id;
    recv->expected = seg.total_len;
    inbound_rdv_[{seg.src, seg.msg_id}] = InboundRdv{recv, seg.src};
    accept_rendezvous(seg.src, seg.msg_id);
    return;
  }
  unexpected_rts_.push_back(UnexpectedRts{seg.src, seg.msg_id, seg.tag, seg.total_len});
}

void Engine::accept_rendezvous(NodeId src, std::uint64_t msg_id) {
  const StrategyContext ctx = make_context();
  const RailId rail = strategy_ != nullptr ? strategy_->control_rail(ctx) : 0;
  fabric::Segment cts;
  cts.kind = fabric::SegKind::kCts;
  cts.dst = src;
  cts.msg_id = msg_id;
  post_segment(rail, std::move(cts), config_.scheduler_core);
  emit(EventKind::kCtsSent, {.msg_id = msg_id, .rail = rail});
}

namespace {

/// Merges [lo, hi) into a disjoint interval set (start -> end, keyed by
/// start) and returns the number of bytes not previously covered.
std::size_t add_interval(std::map<std::uint64_t, std::uint64_t>& set, std::uint64_t lo,
                         std::uint64_t hi) {
  if (hi <= lo) return 0;
  auto it = set.lower_bound(lo);
  if (it != set.begin() && std::prev(it)->second >= lo) it = std::prev(it);
  std::size_t fresh = 0;
  std::uint64_t cursor = lo;
  std::uint64_t merged_lo = lo;
  std::uint64_t merged_hi = hi;
  while (it != set.end() && it->first <= hi) {
    if (it->first > cursor) fresh += it->first - cursor;
    cursor = std::max(cursor, it->second);
    merged_lo = std::min(merged_lo, it->first);
    merged_hi = std::max(merged_hi, it->second);
    it = set.erase(it);
  }
  if (cursor < hi) fresh += hi - cursor;
  set[merged_lo] = merged_hi;
  return fresh;
}

}  // namespace

void Engine::handle_data(const fabric::Segment& seg) {
  RAILS_PERF_SCOPE(perf::Layer::kEmit);  // chunk reassembly mirrors packing
  auto it = inbound_rdv_.find({seg.src, seg.msg_id});
  if (it == inbound_rdv_.end()) {
    // Duplicate after completion: a spurious-timeout retransmit finished the
    // message and the straggling original arrived late. Reception is
    // idempotent — drop it.
    emit(EventKind::kDuplicateChunk);
    return;
  }
  RecvHandle recv = it->second.recv;
  RAILS_CHECK(seg.offset + seg.payload.size() <= recv->expected);
  if (!seg.payload.empty()) {
    std::memcpy(recv->data + seg.offset, seg.payload.data(), seg.payload.size());
  }
  const std::size_t fresh =
      add_interval(it->second.covered, seg.offset, seg.offset + seg.payload.size());
  if (fresh < seg.payload.size()) emit(EventKind::kDuplicateChunk);
  recv->bytes_received += fresh;
  if (recv->bytes_received == recv->expected) {
    const NodeId src = it->second.src;
    const std::uint64_t msg_id = seg.msg_id;
    inbound_rdv_.erase(it);
    // Completion notification back to the sender.
    const StrategyContext ctx = make_context();
    const RailId rail = strategy_ != nullptr ? strategy_->control_rail(ctx) : 0;
    fabric::Segment fin;
    fin.kind = fabric::SegKind::kFin;
    fin.dst = src;
    fin.msg_id = msg_id;
    post_segment(rail, std::move(fin), config_.scheduler_core);
    complete_recv(recv);
  }
}

void Engine::complete_recv(const RecvHandle& recv) {
  RAILS_PERF_SCOPE(perf::Layer::kCompletion);
  recv->state = RecvState::kDone;
  recv->complete_time = fabric_->now();
  emit(EventKind::kRecvComplete, {.msg_id = recv->id, .tag = recv->tag,
                                  .bytes = recv->bytes_received, .since = recv->post_time});
}

// ---------------------------------------------------------------------------
// Fault tolerance: timeouts, retry/failover, quarantine (docs/FAULTS.md)
// ---------------------------------------------------------------------------

void Engine::on_tx_complete(const fabric::Segment& seg) {
  if (seg.kind != fabric::SegKind::kData) return;
  auto it = live_chunks_.find(seg.msg_id);
  if (it == live_chunks_.end()) return;
  // The bytes landed (whatever the attempt — a straggling older attempt
  // covers at least this range); any armed timeout for this offset is moot.
  it->second.erase(seg.offset);
}

void Engine::on_tx_error(fabric::Segment&& seg) {
  emit(EventKind::kTxError, {.msg_id = seg.msg_id, .rail = seg.rail,
                             .a = static_cast<std::int64_t>(seg.payload.size()),
                             .b = seg.attempt});
  if (config_.reliability.enabled && seg.seq != 0) {
    // The reliability layer owns recovery for sequenced segments: the parked
    // copy is retransmitted immediately (budget-checked) instead of routing
    // through PR 2's failover re-split, which would race the retransmit to
    // the same bytes. A hard CQ error is still a sick rail — quarantine it.
    quarantine_rail(seg.rail);
    if (RelTxEntry* entry = rel_find(seg.dst, seg.seq)) {
      rel_presume_lost(*entry, /*count_streak=*/false);
    }
    return;
  }
  if (!config_.failover.enabled) return;
  quarantine_rail(seg.rail);

  if (seg.kind == fabric::SegKind::kData) {
    auto it = rdv_sends_.find(seg.msg_id);
    if (it == rdv_sends_.end()) return;  // send already completed; stale error
    failover_chunk(*it->second, seg.offset, seg.payload.size(), seg.rail, seg.attempt);
    return;
  }

  // Eager and control segments are self-contained: re-post the whole
  // segment on the best usable rail.
  if (seg.attempt + 1u >= config_.failover.max_attempts) {
    emit(EventKind::kFailoverExhausted);
    if (seg.kind == fabric::SegKind::kRts) {
      // The handshake can never finish; fail the send instead of hanging.
      if (auto it = rdv_sends_.find(seg.msg_id); it != rdv_sends_.end()) {
        it->second->state = SendState::kFailed;
        rdv_sends_.erase(it);
      }
    }
    return;
  }
  const RailId rail = repost_rail(seg);
  ++seg.attempt;
  emit(EventKind::kRetry);
  post_segment(rail, std::move(seg), config_.scheduler_core);
}

RailId Engine::repost_rail(const fabric::Segment& seg) const {
  // Best usable rail that can carry the payload, by predicted completion;
  // fall back to any other rail, then to the original.
  RailId best = seg.rail;
  SimTime best_done = kSimTimeNever;
  bool found = false;
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (!rail_usable(r)) continue;
    if (seg.kind == fabric::SegKind::kEager &&
        seg.payload.size() > nics_[r]->model().params().max_eager) {
      continue;
    }
    const sampling::RailState state{r, nics_[r]->busy_until()};
    const SimTime done = estimator_->completion(state, fabric_->now(), seg.payload.size(),
                                                fabric::Protocol::kEager);
    if (!found || done < best_done) {
      best_done = done;
      best = r;
      found = true;
    }
  }
  if (found) return best;
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != seg.rail) return r;
  }
  return seg.rail;
}

void Engine::track_chunk(std::uint64_t msg_id, NodeId dst, std::uint64_t offset,
                         std::size_t bytes, RailId rail, unsigned attempt,
                         SimTime armed_from, SimDuration predicted) {
  live_chunks_[msg_id][offset] = attempt;
  if (!config_.failover.enabled) return;
  // With end-to-end reliability on, the ACK timeout owns loss detection for
  // every sequenced segment — arming the chunk timer too would race two
  // recovery paths to the same byte range.
  if (config_.reliability.enabled) return;
  // Timeout = predicted completion times the slack factor, floored so tiny
  // chunks are not declared lost by rounding. On a healthy fabric the chunk
  // retires (tx-complete) long before this event fires, making it a no-op.
  // Routed fabrics add the (hops - 1) link latencies the estimator's
  // single-hop view cannot see — without the allowance every long route
  // would read as a loss and trigger spurious failovers.
  const SimDuration flight =
      predicted + fabric_->extra_path_latency(self_, dst, rail);
  const auto slack = static_cast<SimDuration>(config_.failover.timeout_slack *
                                              static_cast<double>(flight));
  const SimTime deadline = armed_from + std::max(config_.failover.min_timeout, slack);
  fabric_->events().at(deadline, [this, msg_id, offset, bytes, rail, attempt] {
    on_chunk_timeout(msg_id, offset, bytes, rail, attempt);
  });
}

void Engine::on_chunk_timeout(std::uint64_t msg_id, std::uint64_t offset, std::size_t bytes,
                              RailId rail, unsigned attempt) {
  auto it = rdv_sends_.find(msg_id);
  if (it == rdv_sends_.end()) return;  // send completed or already failed
  auto lc = live_chunks_.find(msg_id);
  if (lc == live_chunks_.end()) return;
  auto entry = lc->second.find(offset);
  if (entry == lc->second.end() || entry->second != attempt) return;  // retired/superseded
  emit(EventKind::kChunkTimeout, {.msg_id = msg_id, .rail = rail,
                                  .a = static_cast<std::int64_t>(bytes), .b = attempt});
  quarantine_rail(rail);
  failover_chunk(*it->second, offset, bytes, rail, attempt);
}

void Engine::failover_chunk(SendRequest& send, std::uint64_t offset, std::size_t bytes,
                            RailId failed_rail, unsigned attempt) {
  auto lc = live_chunks_.find(send.id);
  if (lc == live_chunks_.end()) return;
  auto entry = lc->second.find(offset);
  if (entry == lc->second.end() || entry->second != attempt) return;  // superseded
  lc->second.erase(entry);
  if (bytes == 0) return;

  emit(EventKind::kFailover, {.msg_id = send.id, .tag = send.tag, .rail = failed_rail,
                              .core = config_.scheduler_core, .bytes = bytes});
  note_planner_input();  // failover re-splits perturb the steady state
  {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "msg %llu: %zu B at offset %llu re-split off rail %u "
                  "(attempt %u)",
                  static_cast<unsigned long long>(send.id), bytes,
                  static_cast<unsigned long long>(offset), failed_rail, attempt);
    flight_trigger("failover", detail);
  }

  if (attempt + 1u >= config_.failover.max_attempts) {
    emit(EventKind::kFailoverExhausted);
    send.state = SendState::kFailed;
    live_chunks_.erase(send.id);
    rdv_sends_.erase(send.id);
    return;
  }

  // Surviving rails. All-quarantined is not a reason to give up — retrying
  // somewhere is strictly better than dropping the message, and the retry
  // doubles as a probe.
  std::vector<RailId>& survivors = rail_scratch_;  // shared with the submit path
  survivors.clear();
  for (RailId r = 0; r < nics_.size(); ++r) {
    if (r != failed_rail && rail_usable(r)) survivors.push_back(r);
  }
  if (survivors.empty()) {
    for (RailId r = 0; r < nics_.size(); ++r) {
      if (r != failed_rail) survivors.push_back(r);
    }
  }
  if (survivors.empty()) survivors.push_back(failed_rail);  // single-rail fabric

  // Re-split the lost byte range across the survivors with the equal-finish
  // solver, live busy offsets included (one survivor -> one chunk).
  const SimTime now = fabric_->now();
  std::vector<strategy::ProfileCost>& costs = cost_scratch_;
  costs.clear();
  costs.reserve(survivors.size());
  for (RailId r : survivors) costs.emplace_back(&estimator_->profile(r).rdv_chunk);
  std::vector<strategy::SolverRail>& rails = solver_scratch_;
  rails.clear();
  rails.reserve(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const SimTime busy = nics_[survivors[i]]->busy_until();
    rails.push_back({survivors[i], &costs[i], busy > now ? busy - now : 0});
  }
  const strategy::SplitResult split =
      strategy::solve_equal_finish(std::span<const strategy::SolverRail>(rails), bytes);
  for (const strategy::Chunk& c : split.chunks) {
    emit(EventKind::kRetry);
    post_chunk(send, c.rail, offset + c.offset, c.bytes, attempt + 1, /*stream=*/false);
    // Retransmissions do not advance bytes_posted: it tracks distinct message
    // bytes handed to the NICs, and these bytes were already counted.
    ++send.chunk_count;
  }
}

void Engine::post_chunk(const SendRequest& send, RailId rail, std::uint64_t offset,
                        std::size_t bytes, unsigned attempt, bool stream,
                        std::optional<SimDuration> plan) {
  // Predict before posting: the post itself advances the NIC's busy-until.
  // The raw estimator view (what the drift detector compares against the
  // fabric) differs from a solver's plan that carried a trust penalty or
  // saw later ready offsets.
  const SimTime now = fabric_->now();
  const sampling::RailState state{rail, nics_[rail]->busy_until()};
  const SimDuration model = estimator_->chunk_completion(state, now, bytes) - now;
  fabric::Segment data;
  data.kind = fabric::SegKind::kData;
  data.dst = send.dst;
  data.msg_id = send.id;
  data.tag = send.tag;
  data.offset = offset;
  data.total_len = send.len;
  data.attempt = static_cast<std::uint8_t>(attempt);
  data.payload = fabric::acquire_payload(bytes);
  data.payload.assign(send.data + offset, send.data + offset + bytes);
  const auto times = post_segment(rail, std::move(data), config_.scheduler_core);
  // A first transmission with nothing posted before it ends the message's
  // queueing; a failover re-post is traced without a traffic class.
  const bool first = attempt == 0 && send.bytes_posted == 0;
  emit(EventKind::kChunkPosted,
       {.msg_id = send.id, .tag = send.tag, .rail = rail, .core = config_.scheduler_core,
        .bytes = bytes, .time = times.host_start, .nic_end = times.nic_end,
        .since = first ? send.submit_time : -1, .cls = attempt == 0 ? send.qos_class : 0,
        .a = stream});
  observe_completion(rail, plan.value_or(model), model, times.nic_end - now);
  // The watchdog arms from the instant the host core starts the post: time
  // spent waiting behind the submitting core's earlier copies is not flight
  // time. It never arms from nic_end, which is simulator ground truth the
  // host cannot know (it already contains any degrade).
  track_chunk(send.id, send.dst, offset, bytes, rail, attempt, times.host_start,
              plan.value_or(model));
}

void Engine::quarantine_rail(RailId rail) {
  RailHealth& h = rail_health_[rail];
  const SimTime now = fabric_->now();
  if (h.window == 0) h.window = config_.failover.quarantine;
  if (h.quarantined) {
    // Repeated trouble while quarantined pushes the lift time out.
    h.until = std::max(h.until, now + h.window);
    return;
  }
  h.quarantined = true;
  h.until = now + h.window;
  note_planner_input();  // the usable-rail set just shrank
  emit(EventKind::kQuarantine,
       {.rail = rail, .a = static_cast<std::int64_t>(to_usec(h.window))});
  {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "rail %u quarantined for %.1f us (backoff window)", rail,
                  to_usec(h.window));
    flight_trigger("quarantine", detail);
  }
  schedule_reprobe(rail);
}

void Engine::schedule_reprobe(RailId rail) {
  fabric_->events().at(rail_health_[rail].until, [this, rail] { reprobe_rail(rail); });
}

void Engine::reprobe_rail(RailId rail) {
  RailHealth& h = rail_health_[rail];
  if (!h.quarantined) return;  // already lifted by an earlier probe
  const SimTime now = fabric_->now();
  if (now < h.until) {
    // The window was extended after this event was armed; try again then.
    schedule_reprobe(rail);
    return;
  }
  const bool up = nics_[rail]->link_up(now);
  emit(EventKind::kReprobe, {.rail = rail, .a = up});
  if (up) {
    h.quarantined = false;
    h.window = 0;  // healthy again: reset the backoff
    note_planner_input();  // the usable-rail set just grew; re-arms wakes
    return;
  }
  if (h.window >= config_.failover.max_quarantine) {
    // Backoff saturated and the link is still down: treat the rail as
    // fail-stopped and stop probing, so the event queue can drain (an
    // endless probe chain would make run_all() spin forever). The rail
    // stays quarantined; failover's all-quarantined fallback may still try
    // it as a last resort.
    return;
  }
  h.window = std::min(static_cast<SimDuration>(static_cast<double>(h.window) *
                                               config_.failover.quarantine_backoff),
                      config_.failover.max_quarantine);
  if (h.window <= 0) h.window = config_.failover.quarantine;
  h.until = now + h.window;
  schedule_reprobe(rail);
}

// ---------------------------------------------------------------------------
// End-to-end reliability: CRC32C, seq windows, ACK/NACK, retransmit
// (docs/FAULTS.md, "Data-plane faults & reliable delivery")
// ---------------------------------------------------------------------------

Engine::RelTxEntry& Engine::rel_slot(RelLink& link, std::uint64_t seq) {
  if (link.ring.empty()) link.ring.resize(64);
  // Sequence numbers are consecutive, so a collision means ring.size()
  // segments are simultaneously unacked — double until the window fits.
  // This only happens during warmup or a loss storm; the ring never shrinks.
  while (link.ring[seq & (link.ring.size() - 1)].in_use) rel_grow_ring(link);
  return link.ring[seq & (link.ring.size() - 1)];
}

void Engine::rel_grow_ring(RelLink& link) {
  std::vector<RelTxEntry> bigger(link.ring.size() * 2);
  for (RelTxEntry& e : link.ring) {
    if (!e.in_use) continue;
    bigger[e.seq & (bigger.size() - 1)] = std::move(e);
  }
  link.ring = std::move(bigger);
}

Engine::RelTxEntry* Engine::rel_find(NodeId dst, std::uint64_t seq) {
  RelLink& link = rel_links_[dst];
  if (link.ring.empty()) return nullptr;
  RelTxEntry& e = link.ring[seq & (link.ring.size() - 1)];
  return (e.in_use && e.seq == seq) ? &e : nullptr;
}

void Engine::rel_release(RelTxEntry& entry) {
  entry.in_use = false;
  entry.payload.clear();  // capacity stays with the slot for reuse
  --rel_live_entries_;
}

void Engine::rel_stash(fabric::Segment& seg, RailId rail) {
  RelLink& link = rel_links_[seg.dst];
  seg.seq = link.next_seq++;
  if (config_.reliability.checksum) seg.crc = reliable_crc(seg);
  RelTxEntry& e = rel_slot(link, seg.seq);
  e.in_use = true;
  e.kind = seg.kind;
  e.attempt = seg.attempt;
  e.retransmits = 0;
  e.rail = rail;
  e.dst = seg.dst;
  e.seq = seg.seq;
  e.msg_id = seg.msg_id;
  e.tag = seg.tag;
  e.offset = seg.offset;
  e.total_len = seg.total_len;
  e.crc = seg.crc;
  e.base_timeout = 0;
  e.payload.assign(seg.payload.begin(), seg.payload.end());
  ++rel_live_entries_;
  emit(EventKind::kSequenced);
}

void Engine::rel_arm(NodeId dst, std::uint64_t seq, SimDuration predicted_flight) {
  RelTxEntry* e = rel_find(dst, seq);
  if (e == nullptr) return;
  if (e->base_timeout == 0) {
    // The PR 2 idiom applied end-to-end: the wait scales with the predicted
    // delivery (plus the receiver's ACK coalescing window), floored so a
    // zero-byte control segment is not declared lost by rounding.
    const auto scaled = static_cast<SimDuration>(
        config_.reliability.ack_timeout_slack *
        static_cast<double>(predicted_flight + config_.reliability.ack_delay));
    e->base_timeout = std::max(config_.reliability.min_ack_timeout, scaled);
  }
  SimDuration wait = e->base_timeout;
  for (unsigned i = 0; i < e->retransmits; ++i) {
    wait = static_cast<SimDuration>(static_cast<double>(wait) *
                                    config_.reliability.backoff);
  }
  // The event is stale if the entry was retired OR re-armed since (a
  // retransmit bumps `retransmits`, so the captured count identifies this
  // particular arming — no generation counter needed).
  const unsigned expected = e->retransmits;
  fabric_->events().at(fabric_->now() + wait, [this, dst, seq, expected] {
    rel_on_timeout(dst, seq, expected);
  });
}

void Engine::rel_on_timeout(NodeId dst, std::uint64_t seq, unsigned expected_retransmits) {
  RelTxEntry* e = rel_find(dst, seq);
  if (e == nullptr || e->retransmits != expected_retransmits) return;  // stale
  rel_presume_lost(*e, /*count_streak=*/true);
}

void Engine::rel_presume_lost(RelTxEntry& entry, bool count_streak) {
  if (count_streak) {
    emit(EventKind::kDropInferred);
    // Repeated inferred losses concentrated on one rail are a sick link, not
    // independent wire noise: hand it to the PR 2 quarantine/re-probe path.
    if (config_.reliability.loss_streak_quarantine > 0 &&
        ++rel_loss_streak_[entry.rail] >= config_.reliability.loss_streak_quarantine) {
      rel_loss_streak_[entry.rail] = 0;
      quarantine_rail(entry.rail);
    }
  }
  if (entry.retransmits >= config_.reliability.max_retransmits) {
    rel_exhaust(entry);
    return;
  }
  ++entry.retransmits;
  rel_retransmit(entry);
}

void Engine::rel_retransmit(RelTxEntry& entry) {
  emit(EventKind::kRetransmit,
       {.msg_id = entry.msg_id, .rail = entry.rail,
        .a = static_cast<std::int64_t>(entry.seq), .b = entry.retransmits});
  // Rebuild the segment from the parked copy — byte-identical to the
  // original (same seq, same CRC), so whichever copy lands first passes
  // verification and the other dies in the receiver's dedup window.
  fabric::Segment seg;
  seg.kind = entry.kind;
  seg.dst = entry.dst;
  seg.msg_id = entry.msg_id;
  seg.tag = entry.tag;
  seg.offset = entry.offset;
  seg.total_len = entry.total_len;
  seg.attempt = entry.attempt;
  seg.crc = entry.crc;
  seg.seq = entry.seq;
  if (!entry.payload.empty()) {
    seg.payload = fabric::acquire_payload(entry.payload.size());
    seg.payload.assign(entry.payload.begin(), entry.payload.end());
  }
  const RailId rail = repost_rail(seg);
  entry.rail = rail;
  const NodeId dst = entry.dst;
  const std::uint64_t seq = entry.seq;
  post_segment(rail, std::move(seg), config_.scheduler_core);
  rel_arm(dst, seq, /*predicted_flight=*/0);  // base_timeout is already set
}

void Engine::rel_exhaust(RelTxEntry& entry) {
  emit(EventKind::kRetryExhausted,
       {.msg_id = entry.msg_id, .rail = entry.rail,
        .a = static_cast<std::int64_t>(entry.seq), .b = entry.retransmits});
  {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "msg %llu seq %llu (%s) lost %u times: retry budget exhausted "
                  "on rail %u",
                  static_cast<unsigned long long>(entry.msg_id),
                  static_cast<unsigned long long>(entry.seq),
                  fabric::to_string(entry.kind), entry.retransmits + 1, entry.rail);
    flight_trigger("retry-exhausted", detail);
  }
  quarantine_rail(entry.rail);
  // A rendezvous send that can no longer deliver its handshake or data fails
  // outright rather than hanging its waiter forever.
  if (entry.kind == fabric::SegKind::kData || entry.kind == fabric::SegKind::kRts) {
    if (auto it = rdv_sends_.find(entry.msg_id); it != rdv_sends_.end()) {
      it->second->state = SendState::kFailed;
      live_chunks_.erase(entry.msg_id);
      qos_streams_.erase(entry.msg_id);
      rdv_sends_.erase(it);
    }
  }
  rel_release(entry);
}

void Engine::rel_retire(NodeId dst, std::uint64_t seq) {
  RelTxEntry* e = rel_find(dst, seq);
  if (e == nullptr) return;  // already retired (stale/duplicate ACK)
  rel_loss_streak_[e->rail] = 0;  // the rail is demonstrably delivering
  if (e->kind == fabric::SegKind::kData) {
    // End-to-end acknowledged: any chunk-tracking entry is moot.
    if (auto it = live_chunks_.find(e->msg_id); it != live_chunks_.end()) {
      it->second.erase(e->offset);
    }
  }
  rel_release(*e);
}

bool Engine::rel_rx_accept(const fabric::Segment& seg) {
  // (1) Integrity: recompute the CRC over what actually arrived.
  if (config_.reliability.checksum && reliable_crc(seg) != seg.crc) {
    emit(EventKind::kCorruptDetected,
         {.msg_id = seg.msg_id, .rail = seg.rail, .a = static_cast<std::int64_t>(seg.seq)});
    // Corruption is detectable loss: tell the sender now instead of letting
    // it burn the full ACK timeout.
    rel_send_nack(seg.src, seg.seq);
    return false;
  }
  RelLink& link = rel_links_[seg.src];
  const std::uint64_t seq = seg.seq;
  // (2) Window overflow: a seq too far ahead cannot be recorded, so it
  // cannot be safely accepted (its retransmit would be an undetectable
  // duplicate). Dropping is safe — the sender retries after the window
  // advances. Unreachable in practice: the rx window (1024) is far wider
  // than any TX ring the ACK clock lets build up.
  if (seq > link.rx_cumulative + kRelRxWindow) return false;
  // (3) Exactly-once: cumulative counter + bitmap ring suppress wire
  // duplicates and retransmits whose original landed. Re-arm the ACK — a
  // duplicate means the sender has not retired this seq yet.
  const auto seen = [&link](std::uint64_t s) {
    const std::uint64_t b = s - 1;
    return ((link.rx_bits[(b >> 6) & (link.rx_bits.size() - 1)] >> (b & 63)) & 1) != 0;
  };
  if (seq <= link.rx_cumulative || seen(seq)) {
    emit(EventKind::kDupSuppressed,
         {.msg_id = seg.msg_id, .rail = seg.rail, .a = static_cast<std::int64_t>(seq)});
    rel_arm_ack(seg.src);
    return false;
  }
  // (4) Accept: record the seq, advance the cumulative edge over any run of
  // now-contiguous bits, and schedule the coalesced ACK.
  {
    const std::uint64_t b = seq - 1;
    link.rx_bits[(b >> 6) & (link.rx_bits.size() - 1)] |= 1ull << (b & 63);
  }
  while (true) {
    const std::uint64_t nb = link.rx_cumulative;  // bit index of cumulative+1
    auto& word = link.rx_bits[(nb >> 6) & (link.rx_bits.size() - 1)];
    if (((word >> (nb & 63)) & 1) == 0) break;
    word &= ~(1ull << (nb & 63));
    ++link.rx_cumulative;
  }
  rel_arm_ack(seg.src);
  return true;
}

void Engine::rel_arm_ack(NodeId src) {
  RelLink& link = rel_links_[src];
  if (link.ack_armed) return;
  link.ack_armed = true;
  fabric_->events().at(fabric_->now() + config_.reliability.ack_delay,
                       [this, src] { rel_flush_ack(src); });
}

void Engine::rel_flush_ack(NodeId src) {
  RelLink& link = rel_links_[src];
  link.ack_armed = false;
  // The whole acknowledgement travels in header fields — no payload, no
  // allocation: `seq` carries the cumulative edge, `offset` a selective
  // bitmap for the 64 seqs above it (out-of-order arrivals under reorder).
  fabric::Segment ack;
  ack.kind = fabric::SegKind::kAck;
  ack.dst = src;
  ack.seq = link.rx_cumulative;
  std::uint64_t bits = 0;
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint64_t b = link.rx_cumulative + i;  // bit of cumulative+1+i
    if ((link.rx_bits[(b >> 6) & (link.rx_bits.size() - 1)] >> (b & 63)) & 1) {
      bits |= 1ull << i;
    }
  }
  ack.offset = bits;
  const StrategyContext ctx = make_context();
  const RailId rail = strategy_ != nullptr ? strategy_->control_rail(ctx) : 0;
  post_segment(rail, std::move(ack), config_.scheduler_core);
  emit(EventKind::kAckSent);
}

void Engine::rel_send_nack(NodeId src, std::uint64_t seq) {
  fabric::Segment nack;
  nack.kind = fabric::SegKind::kNack;
  nack.dst = src;
  nack.seq = seq;
  const StrategyContext ctx = make_context();
  const RailId rail = strategy_ != nullptr ? strategy_->control_rail(ctx) : 0;
  post_segment(rail, std::move(nack), config_.scheduler_core);
  emit(EventKind::kNackSent);
}

void Engine::rel_handle_ack(const fabric::Segment& seg) {
  if (!config_.reliability.enabled) return;
  RelLink& link = rel_links_[seg.src];
  // ACKs state monotone facts ("everything <= cumulative arrived; these 64
  // above it arrived too"), so a reordered stale ACK is harmless: its
  // cumulative edge is behind ours (loop runs zero times) and its selective
  // bits name seqs that genuinely landed.
  const std::uint64_t cumulative = seg.seq;
  while (link.oldest_unacked <= cumulative) {
    rel_retire(seg.src, link.oldest_unacked);
    ++link.oldest_unacked;
  }
  const std::uint64_t bits = seg.offset;
  for (unsigned i = 0; i < 64; ++i) {
    if ((bits >> i) & 1) rel_retire(seg.src, cumulative + 1 + i);
  }
}

void Engine::rel_handle_nack(const fabric::Segment& seg) {
  if (!config_.reliability.enabled) return;
  // The receiver saw this seq arrive corrupted — skip the timeout and
  // retransmit now (still budget-checked; a rail that keeps corrupting
  // exhausts the budget and gets quarantined like one that keeps dropping).
  if (RelTxEntry* entry = rel_find(seg.src, seg.seq)) {
    rel_presume_lost(*entry, /*count_streak=*/false);
  }
}

}  // namespace rails::core

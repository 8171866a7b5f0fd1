#include "core/engine_events.hpp"

namespace rails::core {

namespace {

using K = trace::EventKind;

std::size_t index(K kind) { return static_cast<std::size_t>(kind); }

std::uint64_t non_negative(SimDuration d) {
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

const EventRoute& event_route(trace::EventKind kind) {
  using S = EngineStats;
  static constexpr EventRoute kRoutes[] = {
#define RAILS_EVENT(kind, name, sinks, stat, counter) \
  {EventRoute::sinks, stat, counter},
#include "trace/event_kinds.def"
#undef RAILS_EVENT
  };
  return kRoutes[index(kind)];
}

EventFanout::EventFanout(NodeId node, std::size_t rail_count)
    : node_(node), rail_count_(rail_count) {
  reset_stats();
}

void EventFanout::reset_stats() {
  stats_ = EngineStats{};
  stats_.payload_bytes_per_rail.assign(rail_count_, 0);
}

void EventFanout::attach_metrics(telemetry::MetricsRegistry* registry) {
  registry_ = registry;
  counters_.fill(nullptr);
  rails_.clear();
  set_strategy_name(strategy_name_);
  if (registry_ == nullptr) return;
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    const char* name = event_route(static_cast<K>(k)).counter;
    if (name != nullptr) counters_[k] = registry_->counter(name);
  }
  eager_msgs_ = registry_->counter("engine.eager_msgs");
  rdv_msgs_ = registry_->counter("engine.rdv_msgs");
  offload_signals_ = registry_->counter("engine.offload_signals");
  rdv_roundtrips_ = registry_->counter("engine.rdv_roundtrips");
  reprobe_successes_ = registry_->counter("engine.reprobe_successes");
  send_latency_ = registry_->histogram("engine.send_latency_ns");
  recv_latency_ = registry_->histogram("engine.recv_latency_ns");
  queueing_delay_ = registry_->histogram("engine.queueing_delay_ns");
  emission_bytes_ = registry_->histogram("engine.emission_bytes");
  chunk_bytes_ = registry_->histogram("engine.chunk_bytes");
  trace_dropped_ = registry_->gauge("engine.trace_dropped");
  flight_evictions_ = registry_->gauge("engine.flight_evictions");
  rails_.reserve(rail_count_);
  for (std::size_t r = 0; r < rail_count_; ++r) {
    const std::string prefix = "engine.rail" + std::to_string(r);
    const auto gauge = [&](const char* name, std::int64_t initial) {
      telemetry::Gauge* g = registry_->gauge(prefix + name);
      g->set(initial);
      return g;
    };
    rails_.push_back({registry_->counter(prefix + ".payload_bytes"),
                      registry_->counter(prefix + ".segments"), gauge(".healthy", 1),
                      gauge(".trust", 0 /* TRUSTED */),
                      gauge(".profile_scale_x1000", 1000), gauge(".drift_x1000", 0)});
  }
}

void EventFanout::set_strategy_name(const std::string& name) {
  strategy_name_ = name;
  const bool named = registry_ != nullptr && !name.empty();
  counters_[index(K::kPlanEager)] =
      named ? registry_->counter("strategy." + name + ".plan_eager") : nullptr;
  counters_[index(K::kPlanRendezvous)] =
      named ? registry_->counter("strategy." + name + ".plan_rendezvous") : nullptr;
}

void EventFanout::emit(trace::EventKind kind, const EventFields& f, SimTime now) {
  const SimTime time = f.time >= 0 ? f.time : now;
  // An eager frame that does not parse is recorded as corrupt-detected with
  // a = -1, but counted as a parse reject rather than a checksum mismatch.
  const K counted = kind == K::kCorruptDetected && f.a < 0 ? K::kParseReject : kind;
  const EventRoute& route = event_route(kind);

  // -- the EngineStats ledger ------------------------------------------------
  if (const auto stat = event_route(counted).stat) ++(stats_.*stat);
  switch (kind) {
    case K::kSubmit: ++(f.a != 0 ? stats_.rdv_msgs : stats_.eager_msgs); break;
    case K::kChunkPosted: if (f.a != 0) ++stats_.qos_stream_chunks; break;
    case K::kSendComplete: if (f.a != 0) ++stats_.split_eager_msgs; break;
    case K::kEagerSegment:
      if (f.a > 1) stats_.aggregated_packets += static_cast<std::uint64_t>(f.a);
      if (f.b != 0) ++stats_.offloaded_chunks;
      break;
    case K::kSegmentPosted: stats_.payload_bytes_per_rail[f.rail] += f.bytes; break;
    case K::kPayloadCopy: stats_.payload_bytes_copied += f.bytes; break;
    case K::kReprobe: if (f.a != 0) ++stats_.reprobe_successes; break;
    default: break;
  }

  // -- the metrics registry --------------------------------------------------
  if (registry_ != nullptr) {
    if (telemetry::Counter* c = counters_[index(counted)]) c->inc();
    RailMetrics* rail = f.rail < rails_.size() ? &rails_[f.rail] : nullptr;
    switch (kind) {
      case K::kSubmit: (f.a != 0 ? rdv_msgs_ : eager_msgs_)->inc(); break;
      case K::kEagerSegment:
        if (f.b != 0) offload_signals_->inc();
        emission_bytes_->observe(f.bytes);
        if (rail != nullptr) rail->count_segment(f.bytes);
        break;
      case K::kChunkPosted:
        chunk_bytes_->observe(f.bytes);
        if (rail != nullptr) rail->count_segment(f.bytes);
        break;
      case K::kSendComplete: if (f.b != 0) rdv_roundtrips_->inc(); break;
      case K::kQuarantine: if (rail != nullptr) rail->healthy->set(0); break;
      case K::kReprobe:
        if (f.a == 0) break;
        reprobe_successes_->inc();
        if (rail != nullptr) rail->healthy->set(1);
        break;
      case K::kTrustDemotion:
      case K::kTrustPromotion:
      case K::kTrustState: if (rail != nullptr) rail->trust->set(f.a); break;
      case K::kScaleCorrection:
      case K::kResample: if (rail != nullptr) rail->scale->set(f.a); break;
      case K::kDriftSample: if (rail != nullptr) rail->drift->set(f.a); break;
      default: break;
    }
    // A completion closes its request's latency; a message's first emission
    // or chunk closes its queueing delay.
    if (f.since >= 0) {
      const std::uint64_t d = non_negative(time - f.since);
      if (kind == K::kSendComplete) {
        send_latency_->observe(d);
      } else if (kind == K::kRecvComplete) {
        recv_latency_->observe(d);
      } else {
        queueing_delay_->observe(d);
      }
    }
  }

  // -- the Tracer and the flight recorder ------------------------------------
  if ((route.sinks & EventRoute::kTraced) != 0 && tracer_ != nullptr) {
    tracer_->record({time, node_, kind, f.msg_id, f.tag, f.rail, f.core, f.bytes,
                     f.nic_end, f.cls});
    if (registry_ != nullptr) {
      trace_dropped_->set(static_cast<std::int64_t>(tracer_->dropped()));
    }
  }
  if ((route.sinks & EventRoute::kFlight) != 0 && flight_ != nullptr) {
    // Traced kinds carry their payload in (bytes, nic_end); control-plane
    // kinds in their operands.
    const bool traced = (route.sinks & EventRoute::kTraced) != 0;
    flight_->record({time, kind, node_, f.rail, f.msg_id,
                     traced ? static_cast<std::int64_t>(f.bytes) : f.a,
                     traced ? f.nic_end : f.b});
    if (registry_ != nullptr) {
      flight_evictions_->set(static_cast<std::int64_t>(flight_->evictions()));
    }
  }
}

}  // namespace rails::core

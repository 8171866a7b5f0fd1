// Golden fan-out (docs/OBSERVABILITY.md, "Engine event vocabulary").
//
// Every engine fact reaches up to four sinks: the EngineStats ledger, the
// metrics registry, the Tracer and the flight recorder. Two seeded worlds
// drive every family of fact the engine records — eager (aggregated, split
// and offloaded), rendezvous, failover / quarantine / re-probe,
// end-to-end reliability under drops and corruption, and recalibration —
// and pin what each sink saw at the end of the run:
//   - the full EngineStats ledger of every node;
//   - the registry's engine.* / strategy.* counters, gauges and histograms;
//   - the flight-recorder window: kind, node, rail, msg_id, a, b and time;
//   - the Tracer's event list, every field.
// The goldens come from the engine as it was before its four recording
// paths shared one emit site, so a change to what any sink records must
// show up here. Kinds are fingerprinted by name, never by enum value.
//
// Three worlds rather than one. With end-to-end reliability on, the ACK
// timeout owns loss recovery and the failover re-split never runs, so the
// failover and reliability families need a world each. The drift detector
// gets a rendezvous world of its own whose trust demotions come from
// back-to-back transfers: open-loop traffic on a trust-penalised rail trips
// the split solver's capacity check (ROADMAP.md, item 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "telemetry/metrics.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace rails::core {
namespace {

struct Hash {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(const char* s) {
    for (; *s != '\0'; ++s) mix(static_cast<std::uint64_t>(*s));
    mix(std::uint64_t{0});
  }
};

/// Every nonzero EngineStats field, by name.
std::string ledger(const EngineStats& s) {
  std::ostringstream os;
  const auto field = [&os](const char* name, std::uint64_t v) {
    if (v != 0) os << name << '=' << v << ' ';
  };
  field("sends", s.sends);
  field("recvs", s.recvs);
  field("eager_msgs", s.eager_msgs);
  field("rdv_msgs", s.rdv_msgs);
  field("eager_segments", s.eager_segments);
  field("aggregated_packets", s.aggregated_packets);
  field("split_eager_msgs", s.split_eager_msgs);
  field("offloaded_chunks", s.offloaded_chunks);
  field("rdv_chunks", s.rdv_chunks);
  for (std::size_t r = 0; r < s.payload_bytes_per_rail.size(); ++r) {
    os << "rail" << r << '=' << s.payload_bytes_per_rail[r] << ' ';
  }
  field("tx_errors", s.tx_errors);
  field("chunk_timeouts", s.chunk_timeouts);
  field("failovers", s.failovers);
  field("retries", s.retries);
  field("failover_exhausted", s.failover_exhausted);
  field("quarantines", s.quarantines);
  field("reprobes", s.reprobes);
  field("reprobe_successes", s.reprobe_successes);
  field("duplicate_chunks", s.duplicate_chunks);
  field("stale_control", s.stale_control);
  field("rel_segments", s.rel_segments);
  field("rel_corruptions", s.rel_corruptions);
  field("rel_drops_inferred", s.rel_drops_inferred);
  field("rel_retransmits", s.rel_retransmits);
  field("rel_dup_suppressed", s.rel_dup_suppressed);
  field("rel_retry_exhausted", s.rel_retry_exhausted);
  field("rel_acks", s.rel_acks);
  field("rel_nacks", s.rel_nacks);
  field("rel_parse_rejects", s.rel_parse_rejects);
  field("recal_corrections", s.recal_corrections);
  field("recal_resamples", s.recal_resamples);
  field("trust_demotions", s.trust_demotions);
  field("trust_promotions", s.trust_promotions);
  field("qos_grants", s.qos_grants);
  field("qos_stream_chunks", s.qos_stream_chunks);
  field("qos_admission_rejects", s.qos_admission_rejects);
  field("qos_admission_downgrades", s.qos_admission_downgrades);
  field("qos_deadline_hits", s.qos_deadline_hits);
  field("qos_deadline_misses", s.qos_deadline_misses);
  field("strategy_cache_hits", s.strategy_cache_hits);
  field("strategy_cache_misses", s.strategy_cache_misses);
  std::string out = os.str();
  if (!out.empty()) out.pop_back();
  return out;
}

/// What the four sinks saw, reduced to comparable values.
struct Fingerprint {
  std::uint64_t completion_hash = 0;
  std::vector<std::string> ledgers;  ///< one per node
  std::string registry;              ///< engine.* / strategy.* lines
  std::uint64_t registry_hash = 0;
  std::string flight_kinds;  ///< records per kind name
  std::uint64_t flight_hash = 0;
  std::string trace_kinds;   ///< events per kind name
  std::uint64_t trace_hash = 0;
};

template <typename Records>
std::string count_kinds(const Records& records) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& r : records) ++counts[trace::to_string(r.kind)];
  std::string out;
  for (const auto& [name, n] : counts) {
    if (!out.empty()) out += ' ';
    out += name + '=' + std::to_string(n);
  }
  return out;
}

struct Arrival {
  SimTime at;
  NodeId src;
  std::size_t size;
};

/// Poisson arrivals at `mbps` offered. Sizes are log-uniform, drawn from
/// [64 B, 16 KiB] (eager) with odds `eager_share`, else from [32 KiB, `hi`]
/// (rendezvous); every fourth message travels 1 -> 0, the rest 0 -> 1.
std::vector<Arrival> traffic(std::uint64_t seed, unsigned count, double mbps,
                             double eager_share, std::size_t hi) {
  Xoshiro256 rng(seed);
  const auto log_uniform = [&rng](double lo, double top) {
    return static_cast<std::size_t>(lo * std::pow(top / lo, rng.uniform()));
  };
  const double mean_gap_ns = static_cast<double>(hi) / 8.0 / mbps * 1e3;
  std::vector<Arrival> out;
  SimTime t = 0;
  for (unsigned i = 0; i < count; ++i) {
    t += static_cast<SimDuration>(-std::log(std::max(1e-12, rng.uniform())) * mean_gap_ns);
    const std::size_t size = rng.uniform() < eager_share
                                 ? log_uniform(64, 16u << 10)
                                 : log_uniform(32u << 10, static_cast<double>(hi));
    out.push_back({t, static_cast<NodeId>(i % 4 == 3 ? 1 : 0), size});
  }
  return out;
}

fabric::FaultSpec fault(fabric::FaultKind kind, SimTime at, SimDuration duration) {
  fabric::FaultSpec f;
  f.kind = kind;
  f.at = at;
  f.duration = duration;
  return f;
}

/// Attaches one shared Tracer, flight recorder and registry to every
/// engine, replays `arrivals` from fabric events, runs the world dry, then
/// times `one_way_4mib` back-to-back 4 MiB transfers, and fingerprints
/// every sink. `forced_recal` lists (time, rail) re-sample requests.
Fingerprint run(World& world, const std::vector<Arrival>& arrivals,
                const std::vector<std::pair<SimTime, RailId>>& forced_recal = {},
                unsigned one_way_4mib = 0) {
  trace::Tracer tracer;
  trace::FlightRecorder flight(1u << 16);  // large enough to never wrap here
  telemetry::MetricsRegistry registry;
  const NodeId nodes = static_cast<NodeId>(world.fabric().node_count());
  for (NodeId n = 0; n < nodes; ++n) {
    world.engine(n).set_metrics(&registry);
    world.engine(n).set_tracer(&tracer);
    world.engine(n).set_flight_recorder(&flight);
  }
  std::size_t max_size = 1;
  for (const Arrival& a : arrivals) max_size = std::max(max_size, a.size);
  std::vector<std::uint8_t> tx(max_size);
  for (std::size_t i = 0; i < tx.size(); ++i) tx[i] = static_cast<std::uint8_t>(i * 31 + 7);
  std::vector<std::uint8_t> rx(max_size);
  std::vector<SendHandle> sends(arrivals.size());
  std::vector<RecvHandle> recvs(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    world.fabric().events().at(arrivals[i].at, [&, i] {
      const auto tag = static_cast<Tag>(i);
      const NodeId src = arrivals[i].src;
      recvs[i] = world.engine(1 - src).irecv(src, tag, rx.data(), arrivals[i].size);
      sends[i] = world.engine(src).isend(1 - src, tag, tx.data(), arrivals[i].size);
    });
  }
  for (const auto& [at, rail] : forced_recal) {
    world.fabric().events().at(at, [&world, rail = rail] {
      world.engine(0).force_recalibrate(rail);
    });
  }
  world.fabric().events().run_all();

  Fingerprint fp;
  Hash done;
  for (unsigned i = 0; i < one_way_4mib; ++i) {
    done.mix(static_cast<std::uint64_t>(world.measure_one_way(4u << 20)));
  }
  const auto finished = [](const auto& request) {
    return request && request->done() ? static_cast<std::uint64_t>(request->complete_time)
                                      : ~0ull;
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    done.mix(finished(sends[i]));
    done.mix(finished(recvs[i]));
  }
  fp.completion_hash = done.h;
  for (NodeId n = 0; n < nodes; ++n) fp.ledgers.push_back(ledger(world.engine(n).stats()));

  std::ostringstream text;
  registry.dump_text(text);
  std::istringstream lines(text.str());
  Hash reg;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  engine.", 0) != 0 && line.rfind("  strategy.", 0) != 0) continue;
    fp.registry += line + '\n';
    reg.mix(line.c_str());
  }
  fp.registry_hash = reg.h;

  const auto records = flight.snapshot();
  EXPECT_EQ(flight.evictions(), 0u);
  Hash fh;
  for (const trace::FlightRecord& r : records) {
    fh.mix(static_cast<std::uint64_t>(r.time));
    fh.mix(trace::to_string(r.kind));
    fh.mix(r.node);
    fh.mix(r.rail);
    fh.mix(r.msg_id);
    fh.mix(static_cast<std::uint64_t>(r.a));
    fh.mix(static_cast<std::uint64_t>(r.b));
  }
  fp.flight_kinds = count_kinds(records);
  fp.flight_hash = fh.h;

  const auto events = tracer.snapshot();
  Hash th;
  for (const trace::TraceEvent& e : events) {
    th.mix(static_cast<std::uint64_t>(e.time));
    th.mix(e.node);
    th.mix(trace::to_string(e.kind));
    th.mix(e.msg_id);
    th.mix(e.tag);
    th.mix(e.rail);
    th.mix(e.core);
    th.mix(e.bytes);
    th.mix(static_cast<std::uint64_t>(e.nic_end));
    th.mix(e.cls);
  }
  fp.trace_kinds = count_kinds(events);
  fp.trace_hash = th.h;

  for (NodeId n = 0; n < nodes; ++n) {
    world.engine(n).set_flight_recorder(nullptr);
    world.engine(n).set_tracer(nullptr);
    world.engine(n).set_metrics(nullptr);
  }
  return fp;
}

void expect_fingerprint(const Fingerprint& got, const Fingerprint& golden) {
  EXPECT_EQ(got.completion_hash, golden.completion_hash);
  EXPECT_EQ(got.ledgers, golden.ledgers);
  EXPECT_EQ(got.registry_hash, golden.registry_hash) << got.registry;
  EXPECT_EQ(got.flight_kinds, golden.flight_kinds);
  EXPECT_EQ(got.flight_hash, golden.flight_hash);
  EXPECT_EQ(got.trace_kinds, golden.trace_kinds);
  EXPECT_EQ(got.trace_hash, golden.trace_hash);
}

// Eager (aggregated, split, offloaded) and rendezvous traffic both ways on
// the multicore testbed with the failover watchdog on. Rail 1 of node 0
// flaps under load (tx errors, quarantine, re-probe, failover re-splits of
// in-flight chunks); rail 0 stalls its deliveries for a while (chunk
// timeouts).
TEST(EventFanout, FailoverWorld) {
  WorldConfig cfg = paper_testbed("multicore-hetero-split");
  cfg.engine.failover.quarantine = usec(60);
  World world(cfg);
  using fabric::FaultKind;
  world.fabric().nic(0, 1).inject_fault(fault(FaultKind::kFlap, usec(5000), usec(1000)));
  world.fabric().nic(0, 0).inject_fault(fault(FaultKind::kFlap, usec(20000), usec(1000)));
  fabric::FaultSpec stall = fault(FaultKind::kLatency, usec(30000), usec(3000));
  stall.extra_latency = usec(2000);
  world.fabric().nic(0, 0).inject_fault(stall);
  const auto arrivals = traffic(21, 360, 900.0, 0.5, 1u << 20);
  const Fingerprint got = run(world, arrivals);

  Fingerprint golden;
  golden.completion_hash = 16936855029919429517ull;
  golden.ledgers = {
      "sends=270 recvs=90 eager_msgs=143 rdv_msgs=127 eager_segments=138 "
      "aggregated_packets=37 split_eager_msgs=21 offloaded_chunks=42 "
      "rdv_chunks=250 rail0=22984504 rail1=19732016 tx_errors=2 "
      "chunk_timeouts=5 failovers=7 retries=7 quarantines=7 reprobes=14 "
      "reprobe_successes=7 strategy_cache_hits=4 strategy_cache_misses=125",
      "sends=90 recvs=270 eager_msgs=44 rdv_msgs=46 eager_segments=51 "
      "split_eager_msgs=7 offloaded_chunks=14 rdv_chunks=92 rail0=8574668 "
      "rail1=6210058 duplicate_chunks=5 strategy_cache_misses=44"};
  golden.registry_hash = 12095741580781841315ull;
  golden.flight_kinds =
      "chunk=342 chunk-timeout=5 eager-emit=215 failover=7 offload-signal=56 "
      "quarantine=7 recv-complete=360 reprobe=14 send-complete=360 submit=360 "
      "trigger=14 tx-error=2";
  golden.flight_hash = 17594053849401872952ull;
  golden.trace_kinds =
      "chunk=342 cts=173 eager-emit=215 failover=7 offload-signal=56 "
      "recv-complete=360 recv-posted=360 rts=173 send-complete=360 submit=360";
  golden.trace_hash = 2777708447594822709ull;
  expect_fingerprint(got, golden);
}

// Rendezvous traffic with the drift detector attached: rail 0 of node 0
// runs 2.5x slow for the whole run (scale corrections, trust transitions,
// background re-samples, one of them forced). The trust demotions come
// from back-to-back 4 MiB transfers at the end.
TEST(EventFanout, RecalibrationWorld) {
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.recalibration.enabled = true;
  World world(cfg);
  fabric::FaultSpec slow = fault(fabric::FaultKind::kDegrade, 0, 0);
  slow.factor = 2.5;
  world.fabric().nic(0, 0).inject_fault(slow);
  const auto arrivals = traffic(23, 150, 900.0, 0.0, 1u << 20);
  const Fingerprint got = run(world, arrivals, {{usec(900), 0}}, 15);

  Fingerprint golden;
  golden.completion_hash = 9700759746551982331ull;
  golden.ledgers = {
      "sends=128 recvs=37 rdv_msgs=128 rdv_chunks=237 rail0=39930969 "
      "rail1=64013000 recal_corrections=2 recal_resamples=1 trust_demotions=1 "
      "trust_promotions=1",
      "sends=37 recvs=128 rdv_msgs=37 rdv_chunks=74 rail0=5471361 "
      "rail1=5525722 recal_corrections=1"};
  golden.registry_hash = 10664425800196271389ull;
  golden.flight_kinds =
      "chunk=311 recv-complete=165 resample=1 scale-correction=3 "
      "send-complete=164 submit=165 trigger=1 trust-demotion=1 "
      "trust-promotion=1";
  golden.flight_hash = 11687338878923045443ull;
  golden.trace_kinds =
      "chunk=311 cts=165 recv-complete=165 recv-posted=165 rts=165 "
      "send-complete=164 submit=165";
  golden.trace_hash = 9984106420055049542ull;
  expect_fingerprint(got, golden);
}

// The same kind of traffic with end-to-end reliability on: rail 0 of node
// 0 drops and duplicates segments, rail 1 corrupts them, a flap adds hard
// tx errors, and a short loss storm on both rails exhausts the retransmit
// budget of some sequences (retry-exhausted, quarantine).
TEST(EventFanout, ReliabilityWorld) {
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  cfg.engine.reliability.max_retransmits = 3;
  cfg.engine.failover.quarantine = usec(60);
  World world(cfg);
  fabric::FaultSpec drop = fault(fabric::FaultKind::kDrop, 0, 0);
  drop.rate = 0.08;
  world.fabric().nic(0, 0).inject_fault(drop);
  fabric::FaultSpec dup = fault(fabric::FaultKind::kDup, 0, 0);
  dup.rate = 0.03;
  world.fabric().nic(0, 0).inject_fault(dup);
  fabric::FaultSpec corrupt = fault(fabric::FaultKind::kCorrupt, 0, 0);
  corrupt.rate = 0.05;
  world.fabric().nic(0, 1).inject_fault(corrupt);
  world.fabric().nic(0, 1).inject_fault(
      fault(fabric::FaultKind::kFlap, usec(5000), usec(1000)));
  fabric::FaultSpec storm = fault(fabric::FaultKind::kDrop, usec(12000), usec(800));
  storm.rate = 0.95;
  world.fabric().nic(0, 0).inject_fault(storm);
  world.fabric().nic(0, 1).inject_fault(storm);
  const auto arrivals = traffic(22, 360, 700.0, 0.5, 512u << 10);
  const Fingerprint got = run(world, arrivals);

  Fingerprint golden;
  golden.completion_hash = 18100783975532589600ull;
  golden.ledgers = {
      "sends=270 recvs=90 eager_msgs=143 rdv_msgs=127 eager_segments=72 "
      "aggregated_packets=84 split_eager_msgs=2 rdv_chunks=220 rail0=37399255 "
      "rail1=30279468 tx_errors=1 quarantines=475 reprobes=478 "
      "reprobe_successes=475 rel_segments=517 rel_drops_inferred=1078 "
      "rel_retransmits=845 rel_dup_suppressed=13 rel_retry_exhausted=273 "
      "rel_acks=278 strategy_cache_hits=5 strategy_cache_misses=120",
      "sends=90 recvs=270 eager_msgs=41 rdv_msgs=49 eager_segments=41 "
      "rdv_chunks=98 rail0=5163350 rail1=3681017 quarantines=1 reprobes=1 "
      "reprobe_successes=1 rel_segments=442 rel_corruptions=39 "
      "rel_drops_inferred=13 rel_retransmits=13 rel_dup_suppressed=766 "
      "rel_acks=654 rel_nacks=39 strategy_cache_misses=45"};
  golden.registry_hash = 425782552201159982ull;
  golden.flight_kinds =
      "chunk=318 corrupt-detected=39 dup-suppressed=779 eager-emit=186 "
      "quarantine=476 recv-complete=359 reprobe=479 retransmit=858 "
      "retry-exhausted=273 send-complete=360 submit=360 trigger=749 "
      "tx-error=1";
  golden.flight_hash = 16049161362109467012ull;
  golden.trace_kinds =
      "chunk=318 cts=176 eager-emit=186 recv-complete=359 recv-posted=360 "
      "rts=176 send-complete=360 submit=360";
  golden.trace_hash = 16155175999041337975ull;
  expect_fingerprint(got, golden);
}

}  // namespace
}  // namespace rails::core

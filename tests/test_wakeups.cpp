// Event-driven scheduler wakeups (docs/PERF.md, "Scheduler wakeups").
//
// An idle rail — quarantined, or declined by the strategy — is no reason to
// wake the packet scheduler: the planner sleeps until a busy rail frees,
// and every planner-input
// change (quarantine, lift, failover, submission) pulls the sleeping wake to
// the present. Each scenario below replays a quarantine window under load
// and pins two things:
//   - the simulated outcome (completion times, per-rail payload bytes and
//     the fault counters) against golden values recorded with the former
//     1 ns progress poll, which observed every input change by construction;
//   - the scheduler passes and DES events per message, which that poll
//     drove into the thousands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "fabric/presets.hpp"
#include "telemetry/metrics.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

struct Arrival {
  SimTime at;
  std::size_t size;
};

/// Poisson arrivals at `mbps` offered, sizes log-uniform in [lo, hi].
std::vector<Arrival> open_loop(std::uint64_t seed, unsigned count, double mbps,
                               std::size_t lo, std::size_t hi, SimTime start = 0) {
  Xoshiro256 rng(seed);
  const double ratio = static_cast<double>(hi) / static_cast<double>(lo);
  const double mean_size = static_cast<double>(hi - lo) / std::log(ratio);
  const double mean_gap_ns = mean_size / mbps * 1e3;
  std::vector<Arrival> out;
  SimTime t = start;
  for (unsigned i = 0; i < count; ++i) {
    t += static_cast<SimDuration>(-std::log(std::max(1e-12, rng.uniform())) * mean_gap_ns);
    const auto size = static_cast<std::size_t>(
        static_cast<double>(lo) * std::pow(ratio, rng.uniform()));
    out.push_back({t, size});
  }
  return out;
}

fabric::FaultSpec fault(fabric::FaultKind kind, SimTime at, SimDuration duration = 0) {
  fabric::FaultSpec f;
  f.kind = kind;
  f.at = at;
  f.duration = duration;
  return f;
}

/// What a scenario pins: the simulated outcome plus the pass count.
struct Outcome {
  std::uint64_t completion_hash = 0;  ///< FNV-1a over every send/recv completion
  std::uint64_t completed = 0;        ///< messages done on both ends
  std::vector<std::uint64_t> rail_bytes;  ///< node 0 payload bytes per rail
  std::uint64_t chunk_timeouts = 0;
  std::uint64_t tx_errors = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
  std::uint64_t reprobes = 0;
  std::uint64_t reprobe_successes = 0;
  std::uint64_t progress_calls = 0;
  std::uint64_t progress_empty = 0;
  std::uint64_t events = 0;  ///< DES events executed by the run
};

/// Posts every arrival (node 0 -> 1) from a fabric event at its due time,
/// runs the world dry and fingerprints the result. Receives share one
/// scratch buffer: payload integrity is covered elsewhere, timing is not.
Outcome run(World& world, const std::vector<Arrival>& arrivals) {
  telemetry::MetricsRegistry registry;
  world.engine(0).set_metrics(&registry);
  std::size_t max_size = 1;
  for (const Arrival& a : arrivals) max_size = std::max(max_size, a.size);
  std::vector<std::uint8_t> tx(max_size, 0x5a);
  std::vector<std::uint8_t> rx(max_size);
  std::vector<SendHandle> sends(arrivals.size());
  std::vector<RecvHandle> recvs(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    world.fabric().events().at(arrivals[i].at, [&, i] {
      const auto tag = static_cast<Tag>(i);
      recvs[i] = world.engine(1).irecv(0, tag, rx.data(), arrivals[i].size);
      sends[i] = world.engine(0).isend(1, tag, tx.data(), arrivals[i].size);
    });
  }
  const std::uint64_t events_before = world.fabric().events().processed();
  world.fabric().events().run_all();

  Outcome out;
  out.events = world.fabric().events().processed() - events_before;
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const bool done = sends[i] && recvs[i] && sends[i]->done() && recvs[i]->done();
    if (done) ++out.completed;
    mix(done ? static_cast<std::uint64_t>(sends[i]->complete_time) : ~0ull);
    mix(done ? static_cast<std::uint64_t>(recvs[i]->complete_time) : ~0ull);
  }
  out.completion_hash = h;
  const EngineStats& s = world.engine(0).stats();
  out.rail_bytes = s.payload_bytes_per_rail;
  out.chunk_timeouts = s.chunk_timeouts;
  out.tx_errors = s.tx_errors;
  out.quarantines = s.quarantines;
  out.failovers = s.failovers;
  out.retries = s.retries;
  out.reprobes = s.reprobes;
  out.reprobe_successes = s.reprobe_successes;
  out.progress_calls = registry.find_counter("engine.progress_calls")->value();
  out.progress_empty = registry.find_counter("engine.progress_empty")->value();
  world.engine(0).set_metrics(nullptr);
  return out;
}

void expect_outcome(const Outcome& got, const Outcome& golden, std::size_t msgs) {
  EXPECT_EQ(got.completed, msgs);
  EXPECT_EQ(got.completion_hash, golden.completion_hash);
  EXPECT_EQ(got.rail_bytes, golden.rail_bytes);
  EXPECT_EQ(got.chunk_timeouts, golden.chunk_timeouts);
  EXPECT_EQ(got.tx_errors, golden.tx_errors);
  EXPECT_EQ(got.quarantines, golden.quarantines);
  EXPECT_EQ(got.failovers, golden.failovers);
  EXPECT_EQ(got.retries, golden.retries);
  EXPECT_EQ(got.reprobes, golden.reprobes);
  EXPECT_EQ(got.reprobe_successes, golden.reprobe_successes);
  EXPECT_LE(got.progress_empty, got.progress_calls);
}

/// Scheduler passes and DES events per message stay small. The 1 ns poll
/// ran thousands of each per message in (a)-(e), and in (f) the stream
/// pump polled instead of the planner.
void expect_few_wakeups(const Outcome& got, std::size_t msgs) {
  EXPECT_LE(got.progress_calls, 8 * msgs);
  EXPECT_LE(got.events, 40 * msgs);
}

/// Short quarantine windows so backoff, lifts and saturation all happen
/// within a few hundred microseconds of traffic.
WorldConfig short_windows(const std::string& strategy, SimDuration quarantine,
                          SimDuration max_quarantine) {
  WorldConfig cfg = paper_testbed(strategy);
  cfg.engine.failover.quarantine = quarantine;
  cfg.engine.failover.max_quarantine = max_quarantine;
  return cfg;
}

// (a) A hetero-split open loop at 1,400 MB/s: chunks wait behind the
// submitting core's earlier PIO copies before their post starts. The chunk
// watchdog arms from that host start, so the wait no longer reads as loss
// and no healthy rail is quarantined.
TEST(Wakeups, SpuriousQuarantineUnderOpenLoop) {
  World world(paper_testbed("hetero-split"));
  const auto arrivals = open_loop(11, 450, 1400.0, 8u << 10, 512u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 752664960636761409ull;
  golden.rail_bytes = {33191180, 23175176};
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
  test::expect_fault_free_quiet(world.engine(0).stats());
  test::expect_fault_free_quiet(world.engine(1).stats());
}

// The same open loop under every built-in strategy at three offered loads,
// default config, no fault injected: nothing may read as loss.
class FaultFreeOpenLoop
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(FaultFreeOpenLoop, FiresNoFaultMachinery) {
  const auto [strategy, mbps] = GetParam();
  World world(paper_testbed(strategy));
  const auto arrivals = open_loop(11, 450, mbps, 8u << 10, 512u << 10);
  const Outcome got = run(world, arrivals);
  EXPECT_EQ(got.completed, arrivals.size());
  test::expect_fault_free_quiet(world.engine(0).stats());
  test::expect_fault_free_quiet(world.engine(1).stats());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, FaultFreeOpenLoop,
    ::testing::Combine(::testing::Values("single-rail:0", "single-rail:1", "greedy-balance",
                                         "aggregate-fastest", "patient-aggregate",
                                         "iso-split", "fixed-ratio-split", "hetero-split",
                                         "multicore-hetero-split", "batch-spread"),
                       ::testing::Values(400.0, 900.0, 1400.0)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-' || c == ':') c = '_';
      }
      return name + "_" + std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// (b) Rail 0 fail-stops under eager traffic: the re-probe backoff
// saturates and the quarantine becomes permanent, so rail 0 idles while
// eager sends queue behind rail 1 for the rest of the run.
TEST(Wakeups, FailStopSaturatesBackoffUnderEagerLoad) {
  World world(short_windows("hetero-split", usec(20), usec(160)));
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFailStop, usec(40)));
  const auto arrivals = open_loop(12, 800, 900.0, 1u << 10, 16u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 1558203950576002387ull;
  golden.rail_bytes = {29991, 4311088};
  golden.tx_errors = 2;
  golden.quarantines = 1;
  golden.retries = 2;
  golden.reprobes = 4;
  EXPECT_TRUE(world.engine(0).rail_quarantined(0));
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

// (c) A flap whose lift lands while eager sends are pending: the lift must
// pull the sleeping planner to the present.
TEST(Wakeups, FlapLiftLandsWhileEagerSendsPending) {
  World world(short_windows("hetero-split", usec(150), usec(600)));
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(60), usec(100)));
  const auto arrivals = open_loop(13, 500, 900.0, 1u << 10, 16u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 1627215668255435536ull;
  golden.rail_bytes = {435675, 2321241};
  golden.tx_errors = 2;
  golden.quarantines = 1;
  golden.retries = 2;
  golden.reprobes = 1;
  golden.reprobe_successes = 1;
  EXPECT_FALSE(world.engine(0).rail_quarantined(0));
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

// (d) Both rails flap together: with no usable rail left the planner falls
// back to every rail, and so does its wake.
TEST(Wakeups, BothRailsQuarantinedFallBackToAll) {
  WorldConfig cfg = short_windows("hetero-split", usec(100), usec(400));
  cfg.engine.failover.max_attempts = 16;
  World world(cfg);
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(50), usec(40)));
  world.fabric().nic(0, 1).inject_fault(fault(fabric::FaultKind::kFlap, usec(50), usec(40)));
  const auto arrivals = open_loop(14, 300, 600.0, 1u << 10, 16u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 11378075317440977439ull;
  golden.rail_bytes = {148587, 1603251};
  golden.tx_errors = 2;
  golden.quarantines = 2;
  golden.retries = 2;
  golden.reprobes = 2;
  golden.reprobe_successes = 2;
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

// (e) single-rail:0 keeps posting on its quarantined rail 0: a busy
// quarantined rail freeing is still a planner input, so the outcome must
// not move.
TEST(Wakeups, SingleRailOnQuarantinedRail) {
  World world(short_windows("single-rail:0", usec(400), usec(800)));
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(200), usec(300)));
  const auto arrivals = open_loop(15, 300, 400.0, 1u << 10, 256u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 8336072040250907676ull;
  golden.rail_bytes = {16635700, 164097};
  golden.tx_errors = 5;
  golden.quarantines = 1;
  golden.failovers = 1;
  golden.retries = 5;
  golden.reprobes = 1;
  golden.reprobe_successes = 1;
  expect_outcome(got, golden, arrivals.size());
  // Rail 1 stays usable and idle while sends queue behind rail 0:
  // SingleRail declines it, and an idle rail the strategy declined is no
  // reason to wake, so the planner sleeps until rail 0 frees.
  expect_few_wakeups(got, arrivals.size());
}

// (f) QoS windowed streams with every rail quarantined: the stream pump
// posts on usable rails only, so it sleeps until a lift re-arms it.
TEST(Wakeups, QosStreamsWaitForLift) {
  WorldConfig cfg = short_windows("hetero-split", usec(1000), usec(4000));
  cfg.engine.failover.max_attempts = 16;
  cfg.engine.qos.enabled = true;
  World world(cfg);
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(200), usec(30)));
  world.fabric().nic(0, 1).inject_fault(fault(fabric::FaultKind::kFlap, usec(200), usec(30)));
  const auto arrivals = open_loop(16, 40, 800.0, 512u << 10, 2u << 20);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 12971117648992538185ull;
  golden.rail_bytes = {25419856, 18985926};
  golden.tx_errors = 2;
  golden.quarantines = 2;
  golden.failovers = 2;
  golden.retries = 2;
  golden.reprobes = 2;
  golden.reprobe_successes = 2;
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

// (g) multicore-hetero-split on three rails, overloaded through a flap:
// with two rails still usable, a lone medium eager send is split across
// them busy offsets included, while batches wait for an idle rail.
TEST(Wakeups, MulticoreSplitAcrossFlap) {
  WorldConfig cfg = short_windows("multicore-hetero-split", usec(150), usec(600));
  cfg.fabric.rails.push_back(fabric::myri10g());
  World world(cfg);
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(60), usec(100)));
  const auto arrivals = open_loop(17, 500, 6000.0, 1u << 10, 32u << 10);
  const Outcome got = run(world, arrivals);
  Outcome golden;
  golden.completion_hash = 17979786222020647643ull;
  golden.rail_bytes = {1404399, 88122, 3190321};
  golden.tx_errors = 1;
  golden.quarantines = 1;
  golden.retries = 1;
  golden.reprobes = 1;
  golden.reprobe_successes = 1;
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

// (h) Recalibration under a flap: rail 1 runs 3x slower than its profile,
// so its scale corrections note planner inputs from inside planner passes,
// on top of the quarantine, lift and failover notes.
TEST(Wakeups, RecalibrationDuringQuarantine) {
  WorldConfig cfg = short_windows("hetero-split", usec(300), usec(1200));
  cfg.engine.recalibration.enabled = true;
  World world(cfg);
  fabric::FaultSpec slow = fault(fabric::FaultKind::kDegrade, 0);
  slow.factor = 3.0;
  world.fabric().nic(0, 1).inject_fault(slow);
  world.fabric().nic(0, 0).inject_fault(fault(fabric::FaultKind::kFlap, usec(60), usec(100)));
  const auto arrivals = open_loop(18, 500, 900.0, 1u << 10, 16u << 10);
  const Outcome got = run(world, arrivals);
  EXPECT_GT(world.engine(0).stats().recal_corrections, 0u);
  Outcome golden;
  golden.completion_hash = 13379132757632174269ull;
  golden.rail_bytes = {45795, 2790381};
  golden.tx_errors = 1;
  golden.quarantines = 1;
  golden.retries = 1;
  golden.reprobes = 1;
  golden.reprobe_successes = 1;
  expect_outcome(got, golden, arrivals.size());
  expect_few_wakeups(got, arrivals.size());
}

}  // namespace
}  // namespace rails::core

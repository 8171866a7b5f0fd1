#include "strategy/split_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bisection_oracle.hpp"
#include "common/rng.hpp"
#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"

namespace rails::strategy {
namespace {

using fabric::NetworkModel;
using fabric::Protocol;

/// Affine rail: duration = latency + bytes/bw.
struct AffineFixture {
  NetworkModel model;
  ModelCost cost;
  AffineFixture(double lat_us, double bw)
      : model(fabric::affine(lat_us, bw)), cost(&model, Protocol::kRendezvous) {}
};

TEST(ModelCost, InverseMatchesDuration) {
  AffineFixture f(5.0, 1000.0);
  for (std::size_t bytes : {0ul, 100ul, 4096ul, 1000000ul}) {
    const SimDuration d = f.cost.duration(bytes);
    const std::size_t inv = f.cost.max_bytes_within(d);
    EXPECT_GE(inv, bytes);
    EXPECT_LE(f.cost.duration(inv), d);
  }
}

TEST(ModelCost, ZeroOrNegativeBudgetFitsNothing) {
  // Regression: with a (degenerate) zero-latency model, a zero budget used
  // to send the doubling search all the way to its ceiling and report ~1 TiB
  // as "fitting" in no time at all.
  AffineFixture f(0.0, 1e15);
  EXPECT_EQ(f.cost.max_bytes_within(0), 0u);
  EXPECT_EQ(f.cost.max_bytes_within(-1), 0u);
  EXPECT_EQ(f.cost.max_bytes_within(usec(-5.0)), 0u);
  AffineFixture g(5.0, 1000.0);
  EXPECT_EQ(g.cost.max_bytes_within(0), 0u);
  EXPECT_EQ(g.cost.max_bytes_within(usec(4.9)), 0u);  // below the latency
}

TEST(ModelCost, SearchClampsAtCeilingInsteadOfOverflowing) {
  // A near-infinite-bandwidth rail: everything "fits", so the search must
  // stop at its documented 1 TiB ceiling rather than doubling forever.
  AffineFixture f(0.0, 1e15);
  EXPECT_EQ(f.cost.max_bytes_within(usec(1.0)), std::size_t{1} << 40);
}

TEST(Dichotomy, EqualRailsSplitInHalf) {
  AffineFixture a(2.0, 1000.0);
  AffineFixture b(2.0, 1000.0);
  const SolverRail ra{0, &a.cost, 0};
  const SolverRail rb{1, &b.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(result.chunks[0].bytes), 1_MiB / 2.0, 1_MiB * 0.01);
  EXPECT_LE(result.imbalance, usec(1.0));
}

TEST(Dichotomy, HeterogeneousRailsMatchBandwidthRatio) {
  // With zero latency the equal-finish ratio is exactly bw0/(bw0+bw1).
  AffineFixture fast(0.0, 1170.0);
  AffineFixture slow(0.0, 837.0);
  const SolverRail ra{0, &fast.cost, 0};
  const SolverRail rb{1, &slow.cost, 0};
  const std::size_t total = 4_MiB;
  const auto result = dichotomy_split(ra, rb, total);
  const double expected = 1170.0 / (1170.0 + 837.0) * static_cast<double>(total);
  EXPECT_NEAR(static_cast<double>(result.chunks[0].bytes), expected, total * 0.01);
}

TEST(Dichotomy, StartsAtHalfAndConverges) {
  AffineFixture fast(0.0, 2000.0);
  AffineFixture slow(0.0, 500.0);
  const SolverRail ra{0, &fast.cost, 0};
  const SolverRail rb{1, &slow.cost, 0};
  DichotomyConfig cfg;
  cfg.max_iterations = 1;  // forced to stop right after the initial 50/50
  const auto one = dichotomy_split(ra, rb, 1_MiB, cfg);
  EXPECT_EQ(one.chunks[0].bytes, 1_MiB / 2);

  cfg.max_iterations = 30;
  cfg.tolerance = 100;
  const auto converged = dichotomy_split(ra, rb, 1_MiB, cfg);
  EXPECT_LT(converged.imbalance, one.imbalance);
  EXPECT_NEAR(static_cast<double>(converged.chunks[0].bytes), 0.8 * 1_MiB, 0.01 * 1_MiB);
}

TEST(Dichotomy, BusyOffsetShiftsShare) {
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const SolverRail ra{0, &a.cost, usec(500.0)};  // rail 0 busy for 500 us
  const SolverRail rb{1, &b.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  // Equal speeds but rail 0 starts late: it must carry less.
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_LT(result.chunks[0].bytes, result.chunks[1].bytes);
  EXPECT_LE(result.imbalance, usec(1.0));
}

TEST(Dichotomy, IterationsBoundedByConfig) {
  AffineFixture a(0.0, 1234.0);
  AffineFixture b(0.0, 567.0);
  DichotomyConfig cfg;
  cfg.max_iterations = 7;
  cfg.tolerance = 0;  // unreachable: always runs to the iteration cap
  const auto result =
      dichotomy_split({0, &a.cost, 0}, {1, &b.cost, 0}, 1_MiB, cfg);
  EXPECT_EQ(result.iterations, 7u);
}

TEST(EqualFinish, MatchesDichotomyOnTwoRails) {
  AffineFixture a(3.0, 1170.0);
  AffineFixture b(2.0, 837.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}};
  const auto dich = dichotomy_split(rails[0], rails[1], 4_MiB);
  const auto ef = solve_equal_finish(rails, 4_MiB);
  ASSERT_EQ(ef.chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(ef.chunks[0].bytes),
              static_cast<double>(dich.chunks[0].bytes), 4_MiB * 0.005);
  EXPECT_NEAR(static_cast<double>(ef.makespan), static_cast<double>(dich.makespan),
              static_cast<double>(dich.makespan) * 0.005);
}

TEST(EqualFinish, ChunksTileTheMessage) {
  AffineFixture a(1.0, 900.0);
  AffineFixture b(2.0, 600.0);
  AffineFixture c(3.0, 300.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}, {2, &c.cost, 0}};
  for (std::size_t total : {4096ul, 100000ul, 1048576ul, 8388608ul}) {
    const auto result = solve_equal_finish(rails, total);
    std::size_t sum = 0;
    std::size_t expected_offset = 0;
    for (const auto& chunk : result.chunks) {
      EXPECT_EQ(chunk.offset, expected_offset);
      expected_offset += chunk.bytes;
      sum += chunk.bytes;
    }
    EXPECT_EQ(sum, total);
  }
}

TEST(EqualFinish, NeverWorseThanBestSingleRail) {
  AffineFixture a(2.0, 1170.0);
  AffineFixture b(1.0, 837.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}, {1, &b.cost, 0}};
  for (std::size_t total = 1_KiB; total <= 8_MiB; total <<= 1) {
    const auto split = solve_equal_finish(rails, total);
    const auto best = single_rail_time(rails[best_single_rail(rails, total)], total);
    EXPECT_LE(split.makespan, best) << "total " << total;
  }
}

TEST(EqualFinish, HopelesslyBusyRailGetsNothing) {
  // Fig. 2: a NIC that stays busy past the other rail's completion is
  // discarded from the transfer.
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const SimDuration solo = a.cost.duration(64_KiB);
  const std::vector<SolverRail> rails = {
      {0, &a.cost, 0},
      {1, &b.cost, solo * 2},  // busy until well past rail 0's solo finish
  };
  const auto result = solve_equal_finish(rails, 64_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 0u);
  EXPECT_EQ(result.chunks[0].bytes, 64_KiB);
}

TEST(EqualFinish, BrieflyBusyRailStillUsed) {
  // Fig. 2's other case: a busy NIC that frees soon enough still joins.
  AffineFixture a(1.0, 1000.0);
  AffineFixture b(1.0, 1000.0);
  const std::vector<SolverRail> rails = {
      {0, &a.cost, 0},
      {1, &b.cost, usec(50.0)},  // busy 50 us; message takes ~1000 us
  };
  const auto result = solve_equal_finish(rails, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 2u);
  EXPECT_GT(result.chunks[1].bytes, 0u);
  EXPECT_LT(result.chunks[1].bytes, result.chunks[0].bytes);
}

TEST(EqualFinish, SingleRailDegenerate) {
  AffineFixture a(1.0, 500.0);
  const std::vector<SolverRail> rails = {{0, &a.cost, 0}};
  const auto result = solve_equal_finish(rails, 1_MiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].bytes, 1_MiB);
  EXPECT_EQ(result.makespan, a.cost.duration(1_MiB));
}

TEST(EqualFinish, SingleSurvivorSplitHasZeroImbalance) {
  // The failover path re-splits a lost range over the survivors; with one
  // survivor that is a single chunk, and imbalance must read 0.
  AffineFixture a(1.0, 500.0);
  const std::vector<SolverRail> rails = {{3, &a.cost, usec(2.0)}};
  const auto result = solve_equal_finish(rails, 256_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 3u);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(EqualFinish, PrunedToOneRailReportsZeroImbalance) {
  // Regression: imbalance is a cross-rail quantity. When every byte lands on
  // one rail (here because the other rail is hopelessly busy), the result
  // must not report the makespan-vs-nothing difference as imbalance.
  AffineFixture fast(1.0, 1000.0);
  AffineFixture busy(1.0, 1000.0);
  const std::vector<SolverRail> rails = {
      {0, &fast.cost, 0},
      {1, &busy.cost, usec(100000.0)},  // busy far beyond the transfer time
  };
  const auto result = solve_equal_finish(rails, 64_KiB);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].rail, 0u);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(Dichotomy, SameRailTwiceReportsZeroImbalance) {
  // Two solver entries can alias one physical rail; the chunks then finish
  // sequentially on that rail and "imbalance" between them is meaningless.
  AffineFixture a(2.0, 1000.0);
  const SolverRail ra{0, &a.cost, 0};
  const SolverRail rb{0, &a.cost, 0};
  const auto result = dichotomy_split(ra, rb, 1_MiB);
  EXPECT_EQ(result.imbalance, 0);
}

TEST(EqualFinish, FourRailAggregationApproachesSum) {
  // Four equal rails: the makespan approaches a quarter of the single-rail
  // time (latency amortised at 8 MiB).
  std::vector<AffineFixture> fixtures;
  fixtures.reserve(4);
  for (int i = 0; i < 4; ++i) fixtures.emplace_back(2.0, 1400.0);
  std::vector<SolverRail> rails;
  for (RailId r = 0; r < 4; ++r) rails.push_back({r, &fixtures[r].cost, 0});
  const auto result = solve_equal_finish(rails, 8_MiB);
  ASSERT_EQ(result.chunks.size(), 4u);
  const double solo = static_cast<double>(fixtures[0].cost.duration(8_MiB));
  EXPECT_NEAR(static_cast<double>(result.makespan), solo / 4.0, solo * 0.02);
}

// -- property sweep with sampled (non-affine) profiles ----------------------

class SampledSplitProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampledSplitProperty, SampledCurvesProduceValidSplits) {
  static const auto profiles = sampling::sample_rails(
      {fabric::myri10g(), fabric::qsnet2()}, {1, 8u * 1024u * 1024u, 1, 1});
  const ProfileCost myri(&profiles[0].rdv_chunk);
  const ProfileCost qs(&profiles[1].rdv_chunk);
  const std::vector<SolverRail> rails = {{0, &myri, 0}, {1, &qs, 0}};
  const std::size_t total = GetParam();

  const auto result = solve_equal_finish(rails, total);
  std::size_t sum = 0;
  for (const auto& chunk : result.chunks) sum += chunk.bytes;
  EXPECT_EQ(sum, total);
  EXPECT_LE(result.makespan,
            single_rail_time(rails[best_single_rail(rails, total)], total));
  if (result.chunks.size() == 2) {
    // Myri-10G is the faster DMA rail: it must carry the bigger share.
    EXPECT_GT(result.chunks[0].bytes, result.chunks[1].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SampledSplitProperty,
                         ::testing::Values(64_KiB, 256_KiB, 1_MiB, 4_MiB, 8_MiB),
                         [](const auto& info) { return std::to_string(info.param); });

// -- the closed-form solver against the bisections it replaced --------------

const std::vector<sampling::RailProfile>& preset_profiles() {
  static const auto profiles = sampling::sample_rails(
      {fabric::myri10g(), fabric::qsnet2(), fabric::ib_ddr(), fabric::gige_tcp(),
       fabric::myri2000(), fabric::seastar_torus()});
  return profiles;
}

/// Every preset's rendezvous-chunk and eager tables, plus synthetic tables
/// with flat and steep segments.
const std::vector<sampling::PerfProfile>& solver_tables() {
  static const auto tables = [] {
    std::vector<sampling::PerfProfile> out;
    for (const auto& rp : preset_profiles()) {
      out.push_back(rp.rdv_chunk);
      out.push_back(rp.eager);
    }
    out.push_back(sampling::PerfProfile(
        {{1, 500}, {64, 500}, {4_KiB, 9000}, {1_MiB, 9000}, {2_MiB, 1900000}}));
    out.push_back(
        sampling::PerfProfile({{1, 100}, {2, 50000}, {4, 200000}, {1_KiB, 900000000}}));
    return out;
  }();
  return tables;
}

/// Bytes per input rail of a split (zero for a rail it left out).
std::vector<std::size_t> bytes_per_rail(const SplitResult& split,
                                        std::span<const SolverRail> rails) {
  std::vector<std::size_t> out(rails.size(), 0);
  for (const Chunk& c : split.chunks) {
    for (std::size_t i = 0; i < rails.size(); ++i) {
      if (rails[i].rail == c.rail) out[i] += c.bytes;
    }
  }
  return out;
}

TEST(EqualFinishOracle, SameChunksAsTheBisectionAtScaleOne) {
  const auto& tables = solver_tables();
  Xoshiro256 rng(2024);
  unsigned compared = 0;
  unsigned plateau = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t count = 1 + rng.below(4);
    std::vector<ProfileCost> costs;
    std::vector<oracle::ProfileCost> old_costs;
    costs.reserve(count);
    old_costs.reserve(count);
    std::vector<SolverRail> rails;
    std::vector<SolverRail> old_rails;
    for (std::size_t i = 0; i < count; ++i) {
      const auto* table = &tables[rng.below(tables.size())];
      costs.emplace_back(table);
      old_costs.emplace_back(table);
      // Half the rails are idle; the others stay busy for up to 2 ms.
      const SimDuration ready =
          rng.below(2) == 0 ? 0 : static_cast<SimDuration>(rng.below(2000000));
      rails.push_back({static_cast<RailId>(i), &costs.back(), ready});
      old_rails.push_back({static_cast<RailId>(i), &old_costs.back(), ready});
    }
    // Log-uniform sizes from 1 B to 16 MiB.
    const auto total = static_cast<std::size_t>(std::exp2(rng.uniform() * 24.0));

    const SplitResult split = solve_equal_finish(rails, total);
    std::size_t sum = 0;
    for (const Chunk& c : split.chunks) sum += c.bytes;
    ASSERT_EQ(sum, total) << "trial " << trial;

    const auto old = oracle::solve_equal_finish(old_rails, total);
    bool stopped = false;
    for (const auto& c : old_costs) stopped = stopped || c.plateau_stop();
    if (old.has_value() && !stopped) {
      ASSERT_EQ(bytes_per_rail(split, rails), *old) << "trial " << trial << " total " << total;
      ++compared;
    } else {
      // The old inverse stopped short on a doubling plateau somewhere in the
      // search (or the old solver aborted): the exact one can only finish
      // the message sooner.
      ++plateau;
      if (old.has_value()) {
        SimTime old_makespan = 0;
        for (std::size_t i = 0; i < count; ++i) {
          if ((*old)[i] > 0) {
            old_makespan =
                std::max(old_makespan, rails[i].ready_offset + costs[i].duration((*old)[i]));
          }
        }
        ASSERT_LE(split.makespan, old_makespan) << "trial " << trial;
      }
    }
  }
  // The plateau is a corner (a budget equal to an estimate past the last
  // sample); nearly every random case must compare chunk for chunk.
  EXPECT_GE(compared, 3900u);
  EXPECT_LE(plateau, 100u);
}

TEST(ProfileCostInverse, AtScaleOneIsTheProfileInverse) {
  for (const auto& table : solver_tables()) {
    const ProfileCost cost(&table);
    Xoshiro256 rng(7);
    const auto top = static_cast<std::uint64_t>(cost.duration(32_MiB));
    for (int i = 0; i < 3000; ++i) {
      const auto budget = static_cast<SimDuration>(rng.below(top));
      bool plateau = false;
      const std::size_t old = oracle::profile_inverse(table, budget, &plateau);
      const std::size_t now = cost.max_bytes_within(budget);
      ASSERT_EQ(now, table.max_bytes_within(budget)) << "budget " << budget;
      if (!plateau) {
        ASSERT_EQ(now, old) << "budget " << budget;
      }
    }
  }
}

TEST(ProfileCostInverse, RoundTripsAtEveryTrustScale) {
  const std::vector<double> scales = {1.0, 1.1, 1.3, 1.5, 2.5, 3.0, 4.0};
  for (const auto& rp : preset_profiles()) {
    for (const sampling::PerfProfile* table : {&rp.rdv_chunk, &rp.eager}) {
      for (const double scale : scales) {
        const ProfileCost cost(table, scale);
        std::vector<std::size_t> sizes;
        for (const auto& s : table->points()) {
          for (std::size_t b : {s.size - 1, s.size, s.size + 1}) sizes.push_back(b);
        }
        Xoshiro256 rng(static_cast<std::uint64_t>(scale * 1000.0));
        for (int i = 0; i < 500; ++i) {
          sizes.push_back(static_cast<std::size_t>(std::exp2(rng.uniform() * 24.0)));
        }
        for (const std::size_t b : sizes) {
          ASSERT_GE(cost.max_bytes_within(cost.duration(b)), b)
              << rp.name << " scale " << scale << " bytes " << b;
        }
        const SimDuration floor = cost.duration(0);
        const auto span = static_cast<std::uint64_t>(cost.duration(16_MiB) - floor);
        for (int i = 0; i < 500; ++i) {
          const SimDuration budget = floor + static_cast<SimDuration>(rng.below(span));
          ASSERT_LE(cost.duration(cost.max_bytes_within(budget)), budget)
              << rp.name << " scale " << scale << " budget " << budget;
        }
      }
    }
  }
}

TEST(EqualFinishOracle, ScaledInverseNoLongerAborts) {
  // duration(2000) = trunc(1000 * 1.1) = 1100, and the old inverse mapped
  // 1100 back to trunc(1100 / 1.1) = 999 ns, i.e. 1,998 B: at its own
  // single-rail finish time the rail could not carry the message, and
  // solve_equal_finish aborted on capacity(hi) >= total.
  const sampling::PerfProfile table({{0, 0}, {1_MiB, 524288}});
  const oracle::ProfileCost old(&table, 1.1);
  const std::vector<SolverRail> old_rails = {{0, &old, 0}};
  EXPECT_FALSE(oracle::solve_equal_finish(old_rails, 2000).has_value());

  const ProfileCost cost(&table, 1.1);
  const std::vector<SolverRail> rails = {{0, &cost, 0}};
  const SplitResult split = solve_equal_finish(rails, 2000);
  ASSERT_EQ(split.chunks.size(), 1u);
  EXPECT_EQ(split.chunks[0].bytes, 2000u);
  EXPECT_EQ(split.makespan, cost.duration(2000));
}

TEST(EqualFinishOracle, OneByteBeyondTheLastSampleNoLongerAborts) {
  // At scale 1.0 the old inverse stopped on the last sample whenever the
  // budget equalled its estimate, so one Myri-10G rail could not take one
  // byte more than the largest sampled size.
  const sampling::PerfProfile& table = preset_profiles()[0].rdv_chunk;
  const std::size_t total = table.max_size() + 1;
  const oracle::ProfileCost old(&table);
  const std::vector<SolverRail> old_rails = {{0, &old, 0}};
  EXPECT_FALSE(oracle::solve_equal_finish(old_rails, total).has_value());

  const ProfileCost cost(&table);
  const std::vector<SolverRail> rails = {{0, &cost, 0}};
  const SplitResult split = solve_equal_finish(rails, total);
  ASSERT_EQ(split.chunks.size(), 1u);
  EXPECT_EQ(split.chunks[0].bytes, total);
}

TEST(EqualFinishOracle, FewCostQueriesPerSolve) {
  // The deadline search probes interpolated deadlines instead of bisecting
  // ~18 times: count the RailCost queries one solve makes.
  struct Counting final : RailCost {
    const RailCost* inner;
    mutable unsigned queries = 0;
    explicit Counting(const RailCost* c) : inner(c) {}
    SimDuration duration(std::size_t b) const override {
      ++queries;
      return inner->duration(b);
    }
    std::size_t max_bytes_within(SimDuration t) const override {
      ++queries;
      return inner->max_bytes_within(t);
    }
  };
  const auto& profiles = preset_profiles();
  const ProfileCost myri(&profiles[0].rdv_chunk);
  const ProfileCost qs(&profiles[1].rdv_chunk);
  const Counting a(&myri);
  const Counting b(&qs);
  Xoshiro256 rng(5);
  unsigned solves = 0;
  unsigned iterations = 0;
  for (int i = 0; i < 500; ++i) {
    const std::vector<SolverRail> rails = {
        {0, &a, static_cast<SimDuration>(rng.below(300000))},
        {1, &b, static_cast<SimDuration>(rng.below(300000))}};
    const auto total = static_cast<std::size_t>(8_KiB * std::exp2(rng.uniform() * 6.0));
    iterations += solve_equal_finish(rails, total).iterations;
    ++solves;
  }
  EXPECT_LE(a.queries + b.queries, 20u * solves);
  EXPECT_LE(iterations, 8u * solves);
}

// A rendezvous-only open loop (32 KiB - 1 MiB, one message in four from
// node 1) on a rail
// degraded 2.5-4x with recalibration on: the SUSPECT rail's trust penalty
// scales its costs, and the old scaled inverse could fall one step short of
// the solver's own upper bound and abort on capacity(hi) >= total. Each
// case below aborted that way before the inverse became exact.
struct DegradedCase {
  double factor;
  std::uint64_t seed;
};

void PrintTo(const DegradedCase& c, std::ostream* os) {
  *os << c.factor << "x, seed " << c.seed;
}

class DegradedRecalibrationWorld : public ::testing::TestWithParam<DegradedCase> {};

TEST_P(DegradedRecalibrationWorld, OpenLoopCompletes) {
  const DegradedCase& c = GetParam();
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.recalibration.enabled = true;
  core::World world(cfg);
  fabric::FaultSpec slow;
  slow.kind = fabric::FaultKind::kDegrade;
  slow.factor = c.factor;
  world.fabric().nic(0, 0).inject_fault(slow);

  constexpr unsigned kMessages = 400;
  constexpr std::size_t kMaxSize = 1_MiB;
  Xoshiro256 rng(c.seed);
  const double mean_gap_ns = static_cast<double>(kMaxSize) / 8.0 / 900.0 * 1e3;
  std::vector<std::uint8_t> tx(kMaxSize, 0x5a);
  std::vector<std::uint8_t> rx(kMaxSize);
  std::vector<core::SendHandle> sends(kMessages);
  std::vector<core::RecvHandle> recvs(kMessages);
  SimTime at = 0;
  for (unsigned i = 0; i < kMessages; ++i) {
    at += static_cast<SimDuration>(-std::log(std::max(1e-12, rng.uniform())) * mean_gap_ns);
    const auto size =
        static_cast<std::size_t>(32_KiB * std::pow(32.0, rng.uniform()));  // to 1 MiB
    const NodeId src = i % 4 == 3 ? 1 : 0;
    world.fabric().events().at(at, [&, i, size, src] {
      recvs[i] = world.engine(1 - src).irecv(src, static_cast<Tag>(i), rx.data(), size);
      sends[i] = world.engine(src).isend(1 - src, static_cast<Tag>(i), tx.data(), size);
    });
  }
  world.fabric().events().run_all();
  unsigned done = 0;
  for (unsigned i = 0; i < kMessages; ++i) {
    done += sends[i] && recvs[i] && sends[i]->done() && recvs[i]->done() ? 1 : 0;
  }
  EXPECT_EQ(done, kMessages);
  // Some engine demoted a rail to SUSPECT, so its penalty scaled the costs.
  EXPECT_GE(world.engine(0).stats().trust_demotions + world.engine(1).stats().trust_demotions,
            1u);
}

INSTANTIATE_TEST_SUITE_P(Factors, DegradedRecalibrationWorld,
                         ::testing::Values(DegradedCase{2.5, 3}, DegradedCase{3.0, 5},
                                           DegradedCase{3.5, 1}, DegradedCase{4.0, 9}),
                         [](const auto& info) {
                           std::string name = "x";  // x25 is a 2.5x slowdown
                           name += std::to_string(static_cast<int>(info.param.factor * 10));
                           return name;
                         });

}  // namespace
}  // namespace rails::strategy

#include "sampling/profile.hpp"

#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bisection_oracle.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fabric/presets.hpp"
#include "sampling/sampler.hpp"

namespace rails::sampling {
namespace {

PerfProfile linear_profile() {
  // duration = 1000 + 2 * size, sampled at powers of two.
  std::vector<SamplePoint> pts;
  for (std::size_t s = 1; s <= 1024; s <<= 1) {
    pts.push_back({s, static_cast<SimDuration>(1000 + 2 * s)});
  }
  return PerfProfile(std::move(pts));
}

TEST(PerfProfile, ExactAtSamplePoints) {
  const auto p = linear_profile();
  for (std::size_t s = 1; s <= 1024; s <<= 1) {
    EXPECT_EQ(p.estimate(s), static_cast<SimDuration>(1000 + 2 * s));
  }
}

TEST(PerfProfile, InterpolatesBetweenPoints) {
  const auto p = linear_profile();
  // Between 256 and 512 the underlying curve is linear, so interpolation is
  // exact at any intermediate size.
  EXPECT_EQ(p.estimate(384), 1000 + 2 * 384);
  EXPECT_EQ(p.estimate(300), 1000 + 2 * 300);
}

TEST(PerfProfile, ExtrapolatesBeyondEnds) {
  const auto p = linear_profile();
  EXPECT_EQ(p.estimate(2048), 1000 + 2 * 2048);  // beyond last point
  EXPECT_EQ(p.estimate(0), 1000);                // below first point
}

TEST(PerfProfile, SinglePointIsConstant) {
  PerfProfile p({{64, 500}});
  EXPECT_EQ(p.estimate(1), 500);
  EXPECT_EQ(p.estimate(64), 500);
  EXPECT_EQ(p.estimate(1024), 500);
}

TEST(PerfProfile, DuplicateSizesKeepLatest) {
  PerfProfile p;
  p.add(100, 10);
  p.add(200, 20);
  p.add(100, 12);
  EXPECT_EQ(p.point_count(), 2u);
  EXPECT_EQ(p.estimate(100), 12);
}

TEST(PerfProfile, NoiseInversionsClamped) {
  // A larger size measured faster than a smaller one (noise) must not
  // produce a non-monotone estimate.
  PerfProfile p({{100, 50}, {200, 40}, {400, 80}});
  EXPECT_GE(p.estimate(200), p.estimate(100));
  EXPECT_GE(p.estimate(300), p.estimate(200));
}

TEST(PerfProfile, LatencyIsZeroSizeIntercept) {
  EXPECT_EQ(linear_profile().latency(), 1000);
}

TEST(PerfProfile, AsymptoticBandwidth) {
  // Slope 2 ns/byte -> 500 MB/s.
  EXPECT_NEAR(linear_profile().asymptotic_bandwidth(), 500.0, 1e-9);
}

TEST(PerfProfile, MaxBytesWithinBasics) {
  const auto p = linear_profile();
  EXPECT_EQ(p.max_bytes_within(999), 0u);          // below latency
  EXPECT_EQ(p.max_bytes_within(1000), 0u);         // exactly latency -> 0 bytes
  EXPECT_EQ(p.max_bytes_within(1000 + 2 * 100), 100u);
  EXPECT_EQ(p.max_bytes_within(1000 + 2 * 5000), 5000u);  // beyond last sample
}

TEST(PerfProfile, InverseRoundTripProperty) {
  const auto p = linear_profile();
  Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const SimDuration budget = 1000 + static_cast<SimDuration>(rng.below(10000));
    const std::size_t bytes = p.max_bytes_within(budget);
    // The returned size fits the budget...
    EXPECT_LE(p.estimate(bytes), budget);
    // ...and one more byte would not.
    EXPECT_GT(p.estimate(bytes + 1), budget);
  }
}

TEST(PerfProfile, SaveLoadRoundTrip) {
  const auto p = linear_profile();
  std::stringstream ss;
  p.save(ss);
  const auto q = PerfProfile::load(ss);
  ASSERT_EQ(q.point_count(), p.point_count());
  for (std::size_t i = 0; i < p.points().size(); ++i) {
    EXPECT_EQ(q.points()[i].size, p.points()[i].size);
    EXPECT_EQ(q.points()[i].duration, p.points()[i].duration);
  }
}

TEST(PerfProfile, LoadSkipsCommentsAndBlanks) {
  std::stringstream ss("# header\n\n10 100\n# mid\n20 200\n");
  const auto p = PerfProfile::load(ss);
  EXPECT_EQ(p.point_count(), 2u);
  EXPECT_EQ(p.estimate(15), 150);
}

class ProfileRandomized : public ::testing::TestWithParam<int> {};

TEST_P(ProfileRandomized, EstimateMonotoneForMonotoneSamples) {
  Xoshiro256 rng(GetParam());
  PerfProfile p;
  SimDuration d = 100;
  for (std::size_t s = 4; s <= 1_MiB; s <<= 1) {
    d += static_cast<SimDuration>(rng.below(5000)) + 1;
    p.add(s, d);
  }
  SimDuration prev = -1;
  for (std::size_t s = 1; s <= 2_MiB; s = s * 3 / 2 + 1) {
    const SimDuration est = p.estimate(s);
    EXPECT_GE(est, prev) << "size " << s;
    prev = est;
  }
}

TEST_P(ProfileRandomized, InversePropertyOnRandomProfiles) {
  Xoshiro256 rng(GetParam() + 100);
  PerfProfile p;
  SimDuration d = 50;
  for (std::size_t s = 1; s <= 64_KiB; s <<= 1) {
    d += static_cast<SimDuration>(rng.below(2000)) + 10;
    p.add(s, d);
  }
  for (int i = 0; i < 100; ++i) {
    const SimDuration budget = 50 + static_cast<SimDuration>(rng.below(40000));
    const std::size_t bytes = p.max_bytes_within(budget);
    if (bytes > 0) {
      // The returned size fits, and the next byte is at the budget boundary
      // or beyond (integer durations can plateau, hence GE rather than GT).
      EXPECT_LE(p.estimate(bytes), budget);
      EXPECT_GE(p.estimate(bytes + 1), budget);
    } else {
      // Nothing fits only when even the smallest sampled message is over
      // budget (the zero-size extrapolation may dip below it).
      EXPECT_GT(p.estimate(p.min_size()), budget);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileRandomized, ::testing::Range(1, 9));

// -- the closed-form inverse against the bisection it replaced --------------

/// Every preset's sampled rendezvous-chunk and eager tables, plus synthetic
/// tables with flat segments (in the middle and as the tail) and steep ones
/// (many nanoseconds per byte).
std::vector<std::pair<std::string, PerfProfile>> inverse_tables() {
  std::vector<std::pair<std::string, PerfProfile>> out;
  for (const RailProfile& rp :
       sample_rails({fabric::myri10g(), fabric::qsnet2(), fabric::ib_ddr(), fabric::gige_tcp(),
                     fabric::myri2000(), fabric::seastar_torus()})) {
    out.emplace_back(rp.name + ".rdv_chunk", rp.rdv_chunk);
    out.emplace_back(rp.name + ".eager", rp.eager);
  }
  out.emplace_back("flat", PerfProfile({{1, 500},
                                        {64, 500},
                                        {4_KiB, 9000},
                                        {1_MiB, 9000},
                                        {2_MiB, 1900000},
                                        {8_MiB, 1900000}}));
  out.emplace_back("steep",
                   PerfProfile({{1, 100}, {2, 50000}, {4, 200000}, {1_KiB, 900000000}}));
  out.emplace_back("single-point", PerfProfile({{4_KiB, 7000}}));
  return out;
}

/// Budgets around every sample point and every doubling point past the last
/// sample (one nanosecond either side), plus random budgets up to the
/// estimate of 32 MiB.
std::vector<SimDuration> inverse_budgets(const PerfProfile& p, std::uint64_t seed) {
  std::vector<SimDuration> out;
  auto around = [&](std::size_t size) {
    const SimDuration d = p.estimate(size);
    for (SimDuration delta = -1; delta <= 1; ++delta) out.push_back(d + delta);
  };
  for (const SamplePoint& s : p.points()) around(s.size);
  for (std::size_t size = p.max_size(); size <= 64_MiB && size > 0; size <<= 1) around(size);
  Xoshiro256 rng(seed);
  const auto top = static_cast<std::uint64_t>(p.estimate(32_MiB)) + 2;
  for (int i = 0; i < 2000; ++i) out.push_back(static_cast<SimDuration>(rng.below(top)));
  return out;
}

/// The inverse's search ceiling for `p`: the first max_size * 2^k at or
/// above 1 TiB.
std::size_t inverse_ceiling(const PerfProfile& p) {
  std::size_t c = std::max<std::size_t>(p.max_size(), 1);
  while (c < (std::size_t{1} << 40)) c <<= 1;
  return c;
}

TEST(PerfProfileInverse, MatchesBisectionOracle) {
  std::uint64_t seed = 1;
  for (const auto& [name, p] : inverse_tables()) {
    for (const SimDuration budget : inverse_budgets(p, seed++)) {
      bool plateau = false;
      const std::size_t old = oracle::profile_inverse(p, budget, &plateau);
      const std::size_t now = p.max_bytes_within(budget);
      if (!plateau) {
        ASSERT_EQ(now, old) << name << " budget " << budget;
        continue;
      }
      // The doubling search stopped on a point whose estimate equals the
      // budget; the exact inverse goes on to the end of that plateau.
      ASSERT_GT(now, old) << name << " budget " << budget;
      ASSERT_LE(p.estimate(now), budget) << name << " budget " << budget;
    }
  }
}

TEST(PerfProfileInverse, IsTheLargestFittingSize) {
  std::uint64_t seed = 100;
  for (const auto& [name, p] : inverse_tables()) {
    const std::size_t ceiling = inverse_ceiling(p);
    for (const SimDuration budget : inverse_budgets(p, seed++)) {
      const std::size_t b = p.max_bytes_within(budget);
      if (p.estimate(0) > budget) {
        ASSERT_EQ(b, 0u) << name << " budget " << budget;
        continue;
      }
      ASSERT_LE(p.estimate(b), budget) << name << " budget " << budget;
      ASSERT_LE(b, ceiling) << name;
      if (b < ceiling) {
        ASSERT_GT(p.estimate(b + 1), budget) << name << " budget " << budget;
      }
    }
  }
}

TEST(PerfProfileInverse, RoundTripsPastTheLastSample) {
  // The bisection returned max_size for the budget estimate(max_size + 1)
  // whenever the last segment costs under a nanosecond per byte, so a
  // single-rail split of one byte more than the largest sample could not
  // place its own message.
  for (const auto& [name, p] : inverse_tables()) {
    for (std::size_t size = p.max_size(); size <= 64_MiB && size > 0; size <<= 1) {
      for (std::size_t b : {size - 1, size, size + 1, size + 2}) {
        ASSERT_GE(p.max_bytes_within(p.estimate(b)), b) << name << " size " << b;
      }
    }
  }
}

}  // namespace
}  // namespace rails::sampling

// The rendezvous split solver as it stood before its closed form: a
// doubling-then-bisecting inverse of each sampled profile, and a bisection
// on the common deadline. The differential tests replay it next to the
// production solver and require the same answers.
//
// One change to the original code: where it aborted on
// RAILS_CHECK(capacity(hi) >= total), the oracle reports failure instead,
// so a test can show the case rather than die on it.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sampling/profile.hpp"
#include "strategy/rail_cost.hpp"
#include "strategy/split_solver.hpp"

namespace rails::oracle {

/// The former PerfProfile::max_bytes_within. `plateau_stop` is set when it
/// returned a doubling point whose estimate equals the budget although the
/// next byte fits too — the one case where its answer is not the largest
/// fitting size (and breaks its own round trip).
inline std::size_t profile_inverse(const sampling::PerfProfile& p, SimDuration budget,
                                   bool* plateau_stop = nullptr) {
  if (budget < p.estimate(0)) return 0;
  std::size_t lo = 0;
  std::size_t hi = p.max_size();
  if (p.estimate(hi) < budget) {
    while (p.estimate(hi) < budget && hi < (std::size_t{1} << 40)) hi <<= 1;
  }
  if (p.estimate(hi) <= budget) {
    if (plateau_stop != nullptr && hi < (std::size_t{1} << 40) &&
        p.estimate(hi + 1) <= budget) {
      *plateau_stop = true;
    }
    return hi;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (p.estimate(mid) <= budget) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// The former ProfileCost: the same scaled duration, and an inverse that
/// divides the budget by the scale and truncates a second time.
class ProfileCost final : public strategy::RailCost {
 public:
  explicit ProfileCost(const sampling::PerfProfile* profile, double cost_scale = 1.0)
      : profile_(profile), cost_scale_(cost_scale) {}
  SimDuration duration(std::size_t bytes) const override {
    return static_cast<SimDuration>(static_cast<double>(profile_->estimate(bytes)) *
                                    cost_scale_);
  }
  std::size_t max_bytes_within(SimDuration budget) const override {
    return profile_inverse(
        *profile_, static_cast<SimDuration>(static_cast<double>(budget) / cost_scale_),
        &plateau_stop_);
  }
  /// Whether any inverse so far stopped on a doubling plateau.
  bool plateau_stop() const { return plateau_stop_; }

 private:
  const sampling::PerfProfile* profile_;
  double cost_scale_ = 1.0;
  mutable bool plateau_stop_ = false;
};

/// The former solve_equal_finish, returning the chunk sizes per rail in
/// input order (zero for an unused rail), or nothing where it aborted.
inline std::optional<std::vector<std::size_t>> solve_equal_finish(
    std::span<const strategy::SolverRail> rails, std::size_t total) {
  auto capacity = [&](SimTime deadline) {
    std::size_t cap = 0;
    for (const auto& r : rails) {
      if (deadline <= r.ready_offset) continue;
      cap += r.cost->max_bytes_within(deadline - r.ready_offset);
    }
    return cap;
  };
  const strategy::SolverRail& best = rails[strategy::best_single_rail(rails, total)];
  SimTime hi = best.ready_offset + best.cost->duration(total);
  SimTime lo = 0;
  if (capacity(hi) < total) return std::nullopt;
  while (hi - lo > 1) {
    const SimTime mid = lo + (hi - lo) / 2;
    if (capacity(mid) >= total) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  std::vector<std::size_t> bytes;
  std::size_t allocated = 0;
  for (const auto& r : rails) {
    std::size_t b = 0;
    if (hi > r.ready_offset) b = r.cost->max_bytes_within(hi - r.ready_offset);
    b = std::min(b, total - allocated);
    allocated += b;
    bytes.push_back(b);
  }
  return bytes;
}

}  // namespace rails::oracle

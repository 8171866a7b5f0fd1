// Cost-curve abstraction consumed by the split solvers.
//
// Solvers only need two monotone queries per rail — duration(bytes) and its
// inverse — so they are written against this interface. Production code
// adapts sampled PerfProfiles; tests adapt closed-form NetworkModels to
// verify the solvers against analytic optima.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "fabric/network_model.hpp"
#include "sampling/profile.hpp"

namespace rails::strategy {

class RailCost {
 public:
  virtual ~RailCost() = default;

  /// Duration of a transfer of `bytes` on an idle rail.
  virtual SimDuration duration(std::size_t bytes) const = 0;

  /// Largest byte count whose duration fits within `budget` (0 if none).
  virtual std::size_t max_bytes_within(SimDuration budget) const = 0;
};

/// Adapts a sampled profile (the production path). `cost_scale` inflates the
/// curve without touching the profile — how the recalibration layer makes a
/// SUSPECT rail look slightly slower to the solver than its (possibly still
/// drifting) tables claim, so it receives proportionally smaller chunks.
class ProfileCost final : public RailCost {
 public:
  explicit ProfileCost(const sampling::PerfProfile* profile, double cost_scale = 1.0)
      : profile_(profile), cost_scale_(cost_scale) {}
  SimDuration duration(std::size_t bytes) const override {
    return scaled(profile_->estimate(bytes));
  }
  /// The exact inverse of duration(): the largest estimate whose scaled
  /// value fits `budget`, then the profile's inverse at that estimate. So
  /// max_bytes_within(duration(b)) >= b at any scale; at scale 1.0 the
  /// estimate is the budget itself.
  std::size_t max_bytes_within(SimDuration budget) const override {
    if (budget < 0) return 0;
    auto estimate = static_cast<SimDuration>(static_cast<double>(budget) / cost_scale_);
    while (scaled(estimate + 1) <= budget) ++estimate;
    while (estimate > 0 && scaled(estimate) > budget) --estimate;
    return profile_->max_bytes_within(estimate);
  }

 private:
  SimDuration scaled(SimDuration estimate) const {
    return static_cast<SimDuration>(static_cast<double>(estimate) * cost_scale_);
  }

  const sampling::PerfProfile* profile_;
  double cost_scale_ = 1.0;
};

/// Adapts an analytic model (tests, what-if analyses).
class ModelCost final : public RailCost {
 public:
  ModelCost(const fabric::NetworkModel* model, fabric::Protocol proto,
            bool include_handshake = false)
      : model_(model), proto_(proto), include_handshake_(include_handshake) {}

  SimDuration duration(std::size_t bytes) const override {
    return proto_ == fabric::Protocol::kEager
               ? model_->eager(bytes).total
               : model_->rendezvous(bytes, include_handshake_).total;
  }

  std::size_t max_bytes_within(SimDuration budget) const override;

 private:
  const fabric::NetworkModel* model_;
  fabric::Protocol proto_;
  bool include_handshake_;
};

/// One rail as the solver sees it: a cost curve plus how long the rail stays
/// busy before it can start ("the time remaining before it becomes idle is
/// added to its predicted transfer time", §II-B).
struct SolverRail {
  RailId rail = 0;
  const RailCost* cost = nullptr;
  SimDuration ready_offset = 0;
};

}  // namespace rails::strategy

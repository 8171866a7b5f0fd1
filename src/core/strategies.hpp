// The strategy plug-in catalogue.
//
// Baselines (§II-A / Fig. 1 / Fig. 3):
//  * SingleRail        — everything on one fixed rail (Fig. 1a degenerate);
//  * GreedyBalance     — "when a NIC becomes idle, it looks after the next
//                        communication": per-message dynamic balancing, no
//                        aggregation, no splitting (Fig. 3's losing curve);
//  * AggregateFastest  — aggregate pending eager packets onto the fastest
//                        available rail (Fig. 4b); best single rail for
//                        rendezvous;
//  * IsoSplit          — rendezvous split into equal-size chunks over all
//                        rails (Fig. 1b / Fig. 8 "Iso-split");
//  * FixedRatioSplit   — OpenMPI-style split by asymptotic bandwidth ratio,
//                        independent of message size and NIC state (§II-A).
//
// The paper's contribution:
//  * HeteroSplit          — sampling-based equal-finish split with busy-NIC
//                           awareness (Fig. 1c / Fig. 2 / Fig. 8);
//  * MulticoreHeteroSplit — HeteroSplit plus multicore eager sends: medium
//                           eager messages are split and submitted from idle
//                           cores at a TO signalling cost (Fig. 7 / eq. 1).
#pragma once

#include <memory>
#include <vector>

#include "core/strategy_iface.hpp"

namespace rails::core {

class SingleRail final : public Strategy {
 public:
  explicit SingleRail(RailId rail) : rail_(rail) {}
  std::string name() const override;
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
  RailId control_rail(const StrategyContext&) const override { return rail_; }

 private:
  RailId rail_;
};

class GreedyBalance final : public Strategy {
 public:
  std::string name() const override { return "greedy-balance"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;

 private:
  std::vector<RailId> idle_;  ///< plan_eager scratch, kept across calls
};

class AggregateFastest : public Strategy {
 public:
  std::string name() const override { return "aggregate-fastest"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class IsoSplit final : public AggregateFastest {
 public:
  std::string name() const override { return "iso-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class FixedRatioSplit final : public AggregateFastest {
 public:
  std::string name() const override { return "fixed-ratio-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

/// §II-B: "It could also be worth delaying a transfer while some NICs that
/// especially fit the considered transfer are busy." PatientAggregate picks
/// the rail with the best *busy-aware* predicted completion over ALL rails;
/// when that rail is still busy it defers (the engine re-interrogates when
/// a NIC frees up) instead of settling for an idle-but-slower rail.
class PatientAggregate : public AggregateFastest {
 public:
  std::string name() const override { return "patient-aggregate"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;
};

class HeteroSplit : public AggregateFastest {
 public:
  std::string name() const override { return "hetero-split"; }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override;
};

class MulticoreHeteroSplit : public HeteroSplit {
 public:
  std::string name() const override { return "multicore-hetero-split"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;

 protected:
  std::vector<CoreId> idle_cores_;  ///< plan_eager scratch, kept across calls
};

/// Batch spreading (§II: "data packets can be spread across the available
/// networks, increasing the message rate", realised via §II-C's multicore
/// submission): a burst of small messages is partitioned into one
/// aggregated segment per idle rail, each submitted from its own idle core
/// at the TO cost. Falls back to single-rail aggregation whenever the
/// prediction says the parallel copies would not pay for the signalling.
class BatchSpread final : public MulticoreHeteroSplit {
 public:
  std::string name() const override { return "batch-spread"; }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override;

 private:
  // plan_eager scratch, kept across calls so planning does not allocate.
  std::vector<RailId> idle_rails_;
  std::vector<const SendRequest*> order_;
  std::vector<std::size_t> bin_bytes_;
  std::vector<std::vector<const SendRequest*>> bin_sends_;
  std::vector<const SendRequest*> in_order_;
};

/// Factory by name ("single-rail:0", "greedy-balance", "iso-split", ...).
std::unique_ptr<Strategy> make_strategy(const std::string& name);

}  // namespace rails::core

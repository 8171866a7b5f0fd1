#include "core/strategies.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/message.hpp"
#include "core/wire_format.hpp"
#include "strategy/rail_cost.hpp"

namespace rails::core {

namespace {

/// Builds the solver inputs for one protocol table, busy offsets included.
/// Quarantined rails are excluded — the engine guarantees at least one rail
/// stays usable (docs/FAULTS.md). A SUSPECT rail's trust penalty inflates
/// its cost curve so the solver hands it proportionally smaller chunks
/// (docs/CALIBRATION.md).
std::vector<strategy::SolverRail> solver_rails(
    const StrategyContext& ctx, std::vector<strategy::ProfileCost>& costs,
    const sampling::PerfProfile& (*table)(const sampling::RailProfile&)) {
  costs.clear();
  costs.reserve(ctx.rail_count());
  std::vector<strategy::SolverRail> rails;
  rails.reserve(ctx.rail_count());
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    costs.emplace_back(&table(ctx.estimator->profile(r)), ctx.rail_trust_penalty(r));
  }
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    rails.push_back({r, &costs[r], ctx.rail_ready_offset(r)});
  }
  return rails;
}

/// Rails the strategy may plan onto (usable mask applied).
std::vector<RailId> usable_rails(const StrategyContext& ctx) {
  std::vector<RailId> out;
  out.reserve(ctx.rail_count());
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r)) out.push_back(r);
  }
  return out;
}

const sampling::PerfProfile& rdv_chunk_table(const sampling::RailProfile& rp) {
  return rp.rdv_chunk;
}
const sampling::PerfProfile& eager_table(const sampling::RailProfile& rp) {
  return rp.eager;
}

/// Packs `pending` (in order) into as few segments as fit on `rail`,
/// splitting an oversized send across several segments if needed, and
/// appends them to `out`.
void pack_onto_rail(const StrategyContext& ctx, RailId rail,
                    std::span<const SendRequest* const> pending, EagerSchedule& out) {
  const std::size_t cap = ctx.nics[rail]->model().params().max_eager;
  EagerEmission current;
  current.rail = rail;
  std::size_t used = 0;

  auto flush = [&] {
    if (!current.pieces.empty()) {
      out.emissions.push_back(std::move(current));
      current = EagerEmission{};
      current.rail = rail;
      used = 0;
    }
  };

  for (const SendRequest* send : pending) {
    std::size_t offset = 0;
    // A zero-byte message still occupies one framed header.
    do {
      const std::size_t remaining = send->len - offset;
      std::size_t room = cap > used + SubPacket::kHeaderBytes
                             ? cap - used - SubPacket::kHeaderBytes
                             : 0;
      if (room == 0 && !current.pieces.empty()) {
        flush();
        continue;
      }
      const std::size_t take = std::min(remaining, room);
      RAILS_CHECK_MSG(take > 0 || remaining == 0, "rail segment cap too small");
      current.pieces.push_back({send, offset, take});
      used += framed_size(take);
      offset += take;
    } while (offset < send->len);
  }
  flush();
}

/// The idle cores other than the scheduler core, nearest first: the remote
/// submitters of Fig. 7.
void idle_remote_cores(const StrategyContext& ctx, std::vector<CoreId>& out) {
  out.clear();
  ctx.cores->topology().for_each_neighbour(ctx.config->scheduler_core, [&](CoreId c) {
    if (ctx.cores->idle(c, ctx.now)) out.push_back(c);
  });
}

/// Completion-time estimate for aggregating `bytes` on `rail` right now.
SimTime eager_completion(const StrategyContext& ctx, RailId rail, std::size_t bytes) {
  const sampling::RailState state{rail, ctx.rail_busy_until(rail)};
  return ctx.estimator->completion(state, ctx.now, bytes, fabric::Protocol::kEager);
}

}  // namespace

// ---------------------------------------------------------------------------
// SingleRail
// ---------------------------------------------------------------------------

std::string SingleRail::name() const {
  return "single-rail:" + std::to_string(rail_);
}

EagerSchedule SingleRail::plan_eager(const StrategyContext& ctx,
                                     std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  // Defer while the rail is busy: queued packets keep aggregating, exactly
  // like NewMadeleine's pack list.
  if (!ctx.nics[rail_]->idle(ctx.now)) return schedule;
  pack_onto_rail(ctx, rail_, pending, schedule);
  return schedule;
}

strategy::SplitResult SingleRail::plan_rendezvous(const StrategyContext&, std::size_t len) {
  strategy::SplitResult result;
  result.chunks = {{rail_, 0, len}};
  return result;
}

// ---------------------------------------------------------------------------
// GreedyBalance
// ---------------------------------------------------------------------------

EagerSchedule GreedyBalance::plan_eager(const StrategyContext& ctx,
                                        std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  // Collect the rails currently idle; hand the queued messages to them
  // round-robin, one message per emission (no aggregation, no split).
  idle_.clear();
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r) && ctx.nics[r]->idle(ctx.now)) idle_.push_back(r);
  }
  if (idle_.empty()) return schedule;

  std::size_t next = 0;
  for (const SendRequest* send : pending) {
    const RailId rail = idle_[next % idle_.size()];
    ++next;
    if (send->len + SubPacket::kHeaderBytes >
        ctx.nics[rail]->model().params().max_eager) {
      continue;  // cannot fit whole on this rail; wait for another round
    }
    EagerEmission e;
    e.rail = rail;
    e.pieces.push_back({send, 0, send->len});
    schedule.emissions.push_back(std::move(e));
  }
  return schedule;
}

strategy::SplitResult GreedyBalance::plan_rendezvous(const StrategyContext& ctx,
                                                     std::size_t len) {
  // First idle rail, else the one freeing up soonest.
  RailId best = 0;
  SimTime best_busy = kSimTimeNever;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    const SimTime b = ctx.rail_busy_until(r);
    if (b < best_busy) {
      best_busy = b;
      best = r;
    }
  }
  strategy::SplitResult result;
  result.chunks = {{best, 0, len}};
  return result;
}

// ---------------------------------------------------------------------------
// AggregateFastest
// ---------------------------------------------------------------------------

EagerSchedule AggregateFastest::plan_eager(const StrategyContext& ctx,
                                           std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;

  // Fastest available rail for the aggregate, by sampled prediction.
  RailId best = 0;
  SimTime best_done = kSimTimeNever;
  bool any_idle = false;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r) || !ctx.nics[r]->idle(ctx.now)) continue;
    any_idle = true;
    const SimTime done = eager_completion(ctx, r, total);
    if (done < best_done) {
      best_done = done;
      best = r;
    }
  }
  if (!any_idle) return schedule;  // keep aggregating until a NIC frees up
  pack_onto_rail(ctx, best, pending, schedule);
  return schedule;
}

strategy::SplitResult AggregateFastest::plan_rendezvous(const StrategyContext& ctx,
                                                        std::size_t len) {
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, rdv_chunk_table);
  const std::size_t best = strategy::best_single_rail(rails, len);
  strategy::SplitResult result;
  result.chunks = {{rails[best].rail, 0, len}};
  result.makespan = strategy::single_rail_time(rails[best], len);
  return result;
}

// ---------------------------------------------------------------------------
// PatientAggregate
// ---------------------------------------------------------------------------

EagerSchedule PatientAggregate::plan_eager(const StrategyContext& ctx,
                                           std::span<const SendRequest* const> pending) {
  EagerSchedule schedule;
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;

  // Best predicted completion over every rail, busy offsets included.
  RailId best = 0;
  SimTime best_done = kSimTimeNever;
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    const SimTime done = eager_completion(ctx, r, total);
    if (done < best_done) {
      best_done = done;
      best = r;
    }
  }
  // "delaying a transfer while some NICs that especially fit the considered
  // transfer are busy": if the winner is busy, wait for it.
  if (!ctx.nics[best]->idle(ctx.now)) return schedule;
  pack_onto_rail(ctx, best, pending, schedule);
  return schedule;
}

// ---------------------------------------------------------------------------
// IsoSplit
// ---------------------------------------------------------------------------

strategy::SplitResult IsoSplit::plan_rendezvous(const StrategyContext& ctx,
                                                std::size_t len) {
  strategy::SplitResult result;
  const std::vector<RailId> rails = usable_rails(ctx);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const std::size_t bytes =
        i + 1 < rails.size() ? len / rails.size() : len - offset;
    if (bytes == 0) continue;
    result.chunks.push_back({rails[i], offset, bytes});
    offset += bytes;
  }
  return result;
}

// ---------------------------------------------------------------------------
// FixedRatioSplit
// ---------------------------------------------------------------------------

strategy::SplitResult FixedRatioSplit::plan_rendezvous(const StrategyContext& ctx,
                                                       std::size_t len) {
  // "OpenMPI computes a ratio by comparing the maximum available bandwidth
  // of each network" — size- and state-independent.
  const std::vector<RailId> rails = usable_rails(ctx);
  std::vector<double> bw(rails.size());
  double sum = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    bw[i] = ctx.estimator->profile(rails[i]).rdv_chunk.asymptotic_bandwidth();
    sum += bw[i];
  }
  RAILS_CHECK(sum > 0);
  strategy::SplitResult result;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const std::size_t bytes =
        i + 1 < rails.size()
            ? static_cast<std::size_t>(static_cast<double>(len) * bw[i] / sum)
            : len - offset;
    if (bytes == 0) continue;
    result.chunks.push_back({rails[i], offset, bytes});
    offset += bytes;
  }
  return result;
}

// ---------------------------------------------------------------------------
// HeteroSplit
// ---------------------------------------------------------------------------

strategy::SplitResult HeteroSplit::plan_rendezvous(const StrategyContext& ctx,
                                                   std::size_t len) {
  if (ctx.trust_compromised) {
    // Some usable rail's profile is UNTRUSTED (or mid-resample): feeding the
    // equal-finish solver numbers known to be wrong is worse than splitting
    // blind, so fall back to knowledge-free iso weighting until the
    // recalibration layer restores trust.
    IsoSplit iso;
    return iso.plan_rendezvous(ctx, len);
  }
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, rdv_chunk_table);
  return strategy::solve_equal_finish(rails, len);
}

// ---------------------------------------------------------------------------
// MulticoreHeteroSplit
// ---------------------------------------------------------------------------

EagerSchedule MulticoreHeteroSplit::plan_eager(const StrategyContext& ctx,
                                               std::span<const SendRequest* const> pending) {
  // Aggregation remains the right call for batches of tiny packets; the
  // multicore parallel submission targets a single medium eager message
  // (§III-D: "this mechanism appears to be useful to send medium-sized
  // eager messages").
  if (pending.size() != 1 || ctx.rail_count() < 2) {
    return AggregateFastest::plan_eager(ctx, pending);
  }
  const SendRequest* send = pending.front();
  if (send->len < ctx.config->offload.min_split_size) {
    return AggregateFastest::plan_eager(ctx, pending);
  }

  // Cores available for remote submission, nearest first (the scheduler
  // core is excluded: every chunk is handed to a remote core, Fig. 7).
  idle_remote_cores(ctx, idle_cores_);
  std::vector<strategy::ProfileCost> costs;
  const auto rails = solver_rails(ctx, costs, eager_table);
  const strategy::EagerPlan plan = strategy::plan_eager(
      rails, send->len, static_cast<unsigned>(idle_cores_.size()), ctx.config->offload);
  if (!plan.split) return AggregateFastest::plan_eager(ctx, pending);

  // One distinct idle core per chunk.
  RAILS_CHECK_MSG(idle_cores_.size() >= plan.chunks.size(),
                  "offload planned without an idle remote core");
  EagerSchedule schedule;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    EagerEmission& e = schedule.emissions.emplace_back();
    e.rail = plan.chunks[i].rail;
    e.offload_core = idle_cores_[i];
    e.pieces.push_back({send, plan.chunks[i].offset, plan.chunks[i].bytes});
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// BatchSpread
// ---------------------------------------------------------------------------

EagerSchedule BatchSpread::plan_eager(const StrategyContext& ctx,
                                      std::span<const SendRequest* const> pending) {
  // A single message is the multicore-split case; a batch is ours.
  if (pending.size() < 2) return MulticoreHeteroSplit::plan_eager(ctx, pending);

  // Candidate rails: idle ones. Candidate cores: idle remote cores.
  idle_rails_.clear();
  for (RailId r = 0; r < ctx.rail_count(); ++r) {
    if (ctx.rail_usable(r) && ctx.nics[r]->idle(ctx.now)) idle_rails_.push_back(r);
  }
  idle_remote_cores(ctx, idle_cores_);
  const std::size_t bins =
      std::min({idle_rails_.size(), idle_cores_.size(), pending.size()});
  if (bins < 2) return AggregateFastest::plan_eager(ctx, pending);

  // Rank the idle rails by eager speed for an average-sized aggregate and
  // keep the `bins` fastest.
  std::size_t total = 0;
  for (const SendRequest* send : pending) total += send->len;
  std::sort(idle_rails_.begin(), idle_rails_.end(), [&](RailId a, RailId b) {
    return ctx.estimator->duration(a, total / bins, fabric::Protocol::kEager) <
           ctx.estimator->duration(b, total / bins, fabric::Protocol::kEager);
  });
  idle_rails_.resize(bins);

  // LPT partition: longest message first onto the bin with the earliest
  // predicted finish (per-rail curves make the bins speed-aware).
  order_.assign(pending.begin(), pending.end());
  std::sort(order_.begin(), order_.end(),
            [](const SendRequest* a, const SendRequest* b) { return a->len > b->len; });
  bin_bytes_.assign(bins, 0);
  if (bin_sends_.size() < bins) bin_sends_.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) bin_sends_[b].clear();
  for (const SendRequest* send : order_) {
    std::size_t best = 0;
    SimDuration best_time = kSimTimeNever;
    for (std::size_t b = 0; b < bins; ++b) {
      const SimDuration t = ctx.estimator->duration(
          idle_rails_[b], bin_bytes_[b] + send->len, fabric::Protocol::kEager);
      if (t < best_time) {
        best_time = t;
        best = b;
      }
    }
    bin_bytes_[best] += send->len;
    bin_sends_[best].push_back(send);
  }

  // Predict: parallel spread (TO + slowest bin) vs one aggregated segment on
  // the fastest rail from the scheduler core.
  SimDuration spread_time = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_sends_[b].empty()) continue;
    spread_time = std::max(spread_time, ctx.estimator->duration(
                                            idle_rails_[b], bin_bytes_[b],
                                            fabric::Protocol::kEager));
  }
  spread_time += ctx.config->offload.signal_cost;
  SimDuration aggregate_time = kSimTimeNever;
  for (RailId r : idle_rails_) {
    aggregate_time = std::min(
        aggregate_time, ctx.estimator->duration(r, total, fabric::Protocol::kEager));
  }
  if (aggregate_time <= spread_time) {
    return AggregateFastest::plan_eager(ctx, pending);
  }

  // Emit one aggregated segment per bin, each from its own idle core. The
  // original submission order is preserved inside every bin (LPT only
  // decides placement; ordering within a rail follows the pack list).
  EagerSchedule schedule;
  for (std::size_t b = 0; b < bins; ++b) {
    const std::vector<const SendRequest*>& bin = bin_sends_[b];
    if (bin.empty()) continue;
    in_order_.clear();
    for (const SendRequest* send : pending) {
      if (std::find(bin.begin(), bin.end(), send) != bin.end()) in_order_.push_back(send);
    }
    const std::size_t first = schedule.emissions.size();
    pack_onto_rail(ctx, idle_rails_[b], in_order_, schedule);
    for (std::size_t e = first; e < schedule.emissions.size(); ++e) {
      schedule.emissions[e].offload_core = idle_cores_[b];
    }
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name.rfind("single-rail:", 0) == 0) {
    const RailId rail = static_cast<RailId>(std::stoul(name.substr(12)));
    return std::make_unique<SingleRail>(rail);
  }
  if (name == "greedy-balance") return std::make_unique<GreedyBalance>();
  if (name == "aggregate-fastest") return std::make_unique<AggregateFastest>();
  if (name == "patient-aggregate") return std::make_unique<PatientAggregate>();
  if (name == "iso-split") return std::make_unique<IsoSplit>();
  if (name == "fixed-ratio-split") return std::make_unique<FixedRatioSplit>();
  if (name == "hetero-split") return std::make_unique<HeteroSplit>();
  if (name == "multicore-hetero-split") return std::make_unique<MulticoreHeteroSplit>();
  if (name == "batch-spread") return std::make_unique<BatchSpread>();
  RAILS_CHECK_MSG(false, "unknown strategy name");
  return nullptr;
}

}  // namespace rails::core

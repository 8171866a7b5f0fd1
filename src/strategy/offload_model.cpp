#include "strategy/offload_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rails::strategy {

SimDuration parallel_eager_time(std::span<const SolverRail> rails,
                                std::span<const Chunk> chunks, SimDuration signal_cost) {
  SimDuration worst = 0;
  for (const Chunk& c : chunks) {
    const SolverRail* rail = nullptr;
    for (const auto& r : rails) {
      if (r.rail == c.rail) rail = &r;
    }
    RAILS_CHECK_MSG(rail != nullptr, "chunk references an unknown rail");
    worst = std::max(worst, rail->ready_offset + rail->cost->duration(c.bytes));
  }
  return signal_cost + worst;
}

EagerPlan plan_eager(std::span<const SolverRail> rails, std::size_t size,
                     unsigned idle_cores, const OffloadConfig& config, bool preempt) {
  RAILS_CHECK(!rails.empty());
  RAILS_CHECK(size > 0);

  EagerPlan plan;
  const std::size_t best = best_single_rail(rails, size);
  plan.single_rail_predicted = single_rail_time(rails[best], size);

  // Fallback plan: whole message on the best rail, submitted locally.
  plan.split = false;
  plan.chunks = {{rails[best].rail, 0, size}};
  plan.predicted = plan.single_rail_predicted;

  // "the strategy splits the data in min{number of idle NICs, number of
  // idle cores} chunks at most" — each remote chunk needs its own core.
  const unsigned max_chunks = std::min<unsigned>(static_cast<unsigned>(rails.size()),
                                                 idle_cores);
  if (max_chunks < 2 || size < config.min_split_size) return plan;

  SplitResult split = solve_equal_finish(rails, size);
  if (split.chunks.size() < 2) return plan;
  if (split.chunks.size() > max_chunks) {
    // Keep the `max_chunks` fastest rails and re-solve over that subset.
    ChunkVector sorted = split.chunks;
    std::sort(sorted.begin(), sorted.end(),
              [](const Chunk& a, const Chunk& b) { return a.bytes > b.bytes; });
    PlanVector<SolverRail> subset;
    for (unsigned i = 0; i < max_chunks; ++i) {
      for (const auto& r : rails) {
        if (r.rail == sorted[i].rail) subset.push_back(r);
      }
    }
    split = solve_equal_finish(subset, size);
    if (split.chunks.size() < 2) return plan;
  }

  const SimDuration to = preempt ? config.preempt_cost : config.signal_cost;
  const SimDuration parallel = parallel_eager_time(rails, split.chunks, to);
  if (parallel < plan.single_rail_predicted) {
    plan.split = true;
    plan.chunks = std::move(split.chunks);
    plan.predicted = parallel;
  }
  return plan;
}

}  // namespace rails::strategy

// Measurement instruments of the benchmark: host clocks, the in-memory span
// log of a traced run, and the two wrappers that observe the strategy layer
// from outside the engine.
//
// Everything here sits in the benchmark's own files and reaches the engine
// only through public API: the decorator is installed with
// Engine::set_strategy, and the counting cost replays the public
// strategy::solve_equal_finish. An untraced pass installs none of it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/strategy_iface.hpp"
#include "sampling/estimator.hpp"
#include "strategy/rail_cost.hpp"

namespace railbench {

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();
/// Monotonic wall clock in nanoseconds (span timestamps).
std::uint64_t steady_ns();

/// Thread CPU time of a region that may be paused around harness work
/// (payload checks), so only engine and simulator work is counted.
class CpuStopwatch {
 public:
  void start() { started_ = thread_cpu_ns(); }
  void stop() { total_ += thread_cpu_ns() - started_; }
  double seconds() const { return static_cast<double>(total_) * 1e-9; }

 private:
  std::uint64_t started_ = 0;
  std::uint64_t total_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

enum class SpanKind : std::uint8_t { kIsend, kIrecv, kWait, kPlanEager, kPlanRdv };
const char* span_name(SpanKind kind);

/// One timed call. `msg` is the benchmark's message index (shared by the
/// isend, irecv and wait spans of one message; -1 when the call serves no
/// single message). `parent` indexes the span open when this one started —
/// a strategy call's parent is the wait (or isend) that drove it.
struct Span {
  SpanKind kind = SpanKind::kIsend;
  std::int64_t msg = -1;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Inputs of one plan_rendezvous call, kept for the counting replay.
struct RdvCall {
  std::size_t len = 0;
  std::vector<rails::strategy::SolverRail> rails;  ///< `cost` unset; filled at replay
  std::vector<double> penalty;                     ///< trust penalty per entry of `rails`
  std::vector<rails::strategy::Chunk> chunks;      ///< what the strategy returned
};

/// In-memory record of a traced pass. Spans are appended while the engine
/// runs and written out only when the benchmark ends.
class TraceLog {
 public:
  explicit TraceLog(std::size_t reserve_spans);

  /// Opens a span; returns its index for close().
  std::size_t open(SpanKind kind, std::int64_t msg);
  void close(std::size_t index);

  void note_plan_eager(bool empty) { eager_empty_ += empty ? 1 : 0; }
  /// Records a rendezvous plan. The first call copies every rail's
  /// rendezvous-chunk table, so the replay outlives the world.
  void note_rdv(RdvCall call, const rails::sampling::Estimator& estimator);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<RdvCall>& rdv_calls() const { return rdv_calls_; }
  const std::vector<rails::sampling::PerfProfile>& rdv_tables() const { return rdv_tables_; }
  std::uint64_t eager_empty() const { return eager_empty_; }
  /// Durations (ns) of every closed span of `kind`.
  std::vector<double> durations(SpanKind kind) const;
  std::uint64_t count(SpanKind kind) const;

  /// Writes the spans as JSON lines: {"name":...,"msg":...,"parent":...,
  /// "start_ns":...,"end_ns":...}.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<RdvCall> rdv_calls_;
  std::vector<rails::sampling::PerfProfile> rdv_tables_;  ///< per rail
  std::int64_t open_ = -1;
  std::uint64_t eager_empty_ = 0;
};

/// Strategy decorator: times every interrogation and records rendezvous
/// inputs, then returns the inner strategy's answer unchanged. It forwards
/// eager_plan_cacheable and control_rail, so the engine's decision cache and
/// control-rail choice behave exactly as with the bare strategy.
class TracingStrategy final : public rails::core::Strategy {
 public:
  TracingStrategy(std::unique_ptr<rails::core::Strategy> inner, TraceLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  rails::core::EagerSchedule plan_eager(
      const rails::core::StrategyContext& ctx,
      std::span<const rails::core::SendRequest* const> pending) override;
  rails::strategy::SplitResult plan_rendezvous(const rails::core::StrategyContext& ctx,
                                               std::size_t len) override;
  rails::RailId control_rail(const rails::core::StrategyContext& ctx) const override {
    return inner_->control_rail(ctx);
  }
  bool eager_plan_cacheable(
      const rails::core::StrategyContext& ctx,
      std::span<const rails::core::SendRequest* const> pending) const override {
    return inner_->eager_plan_cacheable(ctx, pending);
  }

 private:
  std::unique_ptr<rails::core::Strategy> inner_;
  TraceLog* log_;
};

/// RailCost wrapper that counts the queries a solver makes.
class CountingCost final : public rails::strategy::RailCost {
 public:
  explicit CountingCost(const rails::strategy::RailCost* inner) : inner_(inner) {}
  rails::SimDuration duration(std::size_t bytes) const override {
    ++queries_;
    return inner_->duration(bytes);
  }
  std::size_t max_bytes_within(rails::SimDuration budget) const override {
    ++queries_;
    return inner_->max_bytes_within(budget);
  }
  std::uint64_t queries() const { return queries_; }

 private:
  const rails::strategy::RailCost* inner_;
  mutable std::uint64_t queries_ = 0;
};

/// Result of replaying solve_equal_finish on recorded rendezvous inputs.
struct SolveReplay {
  std::vector<double> solve_ns;    ///< host time per solve
  std::uint64_t solves = 0;
  std::uint64_t cost_queries = 0;  ///< exact RailCost query count
  std::uint64_t iterations = 0;    ///< SplitResult::iterations summed
  std::uint64_t mismatches = 0;    ///< replays whose chunks differ from the call
};
SolveReplay replay_split_solves(const TraceLog& log);

}  // namespace railbench

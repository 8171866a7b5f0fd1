#include "instruments.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <ostream>

#include "strategy/split_solver.hpp"

namespace railbench {

using rails::core::EagerSchedule;
using rails::core::SendRequest;
using rails::core::StrategyContext;

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIsend: return "isend";
    case SpanKind::kIrecv: return "irecv";
    case SpanKind::kWait: return "wait";
    case SpanKind::kPlanEager: return "plan_eager";
    case SpanKind::kPlanRdv: return "plan_rendezvous";
  }
  return "?";
}

TraceLog::TraceLog(std::size_t reserve_spans) { spans_.reserve(reserve_spans); }

std::size_t TraceLog::open(SpanKind kind, std::int64_t msg) {
  spans_.push_back({kind, msg, open_, steady_ns(), 0});
  open_ = static_cast<std::int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void TraceLog::close(std::size_t index) {
  spans_[index].end_ns = steady_ns();
  open_ = spans_[index].parent;
}

std::vector<double> TraceLog::durations(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.kind == kind && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::uint64_t TraceLog::count(SpanKind kind) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_) n += s.kind == kind ? 1 : 0;
  return n;
}

void TraceLog::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << span_name(s.kind) << "\",\"msg\":" << s.msg
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

EagerSchedule TracingStrategy::plan_eager(const StrategyContext& ctx,
                                          std::span<const SendRequest* const> pending) {
  const std::size_t span = log_->open(SpanKind::kPlanEager, -1);
  EagerSchedule schedule = inner_->plan_eager(ctx, pending);
  log_->close(span);
  log_->note_plan_eager(schedule.empty());
  return schedule;
}

rails::strategy::SplitResult TracingStrategy::plan_rendezvous(const StrategyContext& ctx,
                                                              std::size_t len) {
  const std::size_t span = log_->open(SpanKind::kPlanRdv, -1);
  rails::strategy::SplitResult result = inner_->plan_rendezvous(ctx, len);
  log_->close(span);

  // The solver's inputs as the strategy saw them: the usable rails in
  // order, their busy offsets and trust penalties.
  RdvCall call;
  call.len = len;
  for (rails::RailId r = 0; r < ctx.rail_count(); ++r) {
    if (!ctx.rail_usable(r)) continue;
    call.rails.push_back({r, nullptr, ctx.rail_ready_offset(r)});
    call.penalty.push_back(ctx.rail_trust_penalty(r));
  }
  call.chunks = result.chunks;
  log_->note_rdv(std::move(call), *ctx.estimator);
  return result;
}

void TraceLog::note_rdv(RdvCall call, const rails::sampling::Estimator& estimator) {
  if (rdv_tables_.empty()) {
    for (rails::RailId r = 0; r < estimator.rail_count(); ++r) {
      rdv_tables_.push_back(estimator.profile(r).rdv_chunk);
    }
  }
  rdv_calls_.push_back(std::move(call));
}

SolveReplay replay_split_solves(const TraceLog& log) {
  const std::vector<RdvCall>& calls = log.rdv_calls();
  SolveReplay out;
  out.solve_ns.reserve(calls.size());
  std::vector<rails::strategy::ProfileCost> base;
  std::vector<CountingCost> counting;
  std::vector<rails::strategy::SolverRail> rails;
  for (const RdvCall& call : calls) {
    base.clear();
    counting.clear();
    rails = call.rails;
    base.reserve(rails.size());
    counting.reserve(rails.size());
    for (std::size_t i = 0; i < rails.size(); ++i) {
      base.emplace_back(&log.rdv_tables()[rails[i].rail], call.penalty[i]);
    }
    for (std::size_t i = 0; i < rails.size(); ++i) {
      counting.emplace_back(&base[i]);
      rails[i].cost = &counting[i];
    }
    const std::uint64_t t0 = steady_ns();
    const rails::strategy::SplitResult r = rails::strategy::solve_equal_finish(rails, call.len);
    out.solve_ns.push_back(static_cast<double>(steady_ns() - t0));
    ++out.solves;
    out.iterations += r.iterations;
    for (const CountingCost& c : counting) out.cost_queries += c.queries();
    bool same = r.chunks.size() == call.chunks.size();
    for (std::size_t i = 0; same && i < r.chunks.size(); ++i) {
      same = r.chunks[i].rail == call.chunks[i].rail &&
             r.chunks[i].offset == call.chunks[i].offset &&
             r.chunks[i].bytes == call.chunks[i].bytes;
    }
    out.mismatches += same ? 0 : 1;
  }
  return out;
}

}  // namespace railbench

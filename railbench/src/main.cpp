// railbench — the rails end-to-end benchmark.
//
//   railbench --workload <torus_eager|pair_rdv_open|pair_eager_burst|all>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// One process, one thread. Per workload it times World construction
// (setup_s), then runs passes of the seeded input set on fresh worlds until
// --seconds of wall time are used (at least one). Host rates use the thread
// CPU-time clock over the timed region of each pass and report the best
// pass (see best()); virtual metrics come from the first pass and must
// repeat exactly in every other one.
//
// --trace 0 reports the end-to-end metrics. --trace 1 interleaves untraced
// and traced passes (strategy decorator, timed isend/irecv/wait, profiler
// on) and reports the per-layer metrics; with --spans it writes the first
// traced pass's spans as JSON lines. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; metric lines before it are
// for people. README.md lists every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/strategies.hpp"
#include "instruments.hpp"
#include "perf/profiler.hpp"
#include "sampling/sampler.hpp"
#include "workloads.hpp"

namespace {

using railbench::PassResult;
using railbench::SpanKind;
using railbench::TraceLog;
using railbench::Workload;

constexpr int kSetupSamples = 20;
constexpr int kMinPasses = 1;
constexpr std::size_t kMinP99Samples = 1000;
constexpr std::size_t kPooledLogs = 4;
constexpr unsigned kCheckShrink = 10;  ///< input-set divisor of the seed check  ///< traced passes whose span durations are pooled

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Summary {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Interpolated percentile; 0 for no samples (a metric absent on a workload).
double percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  rails::SampleSet set;
  for (double x : v) set.add(x);
  return set.percentile(p);
}
double median(const std::vector<double>& v) { return percentile(v, 50.0); }
/// Host rates report the best pass: interference from other tenants of a
/// shared host only ever slows a pass down, and on such hosts whole runs
/// sit in a slow phase that moves the median by 15-25% while the best pass
/// stays within a few percent.
double best(const std::vector<double>& v) { return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()); }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What the traced passes' logs contribute to the per-layer metrics.
struct SpanTotals {
  std::vector<double> isend_ns, irecv_ns, eager_ns, rdv_ns;  ///< pooled durations
  double wait_ns = 0.0;
  std::uint64_t eager_calls = 0;
  std::uint64_t eager_empty = 0;
  std::uint64_t rdv_calls = 0;

  void add(const TraceLog& log, bool pool_durations) {
    for (const railbench::Span& s : log.spans()) {
      if (s.kind == SpanKind::kWait) wait_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    eager_calls += log.count(SpanKind::kPlanEager);
    rdv_calls += log.count(SpanKind::kPlanRdv);
    eager_empty += log.eager_empty();
    if (!pool_durations) return;
    for (auto [kind, out] : {std::pair{SpanKind::kIsend, &isend_ns}, {SpanKind::kIrecv, &irecv_ns},
                             {SpanKind::kPlanEager, &eager_ns}, {SpanKind::kPlanRdv, &rdv_ns}}) {
      const std::vector<double> d = log.durations(kind);
      out->insert(out->end(), d.begin(), d.end());
    }
  }
};

volatile rails::SimDuration g_estimate_sink = 0;

double wall_s() { return static_cast<double>(railbench::steady_ns()) * 1e-9; }

/// One pass on a freshly built world; its construction time is a set-up
/// sample. A traced pass wraps every engine's strategy in the decorator and
/// turns the cycle profiler on for the pass.
PassResult run_pass(Workload& wl, const rails::core::WorldConfig& cfg, TraceLog* trace,
                    std::vector<double>& setup_s, rails::perf::Snapshot* perf) {
  const std::uint64_t t0 = railbench::thread_cpu_ns();
  rails::core::World world(cfg);
  setup_s.push_back(static_cast<double>(railbench::thread_cpu_ns() - t0) * 1e-9);
  if (trace == nullptr) return wl.run(world, nullptr);

  for (rails::NodeId n = 0; n < world.fabric().node_count(); ++n) {
    world.engine(n).set_strategy(std::make_unique<railbench::TracingStrategy>(
        rails::core::make_strategy(cfg.strategy), trace));
  }
  rails::perf::Profiler::reset();
  rails::perf::Profiler::set_sample_every(1);
  rails::perf::Profiler::set_enabled(true);
  PassResult r = wl.run(world, trace);
  rails::perf::Profiler::set_enabled(false);
  const rails::perf::Snapshot snap = rails::perf::Profiler::snapshot();
  for (unsigned l = 0; l < rails::perf::kLayerCount; ++l) {
    perf->layers[l].self_cycles += snap.layers[l].self_cycles;
  }
  return r;
}

double host_rate(const PassResult& r) { return ratio(static_cast<double>(r.completed()), r.host_cpu_s); }

/// Start-up sampling cost and one estimator query, measured outside the
/// world so the sampling layer is seen on its own.
void sampling_metrics(const rails::core::WorldConfig& cfg, std::uint64_t seed,
                      std::vector<Metric>& out) {
  std::vector<double> sample_s;
  std::vector<rails::sampling::RailProfile> profiles;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::uint64_t t0 = railbench::thread_cpu_ns();
    profiles = rails::sampling::sample_rails(cfg.fabric.rails, cfg.sampler);
    sample_s.push_back(static_cast<double>(railbench::thread_cpu_ns() - t0) * 1e-9);
  }
  rails::Xoshiro256 rng(seed);
  std::vector<std::size_t> sizes(4096);
  for (auto& s : sizes) s = 1 + rng.below(1u << 20);
  const rails::sampling::PerfProfile& table = profiles.front().rdv_chunk;
  std::vector<double> per_call_ns;
  rails::SimDuration sink = 0;
  for (int batch = 0; batch < 15; ++batch) {
    const std::uint64_t t0 = railbench::thread_cpu_ns();
    for (std::size_t s : sizes) sink += table.estimate(s);
    per_call_ns.push_back(static_cast<double>(railbench::thread_cpu_ns() - t0) /
                          static_cast<double>(sizes.size()));
  }
  g_estimate_sink = sink;  // keeps the timed loop from being optimised away
  out.push_back({"sampling.sample_rails_s", median(sample_s), "s"});
  out.push_back({"sampling.estimate_ns", median(per_call_ns), "ns"});
}

Summary run_workload(const std::string& name, const Options& opt) {
  Summary sum;
  std::unique_ptr<Workload> wl = railbench::make_workload(name, opt.seed);
  const rails::core::WorldConfig cfg = wl->config();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::uint64_t t0 = railbench::thread_cpu_ns();
    rails::core::World world(cfg);
    setup_s.push_back(static_cast<double>(railbench::thread_cpu_ns() - t0) * 1e-9);
  }

  // Passes: untraced only, or untraced and traced interleaved. The first
  // traced pass's log is kept whole (spans file, solver replay); the others
  // are folded into `spans` and dropped, so memory stays flat.
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::unique_ptr<TraceLog> first_log;
  SpanTotals spans;
  rails::perf::Snapshot perf;
  const double start = wall_s();
  double longest = 0.0;
  while (true) {
    const bool enough = static_cast<int>(plain.size()) >= kMinPasses &&
                        (!opt.trace || static_cast<int>(traced.size()) >= kMinPasses);
    if (enough && wall_s() - start + longest > opt.seconds) break;
    const bool next_traced = opt.trace && traced.size() < plain.size();
    const double t0 = wall_s();
    if (next_traced) {
      auto log = std::make_unique<TraceLog>(wl->span_hint());
      traced.push_back(run_pass(*wl, cfg, log.get(), setup_s, &perf));
      std::vector<double>().swap(traced.back().latency_us);  // the fingerprint covers it
      spans.add(*log, traced.size() <= kPooledLogs);
      if (first_log == nullptr) first_log = std::move(log);
    } else {
      plain.push_back(run_pass(*wl, cfg, nullptr, setup_s, nullptr));
      if (plain.size() > 1) std::vector<double>().swap(plain.back().latency_us);
    }
    longest = std::max(longest, wall_s() - t0);
  }

  // Determinism: every pass, traced or not, replays the first one.
  const PassResult& ref = plain.front();
  bool deterministic = true;
  for (const auto* set : {&plain, &traced}) {
    for (const PassResult& r : *set) deterministic = deterministic && r.fingerprint == ref.fingerprint;
  }
  std::uint64_t corrupted = 0;
  for (const PassResult& r : plain) corrupted += r.corrupted;
  for (const PassResult& r : traced) corrupted += r.corrupted;
  sum.correct = deterministic && corrupted == 0;
  sum.attempted = ref.attempted;
  sum.failed = ref.failed;
  if (!deterministic) std::printf("# FAIL %s: passes of one seed diverged\n", name.c_str());
  if (corrupted != 0) {
    std::printf("# FAIL %s: %llu messages completed with wrong bytes\n", name.c_str(),
                static_cast<unsigned long long>(corrupted));
  }

  std::vector<double> rates;
  for (const PassResult& r : plain) rates.push_back(host_rate(r));
  std::printf("# host_msgs_per_s noise band over %zu passes: min %.6g  p25 %.6g  median %.6g  "
              "p75 %.6g  best %.6g\n",
              rates.size(), percentile(rates, 0), percentile(rates, 25), percentile(rates, 50),
              percentile(rates, 75), percentile(rates, 100));
  const double msgs = static_cast<double>(ref.attempted);
  const railbench::Counts& c = ref.counts;
  std::printf("# %s seed=%llu: %zu untraced + %zu traced passes, %llu msgs/pass, "
              "%zu latency samples back virt_p50_us/virt_p99_us%s\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(ref.attempted),
              ref.latency_us.size(),
              ref.latency_us.size() < kMinP99Samples ? " (too few for a p99)" : "");
  std::printf("# fault-free-quiet %s: chunk_timeouts=%llu quarantines=%llu failovers=%llu "
              "retries=%llu handler_spills=%llu\n",
              name.c_str(), static_cast<unsigned long long>(c.chunk_timeouts),
              static_cast<unsigned long long>(c.quarantines),
              static_cast<unsigned long long>(c.failovers),
              static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.handler_spills));

  if (!opt.trace) {
    const double virt_us = static_cast<double>(ref.virt_span) * 1e-3;
    sum.metrics = {
        {"host_msgs_per_s", best(rates), "1/s"},
        {"virt_p50_us", percentile(ref.latency_us, 50.0), "us"},
        {"virt_p99_us", percentile(ref.latency_us, 99.0), "us"},
        {"virt_goodput_mbps", ratio(static_cast<double>(ref.payload_bytes), virt_us), "MB/s"},
        {"delivered_ratio", 1.0 - ratio(static_cast<double>(ref.failed), msgs), "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mib", railbench::peak_rss_mib(), "MiB"},
    };
    return sum;
  }

  // A different seed must change the virtual outcome; checked on a shrunk
  // input set, where the same seed must still replay exactly.
  {
    std::vector<double> unused;
    std::unique_ptr<Workload> same = railbench::make_workload(name, opt.seed, kCheckShrink);
    std::unique_ptr<Workload> other = railbench::make_workload(name, opt.seed + 1, kCheckShrink);
    const PassResult a = run_pass(*same, cfg, nullptr, unused, nullptr);
    const PassResult a2 = run_pass(*same, cfg, nullptr, unused, nullptr);
    const PassResult b = run_pass(*other, cfg, nullptr, unused, nullptr);
    if (a.fingerprint != a2.fingerprint || a.fingerprint == b.fingerprint) {
      std::printf("# FAIL %s: seeds %llu and %llu %s\n", name.c_str(),
                  static_cast<unsigned long long>(opt.seed),
                  static_cast<unsigned long long>(opt.seed + 1),
                  a.fingerprint != a2.fingerprint ? "do not replay" : "replay the same schedule");
      sum.correct = false;
    }
  }

  // Per-layer metrics: exact counts from the reference pass, host times
  // from the traced passes (span durations of the first kPooledLogs).
  const railbench::SolveReplay replay = railbench::replay_split_solves(*first_log);
  if (replay.mismatches != 0) {
    std::printf("# note %s: %llu of %llu solver replays differ from the strategy's split\n",
                name.c_str(), static_cast<unsigned long long>(replay.mismatches),
                static_cast<unsigned long long>(replay.solves));
  }
  const double traced_msgs = msgs * static_cast<double>(traced.size());
  const double per_pass_eager =
      ratio(static_cast<double>(spans.eager_calls), static_cast<double>(traced.size()));
  const double plan_passes = static_cast<double>(c.cache_hits) + per_pass_eager;
  std::vector<double> ns_per_event, traced_rates;
  for (const PassResult& r : plain) {
    ns_per_event.push_back(ratio(r.host_cpu_s * 1e9, static_cast<double>(r.counts.events)));
  }
  const double fastest_ns_per_event =
      ns_per_event.empty() ? 0.0 : *std::min_element(ns_per_event.begin(), ns_per_event.end());
  for (const PassResult& r : traced) traced_rates.push_back(host_rate(r));
  std::uint64_t payload_total = 0;
  for (std::uint64_t v : c.rail_payload) payload_total += v;
  const double plain_rate = best(rates);

  std::vector<Metric>& m = sum.metrics;
  m.push_back({"fabric.events_per_msg", ratio(static_cast<double>(c.events), msgs), "events/msg"});
  m.push_back({"fabric.host_ns_per_event", fastest_ns_per_event, "ns"});
  m.push_back({"fabric.forwarded_per_msg", ratio(static_cast<double>(c.forwarded), msgs), "segs/msg"});
  m.push_back({"fabric.shard_switch_ratio",
               ratio(static_cast<double>(c.shard_switches), static_cast<double>(c.events)), "ratio"});
  m.push_back({"fabric.handler_spills", static_cast<double>(c.handler_spills), "count"});
  for (std::size_t r = 0; r < 2; ++r) {
    const double share = r < c.rail_payload.size()
                             ? ratio(static_cast<double>(c.rail_payload[r]),
                                     static_cast<double>(payload_total))
                             : 0.0;
    m.push_back({"fabric.rail_payload_share." + std::to_string(r), share, "ratio"});
  }
  m.push_back({"core.plan_passes_per_msg", ratio(plan_passes, msgs), "passes/msg"});
  m.push_back({"core.segments_per_plan_pass",
               ratio(static_cast<double>(c.eager_segments), plan_passes), "segs/pass"});
  m.push_back({"core.strategy_cache_hit_ratio",
               ratio(static_cast<double>(c.cache_hits), plan_passes), "ratio"});
  m.push_back({"core.isend_ns_p50", median(spans.isend_ns), "ns"});
  m.push_back({"core.irecv_ns_p50", median(spans.irecv_ns), "ns"});
  m.push_back({"core.wait_ns_per_msg", ratio(spans.wait_ns, traced_msgs), "ns"});
  m.push_back({"core.allocs_per_msg",
               ratio(static_cast<double>(plain.back().allocs), msgs), "allocs/msg"});
  m.push_back({"core.chunk_timeouts", static_cast<double>(c.chunk_timeouts), "count"});
  m.push_back({"core.quarantines", static_cast<double>(c.quarantines), "count"});
  m.push_back({"core.failovers", static_cast<double>(c.failovers), "count"});
  m.push_back({"core.retries", static_cast<double>(c.retries), "count"});
  m.push_back({"strategy.plan_eager_calls_per_msg", ratio(per_pass_eager, msgs), "calls/msg"});
  m.push_back({"strategy.plan_eager_ns_p50", median(spans.eager_ns), "ns"});
  m.push_back({"strategy.plan_eager_empty_ratio",
               ratio(static_cast<double>(spans.eager_empty), static_cast<double>(spans.eager_calls)), "ratio"});
  m.push_back({"strategy.plan_rdv_calls_per_msg",
               ratio(static_cast<double>(spans.rdv_calls), traced_msgs), "calls/msg"});
  m.push_back({"strategy.plan_rdv_ns_p50", median(spans.rdv_ns), "ns"});
  m.push_back({"strategy.plan_rdv_ns_p99", percentile(spans.rdv_ns, 99.0), "ns"});
  m.push_back({"strategy.split_solve_ns_p50", median(replay.solve_ns), "ns"});
  m.push_back({"strategy.split_cost_queries_per_solve",
               ratio(static_cast<double>(replay.cost_queries), static_cast<double>(replay.solves)),
               "queries"});
  m.push_back({"strategy.split_iterations_per_solve",
               ratio(static_cast<double>(replay.iterations), static_cast<double>(replay.solves)),
               "iterations"});
  sampling_metrics(cfg, opt.seed, m);
  const double total_cycles = static_cast<double>(perf.total_self_cycles());
  for (rails::perf::Layer layer : {rails::perf::Layer::kSubmit, rails::perf::Layer::kStrategy,
                                   rails::perf::Layer::kEmit, rails::perf::Layer::kCompletion}) {
    const auto l = static_cast<unsigned>(layer);
    m.push_back({std::string("perf.") + rails::perf::layer_name(layer) + ".self_share",
                 ratio(static_cast<double>(perf.layers[l].self_cycles), total_cycles), "ratio"});
  }
  m.push_back({"trace.overhead_pct",
               100.0 * ratio(plain_rate - best(traced_rates), plain_rate), "%"});

  if (!opt.spans.empty()) {
    std::ofstream out(opt.spans);
    first_log->write_jsonl(out);
    if (!out) std::fprintf(stderr, "railbench: cannot write %s\n", opt.spans.c_str());
  }
  return sum;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_summary(const Summary& s, const std::string& prefix) {
  for (const Metric& m : s.metrics) {
    std::printf("%s%-40s %18.6f %s\n", prefix.c_str(), m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string summary_json(const Summary& s) {
  std::ostringstream os;
  os << "{\"correct\": " << (s.correct ? "true" : "false") << ", \"attempted\": " << s.attempted
     << ", \"failed\": " << s.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const Metric& m = s.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0.0) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (arg == "--spans") {
      opt.spans = val;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: railbench --workload <name|all> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  std::vector<std::string> names;
  if (opt.workload == "all") {
    names = railbench::workload_names();
  } else if (std::count(railbench::workload_names().begin(),
                        railbench::workload_names().end(), opt.workload) == 1) {
    names = {opt.workload};
  } else {
    std::fprintf(stderr, "railbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  Summary total;
  for (const std::string& name : names) {
    Summary s = run_workload(name, opt);
    print_summary(s, names.size() > 1 ? name + "." : "");
    total.correct = total.correct && s.correct;
    total.attempted += s.attempted;
    total.failed += s.failed;
    for (Metric& m : s.metrics) {
      if (names.size() > 1) m.name = name + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  std::fflush(stdout);
  std::cout << summary_json(total) << std::endl;
  return 0;
}

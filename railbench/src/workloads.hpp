// The benchmark's three seeded workloads (see README.md for why each exists).
//
// A workload generates its whole input set from the seed at construction;
// the engine receives only the generated sends. One pass runs that input set
// to completion on a freshly built World, so every pass of a seed replays
// the same virtual schedule — the determinism check compares them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "instruments.hpp"

namespace railbench {

/// Exact, host-independent counts of one pass (deltas over the pass).
struct Counts {
  std::uint64_t events = 0;          ///< EventQueue::processed()
  std::uint64_t forwarded = 0;       ///< Fabric::forwarded_segments()
  std::uint64_t shard_switches = 0;  ///< EventQueue::shard_switches()
  std::uint64_t handler_spills = 0;  ///< EventQueue::handler_spills()
  std::uint64_t eager_segments = 0;  ///< EngineStats, summed over engines
  std::uint64_t rdv_chunks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t chunk_timeouts = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
  std::vector<std::uint64_t> rail_payload;  ///< Fabric::delivered_payload
};

/// What one pass measured.
struct PassResult {
  std::uint64_t attempted = 0;  ///< messages submitted
  /// Messages whose send failed or was rejected, whose receive did not
  /// complete, or whose received bytes differ from what was sent.
  std::uint64_t failed = 0;
  /// Of `failed`: both requests reached kDone but the bytes differ.
  std::uint64_t corrupted = 0;
  std::vector<double> latency_us;  ///< virtual, per completed message
  std::uint64_t payload_bytes = 0; ///< bytes of completed messages
  /// Sum over the pass's windows of first due time to last completion.
  rails::SimDuration virt_span = 0;
  double host_cpu_s = 0.0;         ///< thread CPU time of the timed region
  std::uint64_t allocs = 0;        ///< operator-new calls in the timed region
  Counts counts;
  /// Hash of every completion time, latency and exact count: equal passes
  /// replayed the same virtual schedule.
  std::uint64_t fingerprint = 0;

  std::uint64_t completed() const { return attempted - failed; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual rails::core::WorldConfig config() const = 0;
  /// Runs the whole input set on `world` (freshly constructed from
  /// config()). With `trace` set, times every isend/irecv/wait call into it;
  /// the caller installs the strategy decorator.
  virtual PassResult run(rails::core::World& world, TraceLog* trace) = 0;
  /// Upper bound on spans one traced pass records (for reservation).
  virtual std::size_t span_hint() const = 0;
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();
/// nullptr for an unknown name. `shrink` > 1 divides the input set (rounds,
/// trials or messages per flow) for the cheap seed check; 1 is the benchmark.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        unsigned shrink = 1);

}  // namespace railbench

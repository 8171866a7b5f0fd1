#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "fabric/presets.hpp"
#include "perf/profiler.hpp"
#include "topo/topology.hpp"

namespace railbench {

using rails::NodeId;
using rails::SimDuration;
using rails::SimTime;
using rails::Tag;
using rails::Xoshiro256;
using rails::core::RecvHandle;
using rails::core::SendHandle;
using rails::core::World;

namespace {

/// Seeded random bytes. A message's payload is the slice starting at its
/// own seeded offset, so every message carries a distinct pattern without
/// a copy per message; receives are byte-compared against that slice.
class PayloadPool {
 public:
  static constexpr std::size_t kSpan = 1u << 20;  ///< offsets are drawn below this

  PayloadPool(std::uint64_t seed, std::size_t max_len) : bytes_(kSpan + max_len) {
    Xoshiro256 rng(seed ^ 0x70a7'10adULL);
    for (std::size_t i = 0; i < bytes_.size(); i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(bytes_.data() + i, &word, std::min<std::size_t>(8, bytes_.size() - i));
    }
  }
  const std::uint8_t* at(std::uint32_t offset) const { return bytes_.data() + offset; }
  static std::uint32_t draw(Xoshiro256& rng) {
    return static_cast<std::uint32_t>(rng.below(kSpan));
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

std::size_t log_uniform(Xoshiro256& rng, std::size_t lo, std::size_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi));
  const auto v = static_cast<std::size_t>(std::exp(l + rng.uniform() * (h - l)));
  return std::clamp(v, lo, hi);
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;  // FNV-1a
}

Counts snapshot(World& world) {
  Counts c;
  auto& fabric = world.fabric();
  c.events = fabric.events().processed();
  c.forwarded = fabric.forwarded_segments();
  c.shard_switches = fabric.events().shard_switches();
  c.handler_spills = fabric.events().handler_spills();
  for (NodeId n = 0; n < fabric.node_count(); ++n) {
    const rails::core::EngineStats& s = world.engine(n).stats();
    c.eager_segments += s.eager_segments;
    c.rdv_chunks += s.rdv_chunks;
    c.cache_hits += s.strategy_cache_hits;
    c.cache_misses += s.strategy_cache_misses;
    c.chunk_timeouts += s.chunk_timeouts;
    c.quarantines += s.quarantines;
    c.failovers += s.failovers;
    c.retries += s.retries;
  }
  for (rails::RailId r = 0; r < fabric.rail_count(); ++r) {
    c.rail_payload.push_back(fabric.delivered_payload(r));
  }
  return c;
}

Counts delta(const Counts& a, const Counts& b) {
  Counts d;
  d.events = b.events - a.events;
  d.forwarded = b.forwarded - a.forwarded;
  d.shard_switches = b.shard_switches - a.shard_switches;
  d.handler_spills = b.handler_spills - a.handler_spills;
  d.eager_segments = b.eager_segments - a.eager_segments;
  d.rdv_chunks = b.rdv_chunks - a.rdv_chunks;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.chunk_timeouts = b.chunk_timeouts - a.chunk_timeouts;
  d.quarantines = b.quarantines - a.quarantines;
  d.failovers = b.failovers - a.failovers;
  d.retries = b.retries - a.retries;
  for (std::size_t r = 0; r < b.rail_payload.size(); ++r) {
    d.rail_payload.push_back(b.rail_payload[r] - a.rail_payload[r]);
  }
  return d;
}

/// Drives one pass: the timed calls into the engine, the CPU clock that
/// excludes harness work, and the per-message bookkeeping.
class PassRunner {
 public:
  PassRunner(World& world, TraceLog* trace)
      : world_(world), trace_(trace), before_(snapshot(world)) {}

  /// Timed region on/off. Payload checks and buffer set-up run paused.
  void resume() {
    clock_.start();
    alloc_mark_ = rails::perf::t_alloc_count;
  }
  void pause() {
    clock_.stop();
    result_.allocs += rails::perf::t_alloc_count - alloc_mark_;
  }

  RecvHandle irecv(NodeId at, NodeId src, Tag tag, std::uint8_t* buf, std::size_t len,
                   std::int64_t msg) {
    if (trace_ == nullptr) return world_.engine(at).irecv(src, tag, buf, len);
    const std::size_t span = trace_->open(SpanKind::kIrecv, msg);
    RecvHandle r = world_.engine(at).irecv(src, tag, buf, len);
    trace_->close(span);
    return r;
  }

  SendHandle isend(NodeId at, NodeId dst, Tag tag, const std::uint8_t* data,
                   std::size_t len, std::int64_t msg) {
    ++result_.attempted;
    if (trace_ == nullptr) return world_.engine(at).isend(dst, tag, data, len);
    const std::size_t span = trace_->open(SpanKind::kIsend, msg);
    SendHandle s = world_.engine(at).isend(dst, tag, data, len);
    trace_->close(span);
    return s;
  }

  /// Runs fabric events until the message is settled: the receive is done
  /// or the send failed, then the send is done or failed. Unlike
  /// World::wait this never aborts, so a lost message is counted instead of
  /// ending the run. Handles may still be empty on entry (open-loop sends
  /// are posted by a fabric event at their due time).
  void wait(const RecvHandle& recv, const SendHandle& send, std::int64_t msg) {
    const std::size_t span = trace_ != nullptr ? trace_->open(SpanKind::kWait, msg) : 0;
    auto& q = world_.fabric().events();
    q.run_until([&] { return recv && send && (recv->done() || send->failed()); });
    q.run_until([&] { return !send || send->done() || send->failed(); });
    if (trace_ != nullptr) trace_->close(span);
  }

  /// Checks one message (untimed) and records its virtual latency from
  /// `due`. Returns true when both requests reached kDone and the received
  /// bytes equal the sent ones.
  bool settle(const RecvHandle& recv, const SendHandle& send, SimTime due,
              const std::uint8_t* expect, const std::uint8_t* got, std::size_t len) {
    const bool done = recv && send && recv->done() && send->done();
    const bool intact = done && recv->bytes_received == len &&
                        std::memcmp(expect, got, len) == 0;
    mix(fingerprint_, done ? static_cast<std::uint64_t>(recv->complete_time) : ~0ull);
    mix(fingerprint_, done ? static_cast<std::uint64_t>(send->complete_time) : ~0ull);
    if (!intact) {
      ++result_.failed;
      if (done) ++result_.corrupted;
      return false;
    }
    result_.latency_us.push_back(rails::to_usec(recv->complete_time - due));
    result_.payload_bytes += len;
    first_due_ = std::min(first_due_, due);
    last_done_ = std::max(last_done_, recv->complete_time);
    return true;
  }

  /// Adds the virtual span of the messages settled since the last call
  /// (first due time to last completion) to the pass's span.
  void close_window() {
    if (last_done_ > first_due_) result_.virt_span += last_done_ - first_due_;
    first_due_ = std::numeric_limits<SimTime>::max();
    last_done_ = 0;
  }

  /// Drains the leftover events (timers the engine armed) inside the timed
  /// region and closes the pass.
  PassResult finish() {
    resume();
    world_.fabric().events().run_all();
    pause();
    result_.host_cpu_s = clock_.seconds();
    result_.counts = delta(before_, snapshot(world_));
    close_window();
    const Counts& c = result_.counts;
    for (std::uint64_t v : {c.events, c.forwarded, c.shard_switches, c.handler_spills,
                            c.eager_segments, c.rdv_chunks, c.cache_hits, c.cache_misses,
                            c.chunk_timeouts, c.quarantines, c.failovers, c.retries,
                            result_.attempted, result_.failed, result_.corrupted}) {
      mix(fingerprint_, v);
    }
    for (std::uint64_t v : c.rail_payload) mix(fingerprint_, v);
    result_.fingerprint = fingerprint_;
    return std::move(result_);
  }

 private:
  World& world_;
  TraceLog* trace_;
  Counts before_;
  CpuStopwatch clock_;
  std::uint64_t alloc_mark_ = 0;
  PassResult result_;
  std::uint64_t fingerprint_ = 1469598103934665603ull;
  SimTime first_due_ = std::numeric_limits<SimTime>::max();
  SimTime last_done_ = 0;
};

// ---------------------------------------------------------------------------
// torus_eager: 16x16 torus, 2 SeaStar rails, sharded event queue. Closed
// loop per round: every node sends 2 KiB to 8 distinct seeded peers; the
// next round starts when all 2,048 messages completed. A round's messages
// are due at its start, but each node enters the round at a seeded offset of
// up to one post time (nodes do not run in lockstep). Latency counts from
// the round start, so it includes that entry offset; without it, virtual
// latencies collapse onto a few hop-count values that no seed moves.
// ---------------------------------------------------------------------------
class TorusEager final : public Workload {
 public:
  static constexpr unsigned kSide = 16;
  static constexpr unsigned kNodes = kSide * kSide;
  static constexpr unsigned kPeers = 8;
  static constexpr unsigned kPerRound = kNodes * kPeers;
  static constexpr unsigned kRounds = 8;
  static constexpr std::size_t kSize = 2048;
  static constexpr SimDuration kEntrySpreadNs = 4000;  ///< one SeaStar post time

  TorusEager(std::uint64_t seed, unsigned shrink)
      : rounds_(std::max(1u, kRounds / shrink)), pool_(seed, kSize) {
    Xoshiro256 rng(seed);
    msgs_.reserve(static_cast<std::size_t>(rounds_) * kPerRound);
    entry_.reserve(static_cast<std::size_t>(rounds_) * kNodes);
    std::vector<NodeId> others;
    for (unsigned round = 0; round < rounds_; ++round) {
      for (NodeId src = 0; src < kNodes; ++src) {
        entry_.push_back(static_cast<SimDuration>(rng.below(kEntrySpreadNs)));
        others.clear();
        for (NodeId n = 0; n < kNodes; ++n) {
          if (n != src) others.push_back(n);
        }
        for (unsigned k = 0; k < kPeers; ++k) {  // partial Fisher-Yates
          std::swap(others[k], others[k + rng.below(others.size() - k)]);
          msgs_.push_back({src, others[k], PayloadPool::draw(rng)});
        }
      }
    }
  }

  rails::core::WorldConfig config() const override {
    rails::core::WorldConfig cfg;
    cfg.fabric.node_count = kNodes;
    cfg.fabric.rails = {rails::fabric::seastar_torus(), rails::fabric::seastar_torus()};
    cfg.fabric.net = rails::topo::TopologySpec::torus(kSide, kSide);
    cfg.fabric.event_sharding = true;
    return cfg;
  }
  std::size_t span_hint() const override {
    return msgs_.size() * 3 + msgs_.size() * 5;  // isend/irecv/wait + plan calls
  }

  PassResult run(World& world, TraceLog* trace) override {
    PassRunner p(world, trace);
    std::vector<std::uint8_t> rx(kPerRound * kSize);
    Round r{this, &p, 0, std::vector<RecvHandle>(kPerRound), std::vector<SendHandle>(kPerRound)};
    for (r.round = 0; r.round < rounds_; ++r.round) {
      const std::size_t base = static_cast<std::size_t>(r.round) * kPerRound;
      const Msg* m = msgs_.data() + base;
      std::fill(rx.begin(), rx.end(), 0);
      p.resume();
      const SimTime start = world.now();
      for (unsigned i = 0; i < kPerRound; ++i) {
        r.recvs[i] = p.irecv(m[i].dst, m[i].src, static_cast<Tag>(base + i),
                             rx.data() + i * kSize, kSize, static_cast<std::int64_t>(base + i));
      }
      Round* rp = &r;
      for (NodeId n = 0; n < kNodes; ++n) {
        world.fabric().events().at_node(start + entry(r.round, n), n,
                                        [rp, n] { rp->enter(n); });
      }
      for (unsigned i = 0; i < kPerRound; ++i) {
        p.wait(r.recvs[i], r.sends[i], static_cast<std::int64_t>(base + i));
      }
      p.pause();
      for (unsigned i = 0; i < kPerRound; ++i) {
        p.settle(r.recvs[i], r.sends[i], start, pool_.at(m[i].offset), rx.data() + i * kSize,
                 kSize);
        r.sends[i] = nullptr;  // the wait of the next round starts from empty
      }
    }
    return p.finish();
  }

 private:
  struct Msg {
    NodeId src;
    NodeId dst;
    std::uint32_t offset;
  };
  /// One round in flight, reached from the nodes' entry events.
  struct Round {
    TorusEager* self;
    PassRunner* runner;
    unsigned round;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;

    void enter(NodeId n) {
      const std::size_t base = static_cast<std::size_t>(round) * kPerRound;
      for (unsigned k = n * kPeers; k < (n + 1) * kPeers; ++k) {
        const Msg& m = self->msgs_[base + k];
        sends[k] = runner->isend(m.src, m.dst, static_cast<Tag>(base + k),
                                 self->pool_.at(m.offset), kSize,
                                 static_cast<std::int64_t>(base + k));
      }
    }
  };

  SimDuration entry(unsigned round, NodeId n) const {
    return entry_[static_cast<std::size_t>(round) * kNodes + n];
  }

  unsigned rounds_;
  PayloadPool pool_;
  std::vector<Msg> msgs_;
  std::vector<SimDuration> entry_;  ///< per (round, node) entry offset
};

// ---------------------------------------------------------------------------
// pair_rdv_open: paper testbed (Myri-10G + QsNetII), hetero-split. Open
// loop: Poisson arrivals at 1,400 MB/s offered, sizes log-uniform 8 KiB to
// 512 KiB, node 0 -> 1. Each send (and its expected receive) is posted by a
// fabric event at its due virtual time, so the generator is never late.
// Arrivals come in independent trials of 150 messages (the loadsweep length
// at this load point), each from a drained world: one long stream lets each
// spurious quarantine feed the next, and its tail then differs by 4x from
// seed to seed.
// ---------------------------------------------------------------------------
class PairRdvOpen final : public Workload {
 public:
  static constexpr double kOfferedMbps = 1400.0;
  static constexpr std::size_t kMinSize = 8u * 1024u;
  static constexpr std::size_t kMaxSize = 512u * 1024u;
  static constexpr unsigned kSizeClasses = 7;  ///< 8 KiB .. 512 KiB
  static constexpr unsigned kTrials = 450;
  static constexpr unsigned kTrialMessages = 150;

  PairRdvOpen(std::uint64_t seed, unsigned shrink) : pool_(seed, kMaxSize) {
    const unsigned trials = std::max(1u, kTrials / shrink);
    Xoshiro256 rng(seed);
    const double mean_size =
        static_cast<double>(kMaxSize - kMinSize) /
        std::log(static_cast<double>(kMaxSize) / static_cast<double>(kMinSize));
    const double mean_gap_ns = mean_size / kOfferedMbps * 1e3;  // bytes / (B/us) -> ns
    msgs_.reserve(static_cast<std::size_t>(trials) * kTrialMessages);
    for (unsigned trial = 0; trial < trials; ++trial) {
      SimDuration t = 0;
      for (unsigned i = 0; i < kTrialMessages; ++i) {
        t += static_cast<SimDuration>(-std::log(std::max(1e-12, rng.uniform())) * mean_gap_ns);
        msgs_.push_back({t, log_uniform(rng, kMinSize, kMaxSize), PayloadPool::draw(rng)});
      }
    }
  }

  rails::core::WorldConfig config() const override {
    return rails::core::paper_testbed("hetero-split");
  }
  std::size_t span_hint() const override { return msgs_.size() * 8; }

  PassResult run(World& world, TraceLog* trace) override {
    PassRunner p(world, trace);
    Pass pass{this, &p, {}, {}, {}, {}, {}};
    pass.recvs.resize(msgs_.size());
    pass.sends.resize(msgs_.size());
    pass.buf.resize(msgs_.size(), nullptr);
    for (std::size_t first = 0; first < msgs_.size(); first += kTrialMessages) {
      // One trial: arrivals relative to an idle world, drained afterwards.
      const SimTime start = world.now();
      Pass* ps = &pass;
      for (std::size_t i = first; i < first + kTrialMessages; ++i) {
        world.fabric().events().at(start + msgs_[i].due, [ps, i] { ps->arrive(i); });
      }
      p.resume();
      for (std::size_t i = first; i < first + kTrialMessages; ++i) {
        p.wait(pass.recvs[i], pass.sends[i], static_cast<std::int64_t>(i));
        p.pause();
        const bool ok = p.settle(pass.recvs[i], pass.sends[i], start + msgs_[i].due,
                                 pool_.at(msgs_[i].offset), pass.buf[i], msgs_[i].size);
        // A receive that never completed may still be written into: its
        // buffer is retired for the rest of the pass rather than reused.
        if (ok) pass.release(i);
        pass.recvs[i] = nullptr;  // hand the requests back to the pool
        pass.sends[i] = nullptr;
        p.resume();
      }
      world.fabric().events().run_all();
      p.pause();
      p.close_window();
    }
    return p.finish();
  }

 private:
  struct Msg {
    SimDuration due;  ///< offset from the start of its trial
    std::size_t size;
    std::uint32_t offset;
  };
  /// Per-pass state reached from the arrival events.
  struct Pass {
    PairRdvOpen* self;
    PassRunner* runner;
    std::vector<RecvHandle> recvs;
    std::vector<SendHandle> sends;
    std::vector<std::uint8_t*> buf;
    /// Receive buffers recycled per power-of-two size class, so memory
    /// follows the bytes in flight rather than the largest message.
    std::array<std::vector<std::uint8_t*>, kSizeClasses> free;
    std::vector<std::unique_ptr<std::uint8_t[]>> owned;

    static unsigned size_class(std::size_t len) {
      unsigned c = 0;
      while ((kMinSize << c) < len) ++c;
      return c;
    }
    void release(std::size_t i) { free[size_class(self->msgs_[i].size)].push_back(buf[i]); }
    void arrive(std::size_t i) {
      const Msg& m = self->msgs_[i];
      auto& list = free[size_class(m.size)];
      if (list.empty()) {
        owned.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(
            kMinSize << size_class(m.size)));
        list.push_back(owned.back().get());
      }
      buf[i] = list.back();
      list.pop_back();
      const auto msg = static_cast<std::int64_t>(i);
      recvs[i] = runner->irecv(1, 0, static_cast<Tag>(i), buf[i], m.size, msg);
      sends[i] = runner->isend(0, 1, static_cast<Tag>(i), self->pool_.at(m.offset), m.size,
                               msg);
    }
  };

  PayloadPool pool_;
  std::vector<Msg> msgs_;
};

// ---------------------------------------------------------------------------
// pair_eager_burst: paper testbed, multicore-hetero-split. Closed loop of 64
// concurrent flows 0 -> 1, sizes log-uniform 64 B to 8 KiB: all flows start
// together, and a flow submits its next message the moment its previous one
// completed on both ends. Completions arrive in waves (one per aggregated
// segment), so submissions arrive in bursts that the pack list aggregates.
// ---------------------------------------------------------------------------
class PairEagerBurst final : public Workload {
 public:
  static constexpr unsigned kFlows = 64;
  static constexpr unsigned kPerFlow = 1500;
  static constexpr std::size_t kMinSize = 64;
  static constexpr std::size_t kMaxSize = 8u * 1024u;

  PairEagerBurst(std::uint64_t seed, unsigned shrink)
      : per_flow_(std::max(1u, kPerFlow / shrink)), pool_(seed, kMaxSize) {
    Xoshiro256 rng(seed);
    msgs_.reserve(static_cast<std::size_t>(kFlows) * per_flow_);
    for (unsigned i = 0; i < kFlows * per_flow_; ++i) {
      msgs_.push_back({log_uniform(rng, kMinSize, kMaxSize), PayloadPool::draw(rng)});
    }
  }

  rails::core::WorldConfig config() const override {
    return rails::core::paper_testbed("multicore-hetero-split");
  }
  std::size_t span_hint() const override { return msgs_.size() * 4; }

  PassResult run(World& world, TraceLog* trace) override {
    PassRunner p(world, trace);
    std::vector<std::uint8_t> rx(kFlows * kMaxSize);
    std::array<Flow, kFlows> flows{};
    std::array<unsigned, kFlows> next{};  ///< flows to resubmit after a wave
    unsigned active = 0;
    const auto submit = [&](unsigned f) {
      Flow& fl = flows[f];
      const std::size_t i = static_cast<std::size_t>(f) * per_flow_ + fl.next;
      const auto msg = static_cast<std::int64_t>(i);
      fl.due = world.now();
      fl.recv = p.irecv(1, 0, static_cast<Tag>(i), rx.data() + f * kMaxSize, msgs_[i].size, msg);
      fl.send = p.isend(0, 1, static_cast<Tag>(i), pool_.at(msgs_[i].offset), msgs_[i].size, msg);
      ++active;
    };
    const auto settled = [](const Flow& fl) {
      return fl.send && (fl.recv->done() || fl.send->failed()) &&
             (fl.send->done() || fl.send->failed());
    };

    p.resume();
    for (unsigned f = 0; f < kFlows; ++f) submit(f);
    auto& q = world.fabric().events();
    while (active > 0) {
      const std::size_t span = trace != nullptr ? trace->open(SpanKind::kWait, -1) : 0;
      const bool progressed = q.run_until([&] {
        for (const Flow& fl : flows) {
          if (settled(fl)) return true;
        }
        return false;
      });
      if (trace != nullptr) trace->close(span);
      p.pause();
      unsigned ready = 0;
      for (unsigned f = 0; f < kFlows; ++f) {
        Flow& fl = flows[f];
        // A drained queue leaves the rest unfinished: settle them as lost.
        if (!fl.send || (progressed && !settled(fl))) continue;
        const std::size_t i = static_cast<std::size_t>(f) * per_flow_ + fl.next;
        p.settle(fl.recv, fl.send, fl.due, pool_.at(msgs_[i].offset), rx.data() + f * kMaxSize,
                 msgs_[i].size);
        std::memset(rx.data() + f * kMaxSize, 0, msgs_[i].size);
        fl.send = nullptr;
        fl.recv = nullptr;
        --active;
        if (progressed && ++fl.next < per_flow_) next[ready++] = f;
      }
      p.resume();
      for (unsigned k = 0; k < ready; ++k) submit(next[k]);
    }
    p.pause();
    return p.finish();
  }

 private:
  struct Msg {
    std::size_t size;
    std::uint32_t offset;
  };
  struct Flow {
    unsigned next = 0;  ///< index of the outstanding message within the flow
    SimTime due = 0;
    RecvHandle recv;
    SendHandle send;
  };
  unsigned per_flow_;
  PayloadPool pool_;
  std::vector<Msg> msgs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"torus_eager", "pair_rdv_open",
                                                 "pair_eager_burst"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        unsigned shrink) {
  if (name == "torus_eager") return std::make_unique<TorusEager>(seed, shrink);
  if (name == "pair_rdv_open") return std::make_unique<PairRdvOpen>(seed, shrink);
  if (name == "pair_eager_burst") return std::make_unique<PairEagerBurst>(seed, shrink);
  return nullptr;
}

}  // namespace railbench

// Hot-path memory discipline (docs/PERF.md): the steady-state eager
// submit -> schedule -> emit -> deliver path must not touch the allocator,
// whichever strategy plans it (each activation plans fresh into recycled
// plan storage), requests must recycle through the slab pool with advancing
// generations, events must stay in the queue's inline storage, and the
// destination grouping must preserve pack-list order.
//
// This binary links src/perf/alloc_hook.cpp (see tests/CMakeLists.txt), so
// rails::perf::t_alloc_count counts every operator-new on this thread —
// the same counter the rails-bench allocs_per_msg metric and the benchdiff
// allocation gate are built on.
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/request_pool.hpp"
#include "core/world.hpp"
#include "fabric/buffer_pool.hpp"
#include "fabric/event_queue.hpp"
#include "fabric/fault.hpp"
#include "fabric/presets.hpp"
#include "topo/topology.hpp"
#include "perf/profiler.hpp"
#include "qos/arbiter.hpp"
#include "trace/tracer.hpp"

namespace rails::core {
namespace {

// --- allocation budgets ------------------------------------------------------

/// Allocations across 16 measured bursts of 8 eager messages, after 4
/// warm-up bursts, with `strategy` planning every activation.
std::uint64_t steady_eager_allocs(const std::string& strategy) {
  World world(paper_testbed(strategy));

  constexpr unsigned kFlows = 8;
  constexpr std::size_t kSize = 2048;
  std::vector<std::uint8_t> tx(kSize, 0x5a);
  std::vector<std::vector<std::uint8_t>> rx(kFlows,
                                            std::vector<std::uint8_t>(kSize));
  std::vector<RecvHandle> recvs;
  recvs.reserve(kFlows);

  const auto burst = [&] {
    recvs.clear();
    for (unsigned f = 0; f < kFlows; ++f) {
      recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(f),
                                            rx[f].data(), kSize));
    }
    for (unsigned f = 0; f < kFlows; ++f) {
      (void)world.engine(0).isend(1, static_cast<Tag>(f), tx.data(), kSize);
    }
    for (const auto& r : recvs) world.wait(r);
  };

  // Warm every recycling structure: request pool slabs, event-queue slot
  // arena, payload buffer pool, plan storage classes, scratch vectors.
  for (int i = 0; i < 4; ++i) burst();

  const std::uint64_t before = perf::t_alloc_count;
  for (int i = 0; i < 16; ++i) burst();
  return perf::t_alloc_count - before;
}

TEST(HotPathAlloc, SteadyEagerPathIsAllocationFree) {
  perf::Profiler::set_enabled(false);
  // Every name make_strategy knows: the pin holds whichever plugin plans.
  for (const char* strategy :
       {"single-rail:0", "single-rail:1", "greedy-balance", "aggregate-fastest",
        "patient-aggregate", "iso-split", "fixed-ratio-split", "hetero-split",
        "multicore-hetero-split", "batch-spread"}) {
    EXPECT_EQ(steady_eager_allocs(strategy), 0u)
        << "allocations across 16 bursts of 8 messages on the steady eager path "
           "planned by "
        << strategy;
  }
}

/// Allocations across 16 lone `size`-byte eager sends under
/// multicore-hetero-split, after 4 warm-up sends; `splits` gets the number
/// of measured sends the strategy split across rails and cores.
std::uint64_t lone_eager_allocs(std::size_t size, std::uint64_t& splits) {
  World world(paper_testbed("multicore-hetero-split"));
  std::vector<std::uint8_t> tx(size, 0x3c);
  std::vector<std::uint8_t> rx(size);
  const auto lone_send = [&](Tag tag) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), size);
    (void)world.engine(0).isend(1, tag, tx.data(), size);
    world.wait(recv);
    world.fabric().events().run_all();
  };
  for (Tag t = 0; t < 4; ++t) lone_send(t);

  const std::uint64_t splits_before = world.engine(0).stats().split_eager_msgs;
  const std::uint64_t before = perf::t_alloc_count;
  for (Tag t = 4; t < 20; ++t) lone_send(t);
  const std::uint64_t delta = perf::t_alloc_count - before;
  splits = world.engine(0).stats().split_eager_msgs - splits_before;
  return delta;
}

TEST(HotPathAlloc, LoneMediumEagerSplitIsAllocationFree) {
  // A lone medium eager message takes multicore-hetero-split's split path
  // (§III-D): the solver inputs, the equal-finish solve and the eager plan
  // all live in recycled plan storage. 4 KiB is planned through the solver
  // and sent whole; 16 KiB is split and offloaded.
  perf::Profiler::set_enabled(false);
  std::uint64_t splits = 0;
  EXPECT_EQ(lone_eager_allocs(4_KiB, splits), 0u) << "allocations across 16 lone 4 KiB sends";
  EXPECT_EQ(lone_eager_allocs(16_KiB, splits), 0u) << "allocations across 16 lone 16 KiB sends";
  EXPECT_EQ(splits, 16u);
}

TEST(HotPathAlloc, ReliableEagerPathIsAllocationFreeAtZeroFaultRate) {
  // Reliability on, fault rate zero: the CRC + seq + parked-copy machinery
  // must ride the same recycled structures as the bare path. The warm-up is
  // longer than the eager test above because the retransmit ring's parked
  // payload buffers warm per slot — only a full cycle of the 64-slot ring
  // touches them all.
  perf::Profiler::set_enabled(false);
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.engine.reliability.enabled = true;
  World world(std::move(cfg));

  constexpr unsigned kFlows = 8;
  constexpr std::size_t kSize = 2048;
  std::vector<std::uint8_t> tx(kSize, 0x5a);
  std::vector<std::vector<std::uint8_t>> rx(kFlows,
                                            std::vector<std::uint8_t>(kSize));
  std::vector<RecvHandle> recvs;
  recvs.reserve(kFlows);

  const auto burst = [&] {
    recvs.clear();
    for (unsigned f = 0; f < kFlows; ++f) {
      recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(f),
                                            rx[f].data(), kSize));
    }
    for (unsigned f = 0; f < kFlows; ++f) {
      (void)world.engine(0).isend(1, static_cast<Tag>(f), tx.data(), kSize);
    }
    for (const auto& r : recvs) world.wait(r);
    world.fabric().events().run_all();  // drain delayed ACKs + stale timeouts
  };
  for (int i = 0; i < 80; ++i) burst();

  const std::uint64_t before = perf::t_alloc_count;
  constexpr int kMeasured = 16;
  for (int i = 0; i < kMeasured; ++i) burst();
  const std::uint64_t delta = perf::t_alloc_count - before;

  EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured
                       << " bursts with reliability enabled";
  EXPECT_GT(world.engine(0).stats().rel_segments, 0u);
  EXPECT_EQ(world.engine(0).stats().rel_retransmits, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
}

TEST(HotPathAlloc, RendezvousSteadyStateStaysWithinBudget) {
  perf::Profiler::set_enabled(false);
  World world(paper_testbed("hetero-split"));

  constexpr std::size_t kSize = 1_MiB;
  std::vector<std::uint8_t> tx(kSize, 0x66);
  std::vector<std::uint8_t> rx(kSize, 0);

  const auto transfer = [&](Tag tag) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), kSize);
    auto send = world.engine(0).isend(1, tag, tx.data(), kSize);
    world.wait(recv);
    world.wait(send);
  };
  for (Tag t = 0; t < 3; ++t) transfer(t);  // warm-up

  const std::uint64_t before = perf::t_alloc_count;
  constexpr std::uint64_t kMsgs = 8;
  for (Tag t = 3; t < 3 + kMsgs; ++t) transfer(t);
  const std::uint64_t per_msg = (perf::t_alloc_count - before) / kMsgs;

  // Rendezvous still pays for its bookkeeping maps (rdv_sends_,
  // inbound_rdv_ with its coverage intervals, live_chunks_), but the
  // solver's plan, the chunks' borrowed payloads, requests, and event
  // closures all recycle. This pins the budget so a new per-chunk or
  // per-message allocation cannot land unnoticed.
  EXPECT_LE(per_msg, 7u) << per_msg << " allocations per rendezvous message";
}

// --- plan storage ------------------------------------------------------------

TEST(PlanStorage, FreedBlocksComeBackWithoutAllocating) {
  const EagerPiece* block = nullptr;
  {
    PlanVector<EagerPiece> first;
    first.reserve(5);  // 120 B: the 128 B class
    block = first.data();
  }
  const std::uint64_t before = perf::t_alloc_count;
  PlanVector<EagerPiece> again;
  again.reserve(4);  // 96 B: same class, so the block just freed
  const std::uint64_t after = perf::t_alloc_count;
  EXPECT_EQ(again.data(), block);
  EXPECT_EQ(after, before);
}

TEST(PlanStorage, ConcurrentPlansShareThePool) {
  // Strategies may plan on any thread: two threads churning plans of
  // every class must neither race nor hand one block to both.
  const auto churn = [](std::uint8_t tag) {
    for (int i = 0; i < 2000; ++i) {
      PlanVector<std::uint8_t> v(static_cast<std::size_t>(1 + i % 300), tag);
      for (const std::uint8_t b : v) ASSERT_EQ(b, tag);
    }
  };
  std::thread a(churn, 0x11);
  std::thread b(churn, 0x22);
  a.join();
  b.join();
}

// --- payload buffer pool -----------------------------------------------------

TEST(PayloadPool, SizeClassesKeepSmallSegmentsOffLargeBuffers) {
  // Empty the classes this test touches ([64 B, 256 B) and [256 KiB,
  // 1 MiB)) of whatever earlier tests left: acquiring a power of two takes
  // any pooled buffer of its class or the next until a fresh one appears.
  const fabric::BufferPool& pool = fabric::BufferPool::instance();
  std::vector<std::vector<std::uint8_t>> held;
  for (std::size_t bytes : {std::size_t{64}, std::size_t{256} << 10}) {
    std::size_t pooled = 0;
    do {
      pooled = pool.pooled();
      held.push_back(fabric::acquire_payload(bytes));
    } while (pool.pooled() < pooled);
  }
  held.clear();  // destroyed, not recycled

  std::vector<std::uint8_t> big = fabric::acquire_payload(300u << 10);
  EXPECT_EQ(big.capacity(), 300u << 10);  // fresh buffers are exact-size
  const std::uint8_t* big_data = big.data();
  fabric::recycle_payload(std::move(big));

  // A small segment must not pin the large buffer...
  std::vector<std::uint8_t> small = fabric::acquire_payload(100);
  EXPECT_NE(small.data(), big_data);
  EXPECT_EQ(small.capacity(), 100u);
  // ...while a chunk it fits recycles it without allocating.
  const std::uint64_t before = perf::t_alloc_count;
  std::vector<std::uint8_t> again = fabric::acquire_payload(260u << 10);
  EXPECT_EQ(perf::t_alloc_count, before);
  EXPECT_EQ(again.data(), big_data);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(fabric::acquire_payload(0).capacity(), 0u);
}

// --- request pool ------------------------------------------------------------

TEST(RequestPool, RecyclesSlotsAndBumpsGeneration) {
  auto& pool = RequestPool<SendRequest>::instance();

  SendHandle a = make_send_request();
  a->id = 77;
  a->len = 123;
  a->staging.reserve(64);
  SendRequest* slot = a.get();
  const std::uint32_t gen = a.generation();
  const std::uint64_t recycled_before = pool.recycled();

  a.reset();
  EXPECT_EQ(pool.recycled(), recycled_before + 1);

  // LIFO freelist: the very next acquire reuses the slot, with the
  // generation advanced and the fields reset — but owned capacity kept.
  SendHandle b = make_send_request();
  ASSERT_EQ(b.get(), slot);
  EXPECT_EQ(b.generation(), gen + 1);
  EXPECT_EQ(b->id, 0u);
  EXPECT_EQ(b->len, 0u);
  EXPECT_EQ(b->state, SendState::kQueued);
  EXPECT_TRUE(b->staging.empty());
  EXPECT_GE(b->staging.capacity(), 64u);
}

TEST(RequestPool, CopiedHandlesShareOneSlotUntilTheLastRelease) {
  auto& pool = RequestPool<RecvRequest>::instance();
  const std::uint64_t recycled_before = pool.recycled();

  RecvHandle a = make_recv_request();
  a->id = 5;
  RecvHandle b = a;  // refcount 2
  a.reset();
  EXPECT_EQ(pool.recycled(), recycled_before);  // b still owns the slot
  EXPECT_EQ(b->id, 5u);
  b.reset();
  EXPECT_EQ(pool.recycled(), recycled_before + 1);
}

TEST(RequestPool, FailoverReSplitReleasesEveryRequest) {
  // A rendezvous send whose chunks fail over mid-flight exercises the
  // retry/re-split ownership paths; afterwards every handle must have come
  // back to the pools (no leak through rdv_sends_/live_chunks_).
  auto& sends = RequestPool<SendRequest>::instance();
  auto& recvs = RequestPool<RecvRequest>::instance();
  const std::size_t send_live = sends.live();
  const std::size_t recv_live = recvs.live();
  const std::uint64_t send_recycled = sends.recycled();
  {
    World world(paper_testbed("hetero-split"));
    const std::size_t size = 4_MiB;
    std::vector<std::uint8_t> tx(size, 0x42);
    std::vector<std::uint8_t> rx(size, 0);
    fabric::FaultSpec fault;
    fault.kind = fabric::FaultKind::kFailStop;
    fault.at = usec(20);  // rail 0 dies while chunks are in flight
    world.fabric().nic(0, 0).inject_fault(fault);

    auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
    auto send = world.engine(0).isend(1, 1, tx.data(), size);
    world.wait(recv);
    world.wait(send);
    EXPECT_EQ(rx, tx);
    EXPECT_GE(world.engine(0).stats().failovers, 1u);
  }
  EXPECT_EQ(sends.live(), send_live);
  EXPECT_EQ(recvs.live(), recv_live);
  EXPECT_GT(sends.recycled(), send_recycled);
}

// --- event queue inline storage ----------------------------------------------

TEST(EventQueueInline, SmallHandlersStayInline) {
  fabric::EventQueue q;
  int hits = 0;
  q.after(1, [&hits] { ++hits; });
  q.run_all();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.handler_spills(), 0u);
}

TEST(EventQueueInline, OversizeHandlerSpillsToHeapAndStillRuns) {
  fabric::EventQueue q;
  std::array<std::uint8_t, 160> big{};  // past the inline-storage bound
  big[0] = 7;
  int result = 0;
  q.after(1, [big, &result] { result = big[0]; });
  q.run_all();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(q.handler_spills(), 1u);
}

// --- submit-path accounting (the try_isend ordering fix) ---------------------

TEST(QosAccounting, DowngradeThatWouldBeShedLeavesNoResidue) {
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  cfg.engine.qos.deadline_downgrade = true;
  auto classes = qos::builtin_classes();
  classes[qos::kBackground].queue_capacity = 2;
  cfg.engine.qos.classes = std::move(classes);
  World world(cfg);
  auto& sender = world.engine(0);

  std::vector<std::uint8_t> tx(512, 0x77);
  Engine::SendOptions opts;
  opts.deadline = world.now() + 1;  // infeasible: every submission downgrades

  // Fill the BACKGROUND queue to capacity with downgraded sends (same
  // virtual instant, so no grant round drains it in between).
  for (unsigned i = 0; i < 2; ++i) {
    auto s = sender.try_isend(1, static_cast<Tag>(i), tx.data(), tx.size(), opts);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->qos_class, qos::kBackground);
  }
  EXPECT_EQ(sender.stats().qos_admission_downgrades, 2u);

  // The third would downgrade into a full queue, so try_isend sheds it. The
  // shed must leave no admission accounting behind — this pins the ordering
  // bug where the downgrade counters were mutated before the capacity check.
  EXPECT_EQ(sender.try_isend(1, 9, tx.data(), tx.size(), opts), nullptr);
  EXPECT_EQ(sender.stats().qos_admission_downgrades, 2u);
  EXPECT_EQ(sender.qos()->counters(qos::kLatency).admission_downgrades, 2u);
  EXPECT_EQ(sender.qos()->counters(qos::kBackground).rejected_full, 1u);
}

// --- destination grouping ----------------------------------------------------

TEST(EagerGrouping, BurstPreservesPackListOrderAcrossDestinations) {
  // Interleaved submissions to 8 destinations, all at one virtual instant:
  // the (single-pass) grouping must emit destination groups in first-
  // appearance order and keep the submission order within each group —
  // identical to the pack-list semantics the O(n^2) scan produced.
  WorldConfig cfg = paper_testbed("single-rail:0");
  cfg.fabric.node_count = 9;
  World world(cfg);
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);

  constexpr unsigned kDsts = 8;
  constexpr unsigned kRounds = 32;
  std::vector<std::uint8_t> tx(64, 0x11);
  std::vector<std::vector<std::uint64_t>> per_dst(kDsts);
  for (unsigned r = 0; r < kRounds; ++r) {
    for (unsigned d = 0; d < kDsts; ++d) {
      auto s = world.engine(0).isend(d + 1, static_cast<Tag>(r), tx.data(),
                                     tx.size());
      per_dst[d].push_back(s->id);
    }
  }
  world.fabric().events().run_all();

  std::vector<std::uint64_t> expected;
  for (const auto& ids : per_dst) {
    expected.insert(expected.end(), ids.begin(), ids.end());
  }
  std::vector<std::uint64_t> emitted;
  for (const auto& e : tracer.of_kind(trace::EventKind::kEagerEmit)) {
    emitted.push_back(e.msg_id);
  }
  EXPECT_EQ(emitted, expected);
}

TEST(EagerGrouping, LargeManyDestinationBurstCompletes) {
  // Stress the epoch-stamped grouping across many re-activations: 8192
  // pending sends to 64 destinations in one instant. The single-pass
  // grouping keeps each activation linear in the pack-list length (and the
  // steady-state allocation test above pins that it allocates nothing).
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.fabric.node_count = 65;
  World world(cfg);

  constexpr unsigned kDsts = 64;
  constexpr unsigned kRounds = 128;
  std::vector<std::uint8_t> tx(64, 0x22);
  std::vector<SendHandle> sends;
  sends.reserve(kDsts * kRounds);
  for (unsigned r = 0; r < kRounds; ++r) {
    for (unsigned d = 0; d < kDsts; ++d) {
      sends.push_back(world.engine(0).isend(d + 1, static_cast<Tag>(r),
                                            tx.data(), tx.size()));
    }
  }
  world.fabric().events().run_all();

  for (const auto& s : sends) EXPECT_TRUE(s->done());
  EXPECT_EQ(world.engine(0).stats().sends, kDsts * kRounds);
}

TEST(HotPathAlloc, RoutedBurstAt256NodesStaysAllocationFree) {
  // The PR 1–9 invariants (0 allocs/msg, 0 handler spills) must survive the
  // jump from a 2-node flat world to a 256-node routed torus with the
  // sharded event queue: hop-forwarding closures must stay inside
  // InlineHandler's inline bytes and the route cache must be warm after the
  // first pass so steady-state forwarding never allocates.
  perf::Profiler::set_enabled(false);
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.fabric.node_count = 256;
  cfg.fabric.net = topo::TopologySpec::torus(16, 16);
  cfg.fabric.event_sharding = true;
  cfg.fabric.rails = {fabric::seastar_torus(), fabric::seastar_torus()};
  World world(cfg);
  ASSERT_EQ(world.fabric().events().shard_count(), 256u);

  constexpr std::size_t kSize = 2048;
  // Transpose pairs: (x, y) -> (y, x) is multi-hop for every off-diagonal
  // node, the classic dimension-order stress pattern.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::uint32_t n = 0; n < 32; ++n) {
    const std::uint32_t x = n % 16;
    const std::uint32_t y = n / 16;
    if (x == y) continue;
    pairs.emplace_back(y * 16 + x, x * 16 + y);
  }
  std::vector<std::uint8_t> tx(kSize, 0x77);
  std::vector<std::vector<std::uint8_t>> rx(pairs.size(),
                                            std::vector<std::uint8_t>(kSize));
  std::vector<RecvHandle> recvs;
  recvs.reserve(pairs.size());
  Tag tag = 0;
  const auto burst = [&] {
    recvs.clear();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      recvs.push_back(world.engine(pairs[i].second)
                          .irecv(pairs[i].first, tag, rx[i].data(), kSize));
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      (void)world.engine(pairs[i].first)
          .isend(pairs[i].second, tag, tx.data(), kSize);
    }
    for (const auto& r : recvs) world.wait(r);
    ++tag;
  };

  for (int i = 0; i < 4; ++i) burst();  // warm pools, slots, route cache

  const std::uint64_t spills_before = world.fabric().events().handler_spills();
  const std::uint64_t before = perf::t_alloc_count;
  constexpr int kMeasured = 16;
  for (int i = 0; i < kMeasured; ++i) burst();
  const std::uint64_t delta = perf::t_alloc_count - before;

  EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured
                       << " routed bursts of " << pairs.size()
                       << " messages on the 256-node torus";
  EXPECT_EQ(world.fabric().events().handler_spills(), spills_before);
  EXPECT_EQ(world.fabric().events().handler_spills(), 0u);
  EXPECT_GT(world.fabric().forwarded_segments(), 0u);
}

}  // namespace
}  // namespace rails::core

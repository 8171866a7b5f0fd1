// Zero-copy rendezvous (fabric/payload_view.hpp): DATA chunks borrow the
// sender's buffer, the receiver's memcpy is the one host copy a chunk
// costs, and a send that ends with views still in flight leaves them a
// copy of its own, so nothing reads user memory after completion or
// failure. The lifetime scenarios free or compare the sender's buffer; the
// sanitizer jobs run them too.
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/strategies.hpp"
#include "core/world.hpp"
#include "fabric/fault.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

/// Payload bytes both engines copied on the host.
std::uint64_t bytes_copied(World& world) {
  return world.engine(0).stats().payload_bytes_copied +
         world.engine(1).stats().payload_bytes_copied;
}

/// Control segments on rail 0; a rendezvous message's last `tail` bytes on
/// rail 1 and the rest (if any) on rail 0. Keeps a fault armed on rail 1 off
/// the handshake and on the chosen DATA bytes.
class TailOnRail1 final : public AggregateFastest {
 public:
  explicit TailOnRail1(std::size_t tail) : tail_(tail) {}
  std::string name() const override { return "tail-on-rail1"; }
  RailId control_rail(const StrategyContext&) const override { return 0; }
  strategy::SplitResult plan_rendezvous(const StrategyContext&, std::size_t len) override {
    strategy::SplitResult result;
    const std::size_t tail = std::min(tail_, len);
    if (tail < len) result.chunks.push_back({0, 0, len - tail});
    result.chunks.push_back({1, len - tail, tail});
    return result;
  }

 private:
  std::size_t tail_;
};

void install(World& world, std::size_t tail) {
  for (NodeId n = 0; n < 2; ++n) world.engine(n).set_strategy(std::make_unique<TailOnRail1>(tail));
}

fabric::FaultSpec fault(fabric::FaultKind kind) {
  fabric::FaultSpec f;
  f.kind = kind;
  f.rate = 1.0;
  return f;
}

TEST(PayloadCopies, FaultFreeRendezvousCopiesEachByteOnce) {
  World world(paper_testbed("hetero-split"));
  constexpr std::size_t kSize = 1_MiB;
  const std::vector<std::uint8_t> tx = test::make_pattern(kSize, 7);
  std::vector<std::uint8_t> rx(kSize, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), kSize);
  auto send = world.engine(0).isend(1, 1, tx.data(), kSize);
  world.wait(recv);
  world.wait(send);
  world.fabric().events().run_all();

  ASSERT_GE(world.engine(0).stats().rdv_chunks, 2u);  // split across both rails
  EXPECT_EQ(rx, tx);
  // The chunks borrowed the sender's buffer; only delivery copied.
  EXPECT_EQ(world.engine(0).stats().payload_bytes_copied, 0u);
  EXPECT_EQ(world.engine(1).stats().payload_bytes_copied, kSize);
  EXPECT_DOUBLE_EQ(static_cast<double>(bytes_copied(world)) / kSize, 1.0);
  // A segment with its view still fits the NIC delivery closure inline.
  EXPECT_EQ(world.fabric().events().handler_spills(), 0u);
}

TEST(PayloadCopies, EagerCopiesEachByteTwice) {
  World world(paper_testbed("hetero-split"));
  constexpr std::size_t kSize = 2048;
  const std::vector<std::uint8_t> tx = test::make_pattern(kSize, 3);
  std::vector<std::uint8_t> rx(kSize, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), kSize);
  auto send = world.engine(0).isend(1, 1, tx.data(), kSize);
  world.wait(recv);
  world.wait(send);

  ASSERT_EQ(world.engine(0).stats().eager_msgs, 1u);
  EXPECT_EQ(rx, tx);
  // Pack into the segment on the sender, unpack on the receiver.
  EXPECT_EQ(world.engine(0).stats().payload_bytes_copied, kSize);
  EXPECT_EQ(world.engine(1).stats().payload_bytes_copied, kSize);
  EXPECT_DOUBLE_EQ(static_cast<double>(bytes_copied(world)) / kSize, 2.0);
}

TEST(PayloadLoan, CorruptionNeverReachesTheSendersBuffer) {
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.reliability.enabled = true;
  World world(std::move(cfg));
  install(world, 256_KiB);
  // Every segment node 0 puts on rail 1 is corrupted: all of them DATA.
  world.fabric().nic(0, 1).inject_fault(fault(fabric::FaultKind::kCorrupt));

  constexpr std::size_t kSize = 1_MiB;
  const std::vector<std::uint8_t> pattern = test::make_pattern(kSize, 11);
  std::vector<std::uint8_t> tx = pattern;
  std::vector<std::uint8_t> rx(kSize, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), kSize);
  auto send = world.engine(0).isend(1, 1, tx.data(), kSize);
  world.fabric().events().run_all();

  EXPECT_GT(world.fabric().nic(0, 1).segments_corrupted(), 0u);
  EXPECT_GT(world.engine(1).stats().rel_corruptions, 0u);
  EXPECT_EQ(tx, pattern) << "a bit flip on the wire reached the sender's buffer";
  // The retransmits travel from the reliability stash and land intact.
  ASSERT_TRUE(recv->done());
  EXPECT_TRUE(send->done());
  EXPECT_EQ(rx, pattern);
}

TEST(PayloadLoan, FailedSendLeavesItsViewsACopy) {
  WorldConfig cfg = paper_testbed("hetero-split");
  cfg.engine.failover.max_attempts = 1;  // the first lost chunk fails the send
  World world(std::move(cfg));
  constexpr std::size_t kTail = 4_KiB;
  install(world, kTail);
  // Rail 1 is down for good: its small tail chunk errors out long before
  // the bulk chunk on rail 0 lands.
  world.fabric().nic(0, 1).inject_fault(fault(fabric::FaultKind::kFailStop));

  constexpr std::size_t kSize = 1_MiB;
  const std::vector<std::uint8_t> pattern = test::make_pattern(kSize, 5);
  auto tx = std::make_unique<std::uint8_t[]>(kSize);
  std::memcpy(tx.get(), pattern.data(), kSize);
  std::vector<std::uint8_t> rx(kSize, 0);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), kSize);
  auto send = world.engine(0).isend(1, 1, tx.get(), kSize);
  world.fabric().events().run_until([&] { return send->failed(); });
  ASSERT_TRUE(send->failed());
  ASSERT_EQ(world.engine(1).stats().payload_bytes_copied, 0u) << "bulk chunk already landed";
  // The loan ended with the bulk chunk in flight: it now reads a copy.
  EXPECT_EQ(world.engine(0).stats().payload_bytes_copied, kSize);

  tx.reset();  // a failed send's buffer is the application's again
  world.fabric().events().run_all();

  EXPECT_FALSE(recv->done());  // the tail never arrived
  EXPECT_EQ(recv->bytes_received, kSize - kTail);
  EXPECT_TRUE(std::equal(rx.begin(), rx.end() - kTail, pattern.begin()));
}

TEST(PayloadLoan, DuplicateAfterFinNeverReadsTheBuffer) {
  // With reliability on, the receiver checksums the duplicate before its
  // sequence window drops it, so the late view is read: from the copy the
  // ended loan left, never from the freed buffer.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliability on" : "reliability off");
    WorldConfig cfg = paper_testbed("hetero-split");
    cfg.engine.reliability.enabled = reliable;
    // A slow rail 1: its duplicate trails the original by one wire latency,
    // well after the FIN has crossed rail 0.
    cfg.fabric.rails[1].wire_latency_us = 200.0;
    World world(std::move(cfg));
    constexpr std::size_t kSize = 256_KiB;
    install(world, kSize);  // the whole message is one DATA chunk on rail 1
    world.fabric().nic(0, 1).inject_fault(fault(fabric::FaultKind::kDup));

    const std::vector<std::uint8_t> pattern = test::make_pattern(kSize, 9);
    auto tx = std::make_unique<std::uint8_t[]>(kSize);
    std::memcpy(tx.get(), pattern.data(), kSize);
    std::vector<std::uint8_t> rx(kSize, 0);
    auto recv = world.engine(1).irecv(0, 1, rx.data(), kSize);
    auto send = world.engine(0).isend(1, 1, tx.get(), kSize);
    world.wait(send);
    ASSERT_TRUE(recv->done());
    const EngineStats& rx_stats = world.engine(1).stats();
    EXPECT_EQ(rx_stats.duplicate_chunks + rx_stats.rel_dup_suppressed, 0u)
        << "duplicate landed before the FIN";
    // The duplicate was still in flight when the send completed. (The
    // reliability stash copied the chunk once more at post time.)
    EXPECT_EQ(world.engine(0).stats().payload_bytes_copied, reliable ? 2 * kSize : kSize);

    tx.reset();  // a completed send's buffer is the application's again
    world.fabric().events().run_all();

    EXPECT_EQ(world.fabric().nic(0, 1).segments_duplicated(), 1u);
    EXPECT_EQ(rx_stats.duplicate_chunks + rx_stats.rel_dup_suppressed, 1u);
    EXPECT_EQ(rx_stats.rel_corruptions, 0u);  // the late copy checksums clean
    EXPECT_EQ(rx, pattern);
    EXPECT_EQ(world.fabric().events().handler_spills(), 0u);  // duplicate closure too
  }
}

}  // namespace
}  // namespace rails::core

// Shared helpers for the rails test suite.
#pragma once

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine_events.hpp"

namespace rails::test {

/// Deterministic byte pattern derived from (seed, index): catches both
/// missing fragments and fragments written at the wrong offset.
inline std::vector<std::uint8_t> make_pattern(std::size_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(size);
  for (std::size_t i = 0; i < size; ++i) {
    buf[i] = static_cast<std::uint8_t>((seed * 1315423911u + i * 2654435761u) >> 24);
  }
  return buf;
}

inline bool matches_pattern(const std::vector<std::uint8_t>& buf, std::uint64_t seed) {
  const auto expect = make_pattern(buf.size(), seed);
  return buf == expect;
}

/// A fault-free world never fires fault machinery: no chunk timeout,
/// failover, quarantine or retry, and no reliability retransmit or NACK.
inline void expect_fault_free_quiet(const core::EngineStats& s) {
  EXPECT_EQ(s.chunk_timeouts, 0u);
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(s.quarantines, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.rel_retransmits, 0u);
  EXPECT_EQ(s.rel_nacks, 0u);
}

}  // namespace rails::test

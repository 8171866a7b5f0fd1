// Recycling pool for segment payload buffers.
//
// Every eager segment and DMA chunk carries its payload in a
// std::vector<uint8_t>; without pooling that is one heap allocation per
// segment on the hot path. Buffers are pooled per power-of-two capacity
// class and allocated at their exact size, so a small segment never pins a
// buffer grown for a large chunk. The pool is process-wide (segments migrate
// between sender and receiver engines inside one process) and bounded, and
// it is an immortal leaked singleton for the same reason as RequestPool:
// segments may outlive any engine. See docs/PERF.md.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace rails::fabric {

class BufferPool {
 public:
  static BufferPool& instance() {
    static BufferPool* pool = new BufferPool();
    return *pool;
  }

  /// An empty buffer with room for `bytes`. It is the newest of the last
  /// few buffers in the capacity class of `bytes` that is large enough,
  /// else any buffer of the next class up, else the newest buffer of its
  /// own class grown to fit, else a fresh one. New storage is always
  /// exactly `bytes`. Zero bytes needs no buffer at all.
  std::vector<std::uint8_t> acquire(std::size_t bytes) {
    if (bytes == 0) return {};
    std::vector<std::uint8_t> buf = take_for(bytes);
    buf.reserve(bytes);
    return buf;
  }

  /// Returns a buffer to the pool (cleared, capacity kept), filed under
  /// the class of its capacity. Buffers past the bound are simply freed —
  /// the pool caps retained memory, it does not guarantee recycling.
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0) return;
    buf.clear();
    const unsigned cls = class_of(buf.capacity());
    std::lock_guard<std::mutex> lock(mu_);
    if (pooled_ >= kMaxPooled) return;
    classes_[cls].push_back(std::move(buf));
    ++pooled_;
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_;
  }

 private:
  static constexpr std::size_t kMaxPooled = 1024;
  /// Class c holds buffers of capacity [2^c, 2^(c+1)).
  static constexpr unsigned kClasses = 64;
  /// Buffers of its own class an acquire inspects, newest first.
  static constexpr std::size_t kScan = 8;

  BufferPool() = default;

  static unsigned class_of(std::size_t n) {
    return static_cast<unsigned>(std::bit_width(n)) - 1;
  }
  std::vector<std::uint8_t> take_for(std::size_t bytes) {
    const unsigned cls = class_of(bytes);
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::uint8_t>>& same = classes_[cls];
    const std::size_t scan = std::min(same.size(), kScan);
    for (std::size_t i = same.size(); i > same.size() - scan; --i) {
      if (same[i - 1].capacity() >= bytes) return take(same, i - 1);
    }
    if (cls + 1 < kClasses && !classes_[cls + 1].empty()) {
      return take(classes_[cls + 1], classes_[cls + 1].size() - 1);
    }
    if (!same.empty()) return take(same, same.size() - 1);
    return {};
  }
  /// Removes bucket[i] (swapping the newest into its place); caller holds mu_.
  std::vector<std::uint8_t> take(std::vector<std::vector<std::uint8_t>>& bucket,
                                 std::size_t i) {
    std::vector<std::uint8_t> buf = std::move(bucket[i]);
    if (i + 1 != bucket.size()) bucket[i] = std::move(bucket.back());
    bucket.pop_back();
    --pooled_;
    return buf;
  }

  mutable std::mutex mu_;
  std::array<std::vector<std::vector<std::uint8_t>>, kClasses> classes_;
  std::size_t pooled_ = 0;
};

/// A pooled payload buffer with room for `bytes`.
inline std::vector<std::uint8_t> acquire_payload(std::size_t bytes) {
  return BufferPool::instance().acquire(bytes);
}
inline void recycle_payload(std::vector<std::uint8_t>&& buf) {
  BufferPool::instance().release(std::move(buf));
}

}  // namespace rails::fabric

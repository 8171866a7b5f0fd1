// Recycling slab pool for hot-path request objects.
//
// PoolHandle<T> is a shared_ptr-like owner backed by a freelist of
// slab-allocated slots, so steady-state acquire/release never touches the
// allocator (docs/PERF.md "hot path & memory discipline"). Each slot
// carries a generation counter bumped on every release: tests and debug
// assertions can detect a handle outliving its object's recycling.
// pool_recycle(T&) is an ADL customization point invoked on release; it
// must reset the object for reuse while keeping owned buffers' capacity.
//
// Pools are immortal process singletons — deliberately leaked but
// reachable through a static pointer (LSan-clean) — because handles may
// outlive any Engine or World that produced them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace rails {

template <typename T>
class RequestPool;

template <typename T>
struct PoolSlot {
  T obj{};
  std::atomic<std::uint32_t> refs{0};
  std::atomic<std::uint32_t> generation{0};
  RequestPool<T>* pool = nullptr;
  PoolSlot* next_free = nullptr;
};

/// Intrusively refcounted owner of a pooled slot. Copy = one relaxed
/// atomic increment; final release recycles the slot back to its pool.
template <typename T>
class PoolHandle {
 public:
  PoolHandle() = default;
  PoolHandle(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Adopts the initial reference minted by RequestPool::acquire().
  explicit PoolHandle(PoolSlot<T>* slot) : slot_(slot) {}

  PoolHandle(const PoolHandle& o) : slot_(o.slot_) {
    if (slot_ != nullptr) slot_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PoolHandle(PoolHandle&& o) noexcept : slot_(std::exchange(o.slot_, nullptr)) {}
  PoolHandle& operator=(const PoolHandle& o) {
    PoolHandle tmp(o);
    std::swap(slot_, tmp.slot_);
    return *this;
  }
  PoolHandle& operator=(PoolHandle&& o) noexcept {
    PoolHandle tmp(std::move(o));
    std::swap(slot_, tmp.slot_);
    return *this;
  }
  ~PoolHandle() { reset(); }

  void reset();

  T* get() const { return slot_ != nullptr ? &slot_->obj : nullptr; }
  T& operator*() const { return slot_->obj; }
  T* operator->() const { return &slot_->obj; }
  explicit operator bool() const { return slot_ != nullptr; }

  /// Handles sharing the slot right now (0 for an empty handle).
  std::uint32_t use_count() const {
    return slot_ != nullptr ? slot_->refs.load(std::memory_order_relaxed) : 0;
  }

  /// Generation of the underlying slot at the time of the call. A recycled
  /// slot reports a larger generation than any handle that owned it before.
  std::uint32_t generation() const {
    return slot_ != nullptr ? slot_->generation.load(std::memory_order_relaxed)
                            : 0;
  }

  friend bool operator==(const PoolHandle& a, const PoolHandle& b) {
    return a.slot_ == b.slot_;
  }
  friend bool operator!=(const PoolHandle& a, const PoolHandle& b) {
    return a.slot_ != b.slot_;
  }
  friend bool operator==(const PoolHandle& h, std::nullptr_t) {
    return h.slot_ == nullptr;
  }
  friend bool operator!=(const PoolHandle& h, std::nullptr_t) {
    return h.slot_ != nullptr;
  }

 private:
  PoolSlot<T>* slot_ = nullptr;
};

template <typename T>
class RequestPool {
 public:
  /// The process-wide pool for T. Immortal: never destroyed, so handles
  /// released during static teardown still have a live freelist.
  static RequestPool& instance() {
    static RequestPool* pool = new RequestPool();
    return *pool;
  }

  PoolHandle<T> acquire() {
    PoolSlot<T>* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (free_ == nullptr) grow_locked();
      slot = free_;
      free_ = slot->next_free;
      ++live_;
    }
    slot->next_free = nullptr;
    slot->refs.store(1, std::memory_order_relaxed);
    return PoolHandle<T>(slot);
  }

  void release(PoolSlot<T>* slot) {
    pool_recycle(slot->obj);  // ADL hook: reset fields, keep capacity
    slot->generation.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    slot->next_free = free_;
    free_ = slot;
    --live_;
    ++recycled_;
  }

  /// Handles currently outstanding.
  std::size_t live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }
  /// Total releases back to the freelist since process start.
  std::uint64_t recycled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recycled_;
  }
  /// Total slots ever slab-allocated (high-water mark of concurrent use).
  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slabs_.size() * kSlabSlots;
  }

 private:
  static constexpr std::size_t kSlabSlots = 64;

  RequestPool() = default;

  void grow_locked() {
    auto* slab = new PoolSlot<T>[kSlabSlots];
    slabs_.push_back(slab);
    for (std::size_t i = 0; i < kSlabSlots; ++i) {
      slab[i].pool = this;
      slab[i].next_free = free_;
      free_ = &slab[i];
    }
  }

  mutable std::mutex mu_;
  PoolSlot<T>* free_ = nullptr;
  std::vector<PoolSlot<T>*> slabs_;
  std::size_t live_ = 0;
  std::uint64_t recycled_ = 0;
};

template <typename T>
inline void PoolHandle<T>::reset() {
  if (slot_ != nullptr &&
      slot_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    slot_->pool->release(slot_);
  }
  slot_ = nullptr;
}

}  // namespace rails

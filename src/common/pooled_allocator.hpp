// Recycled storage for the vectors a planning pass returns.
//
// Every plan_eager call builds fresh vectors that the engine drops once it
// has posted them. PooledAllocator files each freed block on a free list
// per power-of-two size class and hands it out again, so once the classes
// are warm, planning never reaches operator new. Blocks are kept, never
// freed: the lists hold at most the peak number of live plan blocks. The
// pool is an immortal leaked singleton, like fabric::BufferPool, so a vector
// destroyed during static teardown still finds it. See docs/PERF.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <mutex>
#include <new>

namespace rails {

class BlockPool {
 public:
  static BlockPool& instance() {
    static BlockPool* pool = new BlockPool();
    return *pool;
  }

  void* take(std::size_t bytes) {
    const unsigned cls = class_of(bytes);
    if (cls >= kClasses) return ::operator new(bytes);
    std::lock_guard<std::mutex> lock(mu_);
    Node* n = free_[cls];
    if (n == nullptr) return ::operator new(std::size_t{1} << cls);
    free_[cls] = n->next;
    return n;
  }
  void give(void* p, std::size_t bytes) noexcept {
    const unsigned cls = class_of(bytes);
    if (cls >= kClasses) return ::operator delete(p);
    std::lock_guard<std::mutex> lock(mu_);
    free_[cls] = new (p) Node{free_[cls]};
  }

 private:
  struct Node {
    Node* next;
  };
  static constexpr unsigned kClasses = 17;  ///< class c: 2^c-byte blocks
  static unsigned class_of(std::size_t bytes) {
    return static_cast<unsigned>(std::bit_width(std::max(bytes, sizeof(Node)) - 1));
  }

  std::mutex mu_;
  Node* free_[kClasses] = {};
};

template <class T>
struct PooledAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;
  PooledAllocator() = default;
  template <class U>
  PooledAllocator(const PooledAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(BlockPool::instance().take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { BlockPool::instance().give(p, n * sizeof(T)); }
  friend bool operator==(const PooledAllocator&, const PooledAllocator&) { return true; }
};

}  // namespace rails

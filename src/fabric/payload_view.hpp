// Borrowed payloads: how a rendezvous DATA chunk carries its bytes.
//
// A DMA chunk reads straight from the sender's buffer (§III), so a kData
// segment does not own a copy of its bytes. It holds a PayloadRef to the
// PayloadSource that lends the whole message and reads the range
// [offset, offset + view_len) of it. The receiver's memcpy into the posted
// buffer is then the only host copy a chunk costs.
//
// The lender ends its loan with end_loan() once the send is done or has
// failed. If views are still in flight at that point (wire duplicates,
// spurious retransmits, the survivors of a failed send), the source first
// copies the lent bytes into storage of its own, so from then on nothing
// reads the lender's memory. Sources recycle through a slab pool
// (common/request_pool.hpp), so lending allocates nothing once warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/request_pool.hpp"
#include "fabric/buffer_pool.hpp"

namespace rails::fabric {

struct PayloadSource {
  /// Where the lent bytes live: the lender's buffer, or `owned` once the
  /// loan ended with views still in flight.
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  std::vector<std::uint8_t> owned;
};

/// Shared reference to a source; each in-flight view holds one.
using PayloadRef = PoolHandle<PayloadSource>;

/// Returns the detached copy to the payload pool.
inline void pool_recycle(PayloadSource& s) {
  s.data = nullptr;
  s.len = 0;
  recycle_payload(std::exchange(s.owned, {}));
}

/// Lends `len` bytes at `data` to the views made from the returned ref.
inline PayloadRef lend_payload(const std::uint8_t* data, std::size_t len) {
  PayloadRef ref = RequestPool<PayloadSource>::instance().acquire();
  ref->data = data;
  ref->len = len;
  return ref;
}

/// Ends the lender's share of `ref` (a no-op on an empty ref). Views still
/// in flight switch to a private copy of the lent bytes first. Returns the
/// bytes copied: 0 when no view was left.
inline std::size_t end_loan(PayloadRef& ref) {
  std::size_t copied = 0;
  if (ref.use_count() > 1) {
    PayloadSource& s = *ref;
    s.owned = acquire_payload(s.len);
    s.owned.assign(s.data, s.data + s.len);
    s.data = s.owned.data();
    copied = s.len;
  }
  ref.reset();
  return copied;
}

/// A source of zero bytes that nobody ever writes, for probes that only
/// price a size (the samplers): it is never faulted in. Holds
/// kZeroPayloadBytes bytes.
const PayloadRef& zero_payload();
inline constexpr std::size_t kZeroPayloadBytes = std::size_t{16} << 20;

}  // namespace rails::fabric

#include "fabric/payload_view.hpp"

namespace rails::fabric {

const PayloadRef& zero_payload() {
  // Zero-initialised static storage (.bss): pages nobody touches are never
  // faulted in, so priced-but-unread probe payloads cost no memory. The
  // immortal ref keeps the source out of the pool for good.
  alignas(64) static std::uint8_t zeros[kZeroPayloadBytes];
  static const PayloadRef* ref = new PayloadRef(lend_payload(zeros, sizeof(zeros)));
  return *ref;
}

}  // namespace rails::fabric

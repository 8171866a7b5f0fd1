// Wire format: the unit of data a NIC injects onto a rail.
//
// A segment is what one driver post produces. The header fields cover the
// whole engine protocol (eager data — possibly carrying several aggregated
// application packets — rendezvous control, and rendezvous DMA chunks), so
// the fabric can stay ignorant of engine policy while still letting tests
// inspect traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fabric/payload_view.hpp"

namespace rails::fabric {

enum class SegKind : std::uint8_t {
  kEager = 0,  ///< eager data; payload framed as one or more sub-packets
  kRts,        ///< rendezvous request-to-send (control)
  kCts,        ///< rendezvous clear-to-send (control)
  kData,       ///< rendezvous DMA chunk
  kFin,        ///< rendezvous completion notification (control)
  kAck,        ///< reliability: cumulative + selective acknowledgement (control)
  kNack,       ///< reliability: checksum-failure report, names the bad `seq`
};

const char* to_string(SegKind kind);

struct Segment {
  SegKind kind = SegKind::kEager;

  /// Retransmission generation: 0 for the original post, incremented each
  /// time the engine re-posts the same byte range after a NIC error or a
  /// chunk timeout. Lets stale timeout events recognise superseded chunks.
  std::uint8_t attempt = 0;

  /// Set by SimNic::post when a kDrop fault picked this segment: the wire
  /// eats it after the sender's completion fires. A delivered segment
  /// never carries it.
  bool silent_drop = false;

  NodeId src = 0;
  NodeId dst = 0;
  RailId rail = 0;

  /// End-to-end wire checksum (CRC32C over the protocol-stable header
  /// fields + payload; see Engine's reliability layer). 0 when reliability
  /// is off. Excluded from its own coverage, as on any real wire.
  std::uint32_t crc = 0;

  /// Length of the borrowed payload when `view` is set.
  std::uint32_t view_len = 0;

  /// Engine-assigned message id (per source node); control segments of one
  /// rendezvous share the id of their message.
  std::uint64_t msg_id = 0;
  Tag tag = 0;

  /// For kData: byte offset of this chunk inside the message. For kRts: the
  /// full message length travels in `total_len`.
  std::uint64_t offset = 0;
  std::uint64_t total_len = 0;

  /// Reliability sequence number, per (src, dst) link, assigned when the
  /// sending engine has `reliability` enabled. 0 = unsequenced (reliability
  /// off, or a kAck/kNack control segment — for kAck this field instead
  /// carries the cumulative acknowledgement).
  std::uint64_t seq = 0;

  /// Owned payload bytes (kEager, and retransmitted or corrupted kData).
  /// Control segments carry none.
  std::vector<std::uint8_t> payload;

  /// Borrowed payload (kData, sampling probes): bytes
  /// [offset, offset + view_len) of the source (fabric/payload_view.hpp).
  /// Empty when the segment owns its bytes.
  PayloadRef view;

  /// Payload length, owned or borrowed; everything sizes a segment by this.
  std::size_t payload_size() const { return view ? view_len : payload.size(); }

  /// The payload bytes, owned or borrowed.
  std::span<const std::uint8_t> payload_bytes() const {
    if (view) return {view->data + offset, view_len};
    return payload;
  }

  /// Borrows `len` bytes of `source`, starting at this segment's `offset`.
  void lend(PayloadRef source, std::size_t len) {
    view = std::move(source);
    view_len = static_cast<std::uint32_t>(len);
  }

  /// Turns a borrowed payload into owned bytes (for anything that writes
  /// them, like a bit-flipping fault); a no-op on an owned payload.
  void own_payload() {
    if (!view) return;
    const std::span<const std::uint8_t> bytes = payload_bytes();
    payload = acquire_payload(bytes.size());
    payload.assign(bytes.begin(), bytes.end());
    view.reset();
    view_len = 0;
  }

  /// A payload of `len` never-written zero bytes, for probes that only
  /// price a size: borrowed from zero_payload(), or owned past its size.
  void borrow_zeros(std::size_t len) {
    if (offset + len <= kZeroPayloadBytes) {
      lend(zero_payload(), len);
    } else {
      payload.assign(len, 0);
    }
  }

  std::size_t wire_size() const { return payload_size() + kHeaderBytes; }

  /// Modeled size of the segment header on the wire. The reliability fields
  /// (seq, crc) occupy reserved bytes of the original 40-byte header, so
  /// enabling reliability does not change modeled wire occupancy.
  static constexpr std::size_t kHeaderBytes = 40;
};

// Fits a delivery closure with three words of context in an event's inline
// storage (fabric/event_queue.hpp); the flag and the view length sit in
// what used to be padding.
static_assert(sizeof(Segment) == 96);

}  // namespace rails::fabric

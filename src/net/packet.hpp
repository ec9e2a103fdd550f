// Over-the-air packet representation.
//
// One struct covers data frames and the MAC control frames (RTS/CTS/ACK)
// the paper's case study II describes for the CC1000 stack, plus the
// protocol frames used by case study III (CTP beacons/data, heartbeats).
#pragma once

#include <cstdint>
#include <vector>

namespace sent::net {

using NodeId = std::uint16_t;

/// Destination address meaning "all audible nodes".
inline constexpr NodeId kBroadcast = 0xFFFF;

enum class FrameType : std::uint8_t {
  Data,  ///< carries an active-message payload
  Rts,   ///< request-to-send (MAC control)
  Cts,   ///< clear-to-send (MAC control)
  Ack,   ///< link-layer acknowledgement (MAC control)
};

struct Packet {
  FrameType type = FrameType::Data;
  NodeId src = 0;
  NodeId dst = kBroadcast;

  /// Active-message type: demultiplexes Data frames to protocols.
  std::uint8_t am_type = 0;

  /// Multi-hop bookkeeping: the node that originated the payload and its
  /// per-origin sequence number (for duplicate suppression).
  NodeId origin = 0;
  std::uint16_t seq = 0;

  /// Application payload (sensor readings, beacon fields, ...).
  std::vector<std::uint8_t> payload;

  /// Bytes on air: preamble+header for every frame, payload for Data.
  std::size_t size_bytes() const;
};

/// Serialize/deserialize 16-bit values into payloads (little endian).
void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v);
std::uint16_t get_u16(const std::vector<std::uint8_t>& buf,
                      std::size_t offset);

}  // namespace sent::net

#include "net/packet.hpp"

#include "util/assert.hpp"

namespace sent::net {

namespace {
// CC1000-flavoured sizes: preamble+sync+header+crc for data frames,
// short fixed frames for MAC control.
constexpr std::size_t kDataOverheadBytes = 12;
constexpr std::size_t kControlFrameBytes = 6;
}  // namespace

std::size_t Packet::size_bytes() const {
  if (type == FrameType::Data) return kDataOverheadBytes + payload.size();
  return kControlFrameBytes;
}

void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v & 0xFF));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& buf,
                      std::size_t offset) {
  SENT_REQUIRE(offset + 1 < buf.size() + 1 && offset + 2 <= buf.size());
  return static_cast<std::uint16_t>(buf[offset]) |
         static_cast<std::uint16_t>(buf[offset + 1]) << 8;
}

}  // namespace sent::net

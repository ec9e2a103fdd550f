#include "net/topology.hpp"

#include "util/assert.hpp"

namespace sent::net {

void make_chain(Channel& channel, const std::vector<NodeId>& nodes) {
  SENT_REQUIRE(nodes.size() >= 2);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    channel.add_link(nodes[i], nodes[i + 1]);
}

std::vector<NodeId> make_grid(Channel& channel, std::size_t rows,
                              std::size_t cols, NodeId first_id) {
  SENT_REQUIRE(rows >= 1 && cols >= 1 && rows * cols >= 2);
  std::vector<NodeId> ids;
  ids.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      ids.push_back(static_cast<NodeId>(first_id + r * cols + c));
  auto at = [&](std::size_t r, std::size_t c) { return ids[r * cols + c]; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) channel.add_link(at(r, c), at(r, c + 1));
      if (r + 1 < rows) channel.add_link(at(r, c), at(r + 1, c));
    }
  }
  return ids;
}

}  // namespace sent::net

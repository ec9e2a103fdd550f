// Topology builders for multi-node experiments.
#pragma once

#include <cstddef>
#include <vector>

#include "net/channel.hpp"

namespace sent::net {

/// Connect 0-1-2-...-(n-1) as a chain (case study II uses a 3-node chain).
void make_chain(Channel& channel, const std::vector<NodeId>& nodes);

/// rows x cols grid with 4-neighbour connectivity; node ids are assigned
/// row-major starting at `first_id`. Returns the ids. Case study III uses
/// a 3x3 grid of 9 nodes.
std::vector<NodeId> make_grid(Channel& channel, std::size_t rows,
                              std::size_t cols, NodeId first_id = 0);

}  // namespace sent::net

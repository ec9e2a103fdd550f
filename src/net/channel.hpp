// Shared radio medium.
//
// Models what the case studies need from RF: airtime occupancy (carrier
// sense), collisions (overlapping audible transmissions corrupt each
// other at a receiver), independent random loss per link, and restricted
// connectivity (multi-hop topologies). Nodes attach as RadioListeners;
// hw::RadioChip is the production listener.
//
// Connectivity is kept as flat bit rows over dense node indices (a node's
// index is the order in which the channel first saw its id): audibility is
// one bit test, and collision marking is a row AND. Deliveries go to the
// listeners in ascending node id.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sent::net {

/// Receiver-side hook, implemented by the radio chip.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  /// A frame arrived intact (post collision/loss filtering).
  virtual void on_frame(const Packet& packet) = 0;
};

class Channel {
 public:
  Channel(sim::EventQueue& queue, util::Rng rng);

  /// Attach a node. All attached nodes hear each other unless restrict_
  /// links are configured.
  void add_node(NodeId id, RadioListener* listener);

  /// Independent per-delivery drop probability (default 0).
  void set_loss_rate(double p);

  /// Switch loss to a two-state Gilbert-Elliott model: each (sender,
  /// receiver) link wanders between a Good state (loss `loss_good`) and a
  /// Bad/burst state (loss `loss_bad`), flipping at each delivery with
  /// probabilities p_good_to_bad / p_bad_to_good. Models the bursty
  /// fading real deployments see. Overrides set_loss_rate.
  struct GilbertElliott {
    double loss_good = 0.0;
    double loss_bad = 0.8;
    double p_good_to_bad = 0.05;
    double p_bad_to_good = 0.3;
  };
  void set_gilbert_elliott(const GilbertElliott& model);

  /// Switch to explicit connectivity and declare a bidirectional link.
  /// Before the first call every pair is connected.
  void add_link(NodeId a, NodeId b);

  /// True if `listener_node` can hear any in-flight transmission.
  bool carrier_busy(NodeId listener_node) const;

  /// Begin a transmission; the frame is delivered to audible nodes when
  /// the airtime elapses. Collisions with overlapping audible
  /// transmissions corrupt both frames at the affected receivers.
  void transmit(NodeId sender, const Packet& packet, sim::Cycle airtime);

  // --- statistics (benches/tests) ---
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_collided() const { return frames_collided_; }
  std::uint64_t frames_lost() const { return frames_lost_; }

 private:
  /// Dense node index; the channel's bit rows have one bit per index.
  using Index = std::uint32_t;
  static constexpr Index kUnknown = ~Index{0};

  struct Listener {
    NodeId id;
    Index index;
    RadioListener* listener;
  };

  struct Tx {
    std::uint64_t id;
    NodeId sender;
    Index sender_index;
    Packet packet;
    sim::Cycle end;
    /// Receivers whose copy of this frame was hit by a collision (a bit
    /// row over node indices).
    std::vector<std::uint64_t> corrupted;
  };

  sim::EventQueue& queue_;
  util::Rng rng_;
  std::vector<Listener> listeners_;  ///< ascending id: delivery order
  std::vector<Index> index_of_;      ///< NodeId -> index + 1 (0 = unseen)
  Index known_ = 0;                  ///< indices handed out
  std::size_t words_ = 0;            ///< 64-bit words per bit row
  /// Row i: the nodes that hear node i. Symmetric, empty diagonal.
  std::vector<std::uint64_t> hears_;
  std::vector<std::uint64_t> attached_;  ///< one row: attached nodes
  double loss_rate_ = 0.0;
  std::optional<GilbertElliott> ge_model_;
  /// Per-directed-link burst state under the Gilbert-Elliott model.
  mutable std::map<std::pair<NodeId, NodeId>, bool> ge_burst_;
  bool restricted_ = false;
  std::vector<Tx> active_;
  /// Corrupted-receiver rows of finished transmissions, reused by the
  /// next ones so a transmission allocates nothing once warm.
  std::vector<std::vector<std::uint64_t>> spare_rows_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t frames_sent_ = 0, frames_delivered_ = 0,
                frames_collided_ = 0, frames_lost_ = 0;

  /// The node's index, or kUnknown if the channel never saw the id.
  Index index_of(NodeId id) const {
    return id < index_of_.size() ? index_of_[id] - 1 : kUnknown;
  }
  /// The node's index, handing out the next one on first sight.
  Index intern(NodeId id);
  static bool test(const std::uint64_t* row, Index i) {
    return (row[i / 64] >> (i % 64)) & 1;
  }
  static void set(std::uint64_t* row, Index i) {
    row[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  std::uint64_t* hears_row(Index i) { return hears_.data() + i * words_; }
  const std::uint64_t* hears_row(Index i) const {
    return hears_.data() + i * words_;
  }
  bool connected(Index a, Index b) const { return test(hears_row(a), b); }
  void finish(std::uint64_t tx_id);
  /// Decide (and advance the state of) one delivery attempt on a link.
  bool delivery_lost(NodeId from, NodeId to);
};

}  // namespace sent::net

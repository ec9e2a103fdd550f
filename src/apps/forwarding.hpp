// Case study II applications: multi-hop packet forwarding (BlinkToRadio-
// style), nodes 0 (sink) <- 1 (relay) <- 2 (source).
//
// RandomSourceApp injects packet-arrival events at the relay by sending
// data packets at randomized (exponential) intervals — "by randomizing the
// packet sending ratio of node 2, we can inject a random sequence of packet
// arrival events for node 1 to handle" (§VI-C).
//
// RelayApp's packet-arrival event procedure is the paper's key function
// pair: Receive.receive directly calls AMSend.send to forward the packet.
//
// THE BUG: when a packet arrives while the radio chip's busy flag is still
// set from forwarding the previous packet (the flag spans the whole
// RTS/CTS/DATA/ACK exchange), AMSend.send fails and the packet is ACTIVELY
// DROPPED. The paper's fix — "the protocol should queue up a received
// packet and send it when the busy flag is cleared" — is the repaired app
// (RelayMutation::None), which buffers arrivals and pumps the queue from
// send-done.
#pragma once

#include <cstdint>
#include <deque>

#include "hw/radio.hpp"
#include "os/node.hpp"
#include "proto/am.hpp"
#include "util/rng.hpp"

namespace sent::apps {

// ---------------------------------------------------------------- source

struct RandomSourceConfig {
  net::NodeId dst = 1;                ///< next hop (the relay)
  sim::Cycle mean_interval = sim::cycles_from_millis(100);
  sim::Cycle min_interval = sim::cycles_from_millis(1);
  /// Payload length drawn uniformly per packet (sensor reports vary).
  std::size_t min_payload_bytes = 4;
  std::size_t max_payload_bytes = 16;
};

class RandomSourceApp {
 public:
  RandomSourceApp(os::Node& node, hw::RadioChip& chip,
                  RandomSourceConfig config, util::Rng rng);

  RandomSourceApp(const RandomSourceApp&) = delete;
  RandomSourceApp& operator=(const RandomSourceApp&) = delete;

  void start();

  std::uint64_t sent() const { return sent_; }
  std::uint64_t skipped_busy() const { return skipped_busy_; }

 private:
  os::Node& node_;
  hw::RadioChip& chip_;
  RandomSourceConfig config_;
  util::Rng rng_;
  trace::IrqLine timer_line_ = 0;
  std::uint16_t seq_ = 0;
  std::uint64_t sent_ = 0, skipped_busy_ = 0;

  sim::Cycle next_delay();
};

// ----------------------------------------------------------------- relay

/// Which transient bug the relay carries (DESIGN.md §16). Each member but
/// `None` builds one taxonomy class of bug into the relay; `None` is the
/// repaired relay. The config's default is the paper's bug.
enum class RelayMutation : std::uint8_t {
  None = 0,
  /// Shared-flag race: the drop-on-busy receive path (the paper's case-II
  /// bug).
  BusyDrop,
  /// Atomicity: a deferred-forwarding refactor stages each arrival into a
  /// single-slot mailbox the forward task reads — the handler can overwrite
  /// the slot while the task is still consuming it.
  TornMailbox,
  /// Ordering: the forward task pops the queue BEFORE the send result is
  /// known, so a Busy send loses the packet it already surrendered.
  PopFirst,
};

struct RelayConfig {
  net::NodeId next_hop = 0;  ///< where forwarded packets go (the sink)
  std::size_t queue_capacity = 8;

  /// The bug built into the relay; None builds the repaired
  /// (queue-and-pump) relay.
  RelayMutation mutation = RelayMutation::BusyDrop;
  /// TornMailbox: cycles per checksum-loop iteration in the forward task.
  /// Stretches the window in which the slot is being read, so the tear
  /// probability is a swept corpus parameter.
  std::uint32_t mailbox_iteration_cost = 900;
};

class RelayApp {
 public:
  RelayApp(os::Node& node, hw::RadioChip& chip, RelayConfig config);

  RelayApp(const RelayApp&) = delete;
  RelayApp& operator=(const RelayApp&) = delete;

  std::uint64_t received() const { return received_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_busy() const { return dropped_busy_; }
  std::uint64_t dropped_queue_full() const { return dropped_full_; }
  std::uint64_t torn_overwrites() const { return torn_overwrites_; }
  std::uint64_t lost_pop_first() const { return lost_pop_first_; }

 private:
  os::Node& node_;
  hw::RadioChip& chip_;
  RelayConfig config_;
  hw::RadioChip::Event event_{};
  std::deque<net::Packet> queue_;  // repaired + PopFirst relays
  std::uint32_t csum_pos_ = 0;     // checksum-loop scratch register
  std::uint32_t csum_len_ = 0;     // payload length of the taken packet
  std::uint32_t seq_mod8_ = 0;     // event_.packet.seq % 8, set by "take"

  // Mutation state (TornMailbox / PopFirst).
  trace::TaskId forward_task_ = 0;
  net::Packet mailbox_{};        // single staging slot (TornMailbox)
  bool mailbox_full_ = false;    // slot holds an unconsumed packet
  net::Packet popped_{};         // packet surrendered by the queue (PopFirst)
  bool send_lost_ = false;       // PopFirst: last send lost its packet
  std::uint32_t log_remaining_ = 0;  // loss-path bookkeeping loop

  std::uint64_t received_ = 0, forwarded_ = 0, dropped_busy_ = 0,
                dropped_full_ = 0, torn_overwrites_ = 0, lost_pop_first_ = 0;

  void build_busy_drop();
  void build_repaired();
  void build_torn_mailbox();
  void build_pop_first();
};

}  // namespace sent::apps

// Case study III application: event detection over CTP, co-existing with a
// heartbeat protocol (paper §VI-D).
//
// Every node runs the same program image:
//   * CTP routing (periodic beacons, min-ETX parent) and forwarding
//     (bounded queue, `sending` mark, retransmissions) toward the root;
//   * a heartbeat broadcast every 500 ms;
//   * a report timer: while an external "event of interest" is active, a
//     source node samples a reading, enqueues it into CTP and pumps the
//     forwarding engine. This timer's interrupt line is the event type the
//     paper anatomizes ("the timeout event procedure ... the timer to
//     report sensing data").
//
// THE BUG: CTP's sendTask sets the `sending` mark, then calls the radio.
// When the chip is busy — e.g. this node's own heartbeat or beacon is
// still on air — send returns FAIL, which CTP does not handle: the mark is
// never reset, no send-done will arrive, and the node's CTP hangs forever
// (proto::CtpNode::on_send_fail). The repaired app (CtpMutation::None)
// clears the mark and retries after a short delay.
#pragma once

#include <cstdint>
#include <memory>

#include "hw/radio.hpp"
#include "os/node.hpp"
#include "proto/ctp.hpp"
#include "proto/heartbeat.hpp"
#include "util/rng.hpp"

namespace sent::apps {

/// Which transient bug the app carries (DESIGN.md §16). `None` is the
/// repaired app; the config's default is the paper's bug.
enum class CtpMutation : std::uint8_t {
  None = 0,
  StuckSending,  ///< shared-flag: FAIL path leaves `sending` set forever
};

struct CtpHeartbeatConfig {
  bool is_root = false;
  bool is_source = false;

  sim::Cycle beacon_period = sim::cycles_from_millis(1000);
  sim::Cycle report_period = sim::cycles_from_millis(600);
  sim::Cycle heartbeat_period = sim::cycles_from_millis(500);

  /// Heartbeat payload padding; larger heartbeats hold the radio longer,
  /// widening the contention window with CTP.
  std::size_t heartbeat_padding = 96;

  /// External event-of-interest process: alternating active/idle phases
  /// with exponential durations.
  sim::Cycle mean_event_on = sim::cycles_from_millis(3000);
  sim::Cycle mean_event_off = sim::cycles_from_millis(1500);

  /// Words of sensing payload the report handler encodes per sample. At 1
  /// (the default) the handler bit-encodes just the reading, exactly the
  /// original shape; larger values wrap the encode loop in an outer
  /// per-word pass, modelling nodes that report multi-word records. This
  /// is the report path's instruction-density knob, like case II's
  /// payload range (the benches crank it; the bug is width-agnostic).
  std::size_t encode_words = 1;

  /// When nonzero, the report timer's initial phase is deterministic:
  /// period + node_id * report_stagger, instead of the random phase. Spaces
  /// the sources' report handlers apart in virtual time so their
  /// instruction chains don't interleave — a benchmarking aid (the bug does
  /// not depend on report phasing).
  sim::Cycle report_stagger = 0;

  /// The bug built into the app; None builds the repaired app, which
  /// handles FAIL and retries after `retry_delay`.
  CtpMutation mutation = CtpMutation::StuckSending;
  sim::Cycle retry_delay = sim::cycles_from_millis(10);

  proto::CtpConfig ctp;  ///< self / is_root filled in by the app
};

class CtpHeartbeatApp {
 public:
  CtpHeartbeatApp(os::Node& node, hw::RadioChip& chip,
                  CtpHeartbeatConfig config, util::Rng rng);

  CtpHeartbeatApp(const CtpHeartbeatApp&) = delete;
  CtpHeartbeatApp& operator=(const CtpHeartbeatApp&) = delete;

  /// Start timers (with per-node random phases) and the event process.
  void start();

  /// The interrupt line of the report timer — the anatomized event type.
  trace::IrqLine report_line() const { return report_line_; }

  const proto::CtpNode& ctp() const { return *ctp_; }
  const proto::Heartbeat& heartbeat() const { return *heartbeat_; }

  bool event_active() const { return event_active_; }
  std::uint64_t reports_attempted() const { return reports_attempted_; }
  std::uint64_t beacons_sent() const { return beacons_sent_; }
  std::uint64_t beacons_skipped_busy() const { return beacons_skipped_; }

 private:
  os::Node& node_;
  hw::RadioChip& chip_;
  CtpHeartbeatConfig config_;
  util::Rng rng_;
  bool repaired_ = false;  ///< unmutated: FAIL handled + retried

  std::unique_ptr<proto::CtpNode> ctp_;
  std::unique_ptr<proto::Heartbeat> heartbeat_;

  trace::IrqLine beacon_line_ = 0;
  trace::IrqLine report_line_ = 0;
  trace::IrqLine heartbeat_line_ = 0;
  trace::IrqLine retry_line_ = 0;
  trace::TaskId send_task_ = 0;

  hw::RadioChip::Event event_{};
  // Typed-op mirrors of the taken event, refreshed by the SPI handler's
  // "take" instruction so the dispatch branches read plain u32 state.
  std::uint32_t ev_kind_ = 0;  ///< static_cast of event_.kind
  std::uint32_t ev_am_ = 0;    ///< event_.packet.am_type
  /// Mirror of ctp_->sending(), refreshed by every host instruction that
  /// can change it (set_sending / handle_fail / senddone), so the sendTask
  /// and report-timer guards are plain flag tests.
  bool sending_mirror_ = false;
  bool event_active_ = false;
  std::uint16_t reading_ = 0;
  std::uint32_t reading32_ = 0;  ///< u32 mirror for the range_check branch
  std::uint16_t enc_tmp_ = 0;    ///< encoding-loop scratch register
  std::uint16_t enc_rounds_ = 0;  ///< outer-loop counter (encode_words > 1)
  std::uint16_t rounds_init_ = 0;  ///< constant source: config.encode_words
  std::uint64_t reports_attempted_ = 0, beacons_sent_ = 0,
                beacons_skipped_ = 0;

  void build_code();
  void schedule_event_flip();
};

}  // namespace sent::apps

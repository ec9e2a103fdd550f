// CC1000-style radio chip.
//
// The chip exposes exactly the surface the paper's case studies depend on:
//
//   * a `send` that FAILS IMMEDIATELY (returns Busy) when the busy flag is
//     set — the flag is set for the whole RTS/CTS/DATA/ACK exchange and
//     "cleared only if it is done when a corresponding ACK packet arrives"
//     (§VI-C); case study II's bug actively drops a packet on this result
//     and case study III's CTP leaves its state machine wedged on it;
//   * an SPI interrupt raised for every chip event (packet arrival or send
//     completion), the event type of case study II;
//   * chip-autonomous CSMA with random backoff plus automatic CTS and ACK
//     responses, so control traffic occupies the channel without MCU help.
//
// MCU-facing methods (send / take_event / busy) are called from virtual
// instructions; everything else runs on the simulation event queue.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "hw/radio_params.hpp"
#include "mcu/machine.hpp"
#include "net/channel.hpp"
#include "os/irq.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sent::hw {

/// Immediate result of RadioChip::send (SUCCESS/EBUSY in TinyOS terms).
enum class SendResult : std::uint8_t { Ok, Busy };

/// Final status of an accepted transmission.
enum class TxStatus : std::uint8_t {
  Success,       ///< ACK received (or broadcast airtime finished)
  NoCts,         ///< RTS retries exhausted without CTS
  NoAck,         ///< DATA retries exhausted without ACK
  ChannelStuck,  ///< carrier never cleared (CCA attempts exhausted)
};

class RadioChip final : public net::RadioListener {
 public:
  RadioChip(sim::EventQueue& queue, mcu::Machine& machine,
            net::Channel& channel, net::NodeId node_id, util::Rng rng,
            RadioParams params = {});

  RadioChip(const RadioChip&) = delete;
  RadioChip& operator=(const RadioChip&) = delete;

  // ---- MCU-facing API -------------------------------------------------

  /// Begin a transmission. Returns Busy (and does nothing) if a previous
  /// transmission is still in progress. On Ok the busy flag is set until a
  /// TxDone event is delivered.
  SendResult send(net::Packet packet);

  bool busy() const { return busy_; }

  /// When disabled, send completions do not queue a TxDone event or raise
  /// the SPI interrupt (fire-and-forget firmware configuration); the busy
  /// flag still clears and statistics still count. Packet arrivals always
  /// interrupt. Default: enabled.
  void set_signal_txdone(bool enabled) { signal_txdone_ = enabled; }

  /// Enable low-power listening. Frames ending outside a wake window (and
  /// outside forced-on periods: own TX in progress, recent activity
  /// afterglow) are missed. Data sends become repetition trains spanning a
  /// wake interval, and the busy flag is held for the WHOLE train — which
  /// is how LPL widens busy-flag race windows. Must be set before the
  /// first send.
  void set_lpl(const LplParams& lpl);
  bool lpl_enabled() const { return lpl_.enabled; }

  /// True when the receiver is listening at `now` (testing/energy).
  bool listening(sim::Cycle now) const;

  std::uint64_t frames_missed_asleep() const { return missed_asleep_; }

  // ---- fault-injection hooks (src/fault) --------------------------------

  /// Freeze the busy flag high for `duration` while the transceiver is
  /// idle: application sends fail with SendResult::Busy until the window
  /// ends. Ignored (no effect) when a real exchange is in progress —
  /// the flag is then already honestly busy.
  void inject_stuck_busy(sim::Cycle duration);

  /// Deafen the receiver until now + `duration`: frames on the air are
  /// dropped before the chip reacts to them (no CTS/ACK responses, no RX
  /// events). Overlapping windows extend the deadline.
  void inject_mute(sim::Cycle duration);

  std::uint64_t fault_busy_windows() const { return fault_busy_windows_; }
  std::uint64_t frames_missed_muted() const { return missed_muted_; }

  struct Event {
    enum class Kind : std::uint8_t { RxDone, TxDone };
    Kind kind;
    net::Packet packet;            ///< received frame / the sent packet
    TxStatus status = TxStatus::Success;  ///< TxDone only
  };

  bool has_event() const { return !events_.empty(); }
  std::size_t pending_events() const { return events_.size(); }
  Event take_event();

  // ---- channel listener ------------------------------------------------

  void on_frame(const net::Packet& frame) override;

  // ---- statistics -------------------------------------------------------

  std::uint64_t sends_accepted() const { return sends_accepted_; }
  std::uint64_t sends_rejected_busy() const { return sends_rejected_; }
  std::uint64_t tx_success() const { return tx_success_; }
  std::uint64_t tx_failed() const { return tx_failed_; }
  std::uint64_t rx_frames() const { return rx_frames_; }

  /// Total transmit airtime (all own frames incl. control responses), for
  /// energy accounting.
  sim::Cycle tx_airtime() const { return tx_airtime_; }

  const RadioParams& params() const { return params_; }
  net::NodeId node_id() const { return node_id_; }

 private:
  enum class TxState : std::uint8_t {
    Idle,
    Csma,       ///< carrier sensing / backing off
    WaitCts,    ///< RTS sent, awaiting CTS
    SendData,   ///< DATA on air (broadcast or post-CTS unicast)
    WaitAck,    ///< DATA sent, awaiting ACK
    LplTrain,   ///< LPL repetition train in progress
  };

  sim::EventQueue& queue_;
  mcu::Machine& machine_;
  net::Channel& channel_;
  net::NodeId node_id_;
  util::Rng rng_;
  RadioParams params_;

  bool busy_ = false;
  bool signal_txdone_ = true;
  TxState state_ = TxState::Idle;
  // Fault-injection state: busy flag held high by an injected window (not
  // by a real exchange), and the receiver-mute deadline.
  bool fault_busy_ = false;
  sim::Cycle deaf_until_ = 0;
  std::uint64_t fault_busy_windows_ = 0;
  std::uint64_t missed_muted_ = 0;
  /// Half-duplex antenna: no two own transmissions may overlap. Control
  /// responses (CTS/ACK) and state-machine frames all serialize on this.
  sim::Cycle antenna_free_at_ = 0;
  sim::Cycle tx_airtime_ = 0;

  LplParams lpl_;
  sim::Cycle lpl_phase_ = 0;       ///< wake-schedule offset
  sim::Cycle awake_until_ = 0;     ///< afterglow deadline
  sim::Cycle train_deadline_ = 0;  ///< end of the current repetition train
  bool train_acked_ = false;
  std::uint64_t missed_asleep_ = 0;
  // LPL repetition-train dedup at the receiver.
  net::NodeId last_rx_src_ = 0;
  std::uint16_t last_rx_seq_ = 0;
  bool have_last_rx_ = false;
  net::Packet outgoing_;
  std::uint32_t cca_attempts_ = 0;
  std::uint32_t rts_retries_ = 0;
  std::uint32_t data_retries_ = 0;
  sim::EventId pending_timer_ = 0;  // backoff or timeout event

  std::deque<Event> events_;

  std::uint64_t sends_accepted_ = 0, sends_rejected_ = 0;
  std::uint64_t tx_success_ = 0, tx_failed_ = 0, rx_frames_ = 0;

  void start_csma();
  void cca();
  void send_rts();
  void send_data();
  void lpl_send_repetition();
  void on_lpl_repetition_done();
  /// Transmit an own frame now, marking the antenna occupied. Returns the
  /// cycle at which the frame leaves the air.
  sim::Cycle transmit_own(const net::Packet& frame);
  /// Schedule a control response (CTS/ACK) after the RX->TX turnaround,
  /// serialized behind any own transmission. Returns its end cycle.
  sim::Cycle schedule_control(net::Packet frame);
  void on_cts_timeout();
  void on_ack_timeout();
  void complete(TxStatus status);
  void push_event(Event event);
  void arm_timer(sim::Cycle delay, void (RadioChip::*fn)());
  void disarm_timer();
};

}  // namespace sent::hw

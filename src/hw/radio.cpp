#include "hw/radio.hpp"

#include "util/assert.hpp"

namespace sent::hw {

RadioChip::RadioChip(sim::EventQueue& queue, mcu::Machine& machine,
                     net::Channel& channel, net::NodeId node_id,
                     util::Rng rng, RadioParams params)
    : queue_(queue),
      machine_(machine),
      channel_(channel),
      node_id_(node_id),
      rng_(rng),
      params_(params) {
  channel_.add_node(node_id_, this);
}

SendResult RadioChip::send(net::Packet packet) {
  if (busy_) {
    ++sends_rejected_;
    return SendResult::Busy;
  }
  ++sends_accepted_;
  busy_ = true;
  outgoing_ = std::move(packet);
  outgoing_.src = node_id_;
  cca_attempts_ = 0;
  rts_retries_ = 0;
  data_retries_ = 0;
  start_csma();
  return SendResult::Ok;
}

void RadioChip::set_lpl(const LplParams& lpl) {
  SENT_REQUIRE(!busy_);
  if (lpl.enabled) {
    SENT_REQUIRE(lpl.on_duration >= 1);
    SENT_REQUIRE(lpl.wake_interval > lpl.on_duration);
  }
  lpl_ = lpl;
  lpl_phase_ = rng_.below(std::max<sim::Cycle>(lpl.wake_interval, 1));
}

bool RadioChip::listening(sim::Cycle now) const {
  if (!lpl_.enabled) return true;
  if (state_ != TxState::Idle || busy_) return true;  // transceiver active
  if (now < awake_until_) return true;                // afterglow
  sim::Cycle in_cycle = (now + lpl_phase_) % lpl_.wake_interval;
  return in_cycle < lpl_.on_duration;
}

RadioChip::Event RadioChip::take_event() {
  SENT_REQUIRE_MSG(!events_.empty(), "take_event on empty chip event queue");
  Event e = std::move(events_.front());
  events_.pop_front();
  return e;
}

void RadioChip::inject_stuck_busy(sim::Cycle duration) {
  if (busy_ || state_ != TxState::Idle) return;  // honestly busy already
  busy_ = true;
  fault_busy_ = true;
  ++fault_busy_windows_;
  queue_.schedule_after(duration, [this] {
    // Only clear what the fault set; a send() cannot have started while
    // the flag was held, so no real exchange can own busy_ here.
    if (fault_busy_) {
      fault_busy_ = false;
      busy_ = false;
    }
  });
}

void RadioChip::inject_mute(sim::Cycle duration) {
  deaf_until_ = std::max(deaf_until_, queue_.now() + duration);
}

void RadioChip::arm_timer(sim::Cycle delay, void (RadioChip::*fn)()) {
  SENT_ASSERT(pending_timer_ == 0);
  pending_timer_ = queue_.schedule_after(delay, [this, fn] {
    pending_timer_ = 0;
    (this->*fn)();
  });
}

void RadioChip::disarm_timer() {
  if (pending_timer_ != 0) {
    queue_.cancel(pending_timer_);
    pending_timer_ = 0;
  }
}

void RadioChip::start_csma() {
  state_ = TxState::Csma;
  cca();
}

sim::Cycle RadioChip::transmit_own(const net::Packet& frame) {
  sim::Cycle air = params_.airtime(frame.size_bytes());
  channel_.transmit(node_id_, frame, air);
  antenna_free_at_ = queue_.now() + air;
  tx_airtime_ += air;
  return antenna_free_at_;
}

sim::Cycle RadioChip::schedule_control(net::Packet frame) {
  sim::Cycle air = params_.airtime(frame.size_bytes());
  sim::Cycle start =
      std::max(queue_.now() + params_.turnaround, antenna_free_at_);
  antenna_free_at_ = start + air;
  tx_airtime_ += air;
  // The airtime is recomputed on the air rather than captured: params_ is
  // fixed at construction, and `this` plus the frame fill EventFn's inline
  // storage exactly.
  auto on_air = [this, frame = std::move(frame)] {
    channel_.transmit(node_id_, frame, params_.airtime(frame.size_bytes()));
  };
  static_assert(sim::EventFn::stores_inline<decltype(on_air)>,
                "control-frame closure must fit EventFn's inline storage");
  queue_.schedule_or_inline(start, std::move(on_air));
  return antenna_free_at_;
}

void RadioChip::cca() {
  SENT_ASSERT(state_ == TxState::Csma);
  // The antenna may be reserved by a pending control response that has not
  // hit the air yet; treat that like a busy carrier.
  if (queue_.now() < antenna_free_at_) {
    sim::Cycle backoff =
        params_.backoff_slot * (1 + rng_.below(params_.max_backoff_slots));
    if (++cca_attempts_ >= params_.max_cca_attempts) {
      complete(TxStatus::ChannelStuck);
      return;
    }
    arm_timer(backoff, &RadioChip::cca);
    return;
  }
  if (!channel_.carrier_busy(node_id_)) {
    if (lpl_.enabled) {
      // BoX-MAC: no handshake; start the repetition train that spans a
      // full wake interval of every neighbour.
      state_ = TxState::LplTrain;
      train_acked_ = false;
      train_deadline_ = queue_.now() + lpl_.wake_interval +
                        params_.airtime(outgoing_.size_bytes());
      lpl_send_repetition();
      return;
    }
    // Channel clear: broadcast data goes straight out; unicast data starts
    // the RTS/CTS handshake.
    if (outgoing_.dst == net::kBroadcast) {
      send_data();
    } else {
      send_rts();
    }
    return;
  }
  if (++cca_attempts_ >= params_.max_cca_attempts) {
    complete(TxStatus::ChannelStuck);
    return;
  }
  sim::Cycle backoff =
      params_.backoff_slot *
      (1 + rng_.below(params_.max_backoff_slots));
  arm_timer(backoff, &RadioChip::cca);
}

void RadioChip::send_rts() {
  net::Packet rts;
  rts.type = net::FrameType::Rts;
  rts.dst = outgoing_.dst;
  rts.seq = outgoing_.seq;
  sim::Cycle rts_air = params_.airtime(rts.size_bytes());
  transmit_own(rts);
  state_ = TxState::WaitCts;
  net::Packet cts;  // sized like the expected reply
  cts.type = net::FrameType::Cts;
  sim::Cycle deadline = rts_air + params_.turnaround +
                        params_.airtime(cts.size_bytes()) +
                        params_.timeout_slack;
  arm_timer(deadline, &RadioChip::on_cts_timeout);
}

void RadioChip::on_cts_timeout() {
  SENT_ASSERT(state_ == TxState::WaitCts);
  if (++rts_retries_ >= params_.max_rts_retries) {
    complete(TxStatus::NoCts);
    return;
  }
  start_csma();
}

void RadioChip::send_data() {
  sim::Cycle air = params_.airtime(outgoing_.size_bytes());
  transmit_own(outgoing_);
  state_ = TxState::SendData;
  if (outgoing_.dst == net::kBroadcast) {
    // Broadcasts complete when the frame leaves the antenna.
    arm_timer(air, &RadioChip::on_ack_timeout);  // reused as "tx finished"
    return;
  }
  net::Packet ack;
  ack.type = net::FrameType::Ack;
  state_ = TxState::WaitAck;
  sim::Cycle deadline = air + params_.turnaround +
                        params_.airtime(ack.size_bytes()) +
                        params_.timeout_slack;
  arm_timer(deadline, &RadioChip::on_ack_timeout);
}

void RadioChip::lpl_send_repetition() {
  SENT_ASSERT(state_ == TxState::LplTrain);
  sim::Cycle air = params_.airtime(outgoing_.size_bytes());
  transmit_own(outgoing_);
  // Check back when this repetition leaves the air, leaving the inter-
  // repetition gap wide enough for a returning ACK (turnaround + ACK
  // airtime + one more turnaround of guard so the ACK's tail never
  // collides with the next repetition's head).
  arm_timer(air + 2 * params_.turnaround + params_.airtime(6),
            &RadioChip::on_lpl_repetition_done);
}

void RadioChip::on_lpl_repetition_done() {
  if (state_ != TxState::LplTrain) return;  // completed via ACK meanwhile
  if (train_acked_) {
    complete(TxStatus::Success);
    return;
  }
  if (queue_.now() >= train_deadline_) {
    // Broadcast trains are done after one full wake interval; unicast
    // trains without an ACK count as a failed attempt.
    if (outgoing_.dst == net::kBroadcast) {
      complete(TxStatus::Success);
    } else if (++data_retries_ >= params_.max_data_retries) {
      complete(TxStatus::NoAck);
    } else {
      start_csma();  // another train
    }
    return;
  }
  lpl_send_repetition();
}

void RadioChip::on_ack_timeout() {
  if (state_ == TxState::SendData) {
    // Broadcast airtime finished.
    complete(TxStatus::Success);
    return;
  }
  SENT_ASSERT(state_ == TxState::WaitAck);
  if (++data_retries_ >= params_.max_data_retries) {
    complete(TxStatus::NoAck);
    return;
  }
  start_csma();
}

void RadioChip::complete(TxStatus status) {
  disarm_timer();
  state_ = TxState::Idle;
  if (status == TxStatus::Success)
    ++tx_success_;
  else
    ++tx_failed_;
  auto finish = [this, status] {
    busy_ = false;
    if (signal_txdone_)
      push_event(Event{Event::Kind::TxDone, outgoing_, status});
  };
  if (params_.post_tx_hold == 0) {
    finish();
  } else {
    // The busy flag outlives the on-air exchange by the firmware's
    // post-processing time; send() keeps failing meanwhile.
    queue_.schedule_or_inline(queue_.now() + params_.post_tx_hold, finish);
  }
}

void RadioChip::push_event(Event event) {
  events_.push_back(std::move(event));
  machine_.raise_irq(os::irq::kRadioSpi);
}

void RadioChip::on_frame(const net::Packet& frame) {
  if (queue_.now() < deaf_until_) {
    ++missed_muted_;  // injected mute window: front end never sees it
    return;
  }
  switch (frame.type) {
    case net::FrameType::Rts: {
      if (frame.dst != node_id_) return;  // overheard, address filter
      if (!listening(queue_.now())) return;  // asleep: sender will retry
      // Respond with CTS only when our own transmitter is quiet; an
      // ignored RTS makes the sender retry, which is the real behaviour.
      if (state_ != TxState::Idle) return;
      net::Packet cts;
      cts.type = net::FrameType::Cts;
      cts.dst = frame.src;
      cts.seq = frame.seq;
      schedule_control(std::move(cts));
      return;
    }
    case net::FrameType::Cts: {
      if (frame.dst != node_id_) return;
      if (state_ != TxState::WaitCts) return;  // late CTS, ignore
      disarm_timer();
      // Latch the transition now so a duplicate CTS during the turnaround
      // cannot schedule a second data transmission.
      state_ = TxState::SendData;
      queue_.schedule_or_inline(queue_.now() + params_.turnaround, [this] {
        if (state_ == TxState::SendData && busy_) send_data();
      });
      return;
    }
    case net::FrameType::Ack: {
      if (frame.dst != node_id_) return;
      if (state_ == TxState::LplTrain) {
        // The receiver woke and acknowledged: stop the train at the next
        // repetition boundary (the current frame is already on the air).
        train_acked_ = true;
        return;
      }
      if (state_ != TxState::WaitAck) return;
      complete(TxStatus::Success);
      return;
    }
    case net::FrameType::Data: {
      if (frame.dst != node_id_ && frame.dst != net::kBroadcast) return;
      if (!listening(queue_.now())) {
        ++missed_asleep_;
        return;
      }
      if (lpl_.enabled) {
        // Activity afterglow: stay awake to catch follow-up traffic.
        awake_until_ = queue_.now() + lpl_.afterglow;
        // Repetition trains deliver the same frame several times while we
        // are awake; deduplicate on (src, seq) for the MCU's benefit.
        if (frame.src == last_rx_src_ && frame.seq == last_rx_seq_ &&
            have_last_rx_) {
          return;
        }
        last_rx_src_ = frame.src;
        last_rx_seq_ = frame.seq;
        have_last_rx_ = true;
      }
      ++rx_frames_;
      if (frame.dst == node_id_) {
        // Link-layer ACK goes out first (half-duplex antenna, like a real
        // radio's hardware/driver auto-ACK); the MCU sees the packet only
        // once the ACK has left the air, so application sends triggered by
        // this arrival cannot collide with our own ACK.
        net::Packet ack;
        ack.type = net::FrameType::Ack;
        ack.dst = frame.src;
        ack.seq = frame.seq;
        sim::Cycle done = schedule_control(std::move(ack));
        queue_.schedule_or_inline(done, [this, frame] {
          push_event(Event{Event::Kind::RxDone, frame, TxStatus::Success});
        });
      } else {
        push_event(Event{Event::Kind::RxDone, frame, TxStatus::Success});
      }
      return;
    }
  }
}

}  // namespace sent::hw

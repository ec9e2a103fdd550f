#include "apps/forwarding.hpp"

#include "util/assert.hpp"

namespace sent::apps {

// ---------------------------------------------------------------- source

RandomSourceApp::RandomSourceApp(os::Node& node, hw::RadioChip& chip,
                                 RandomSourceConfig config, util::Rng rng)
    : node_(node), chip_(chip), config_(config), rng_(rng) {
  chip_.set_signal_txdone(false);  // fire-and-forget sender
  timer_line_ = node_.timers().create("SendTimer");
  mcu::CodeBuilder b("SendTimer.fired", /*is_task=*/false);
  b.instr("send", [this] {
    net::Packet p;
    p.dst = config_.dst;
    p.am_type = proto::am::kForward;
    p.origin = node_.id();
    p.seq = seq_++;
    auto bytes = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(config_.min_payload_bytes),
        static_cast<std::int64_t>(config_.max_payload_bytes)));
    p.payload.assign(bytes, 0x5A);
    if (chip_.send(std::move(p)) == hw::SendResult::Ok)
      ++sent_;
    else
      ++skipped_busy_;
  });
  b.instr("reschedule", [this] {
    node_.timers().start_oneshot(timer_line_, next_delay());
  });
  mcu::CodeId id = b.build(node_.program());
  node_.machine().register_handler(timer_line_, id);
}

sim::Cycle RandomSourceApp::next_delay() {
  double mean = static_cast<double>(config_.mean_interval);
  auto delay = static_cast<sim::Cycle>(rng_.exponential(mean));
  return std::max(delay, config_.min_interval);
}

void RandomSourceApp::start() {
  node_.timers().start_oneshot(timer_line_, next_delay());
}

// ----------------------------------------------------------------- relay

RelayApp::RelayApp(os::Node& node, hw::RadioChip& chip, RelayConfig config)
    : node_(node), chip_(chip), config_(config) {
  switch (config_.mutation) {
    case RelayMutation::TornMailbox:
      build_torn_mailbox();
      break;
    case RelayMutation::PopFirst:
      build_pop_first();
      break;
    case RelayMutation::BusyDrop:
      build_busy_drop();
      break;
    case RelayMutation::None:
      build_repaired();
      break;
  }
}

void RelayApp::build_busy_drop() {
  // The paper's structure: the SPI packet-arrival event procedure calls
  // Receive.receive, which directly calls AMSend.send. No send-done is
  // consumed (fire-and-forget), so every SPI interrupt on this node is a
  // packet arrival — matching the paper's "each of the instances
  // corresponds to a packet arrival event".
  chip_.set_signal_txdone(false);
  mcu::CodeBuilder b("Receive.receive", /*is_task=*/false);
  b.label("top");
  b.ret_if("empty", [this] { return !chip_.has_event(); });
  b.instr("take", [this] {
    event_ = chip_.take_event();
    csum_len_ = static_cast<std::uint32_t>(event_.packet.payload.size());
    seq_mod8_ = event_.packet.seq % 8u;
    ++received_;
  });
  // Software checksum over the payload before forwarding: one loop
  // iteration per byte, so the counter varies with packet length. The loop
  // itself is typed bytecode; only the bound is loaded by the host call.
  b.set_u32("csum_init", csum_pos_, 0);
  b.label("csum_top");
  b.branch_if_u32_ge("csum_done", csum_pos_, csum_len_, "csum_out");
  b.add_u32("csum_step", csum_pos_, 1);
  b.jump("csum_loop", "csum_top");
  b.label("csum_out");
  b.instr("prepare_forward", [this] {
    event_.packet.dst = config_.next_hop;  // AMSend.send target
  });
  // Periodic link-statistics bookkeeping (every 8th sequence number), the
  // kind of data-dependent path real forwarding code has.
  b.branch_if_u32("stats_check", seq_mod8_, mcu::Cmp::Ne, 0, "no_stats");
  b.instr("update_stats", [] {});
  b.label("no_stats");
  b.instr("amsend_call", [this] {
    // Result checked by the following branch.
  });
  b.branch_if(
      "check_busy",
      [this] { return chip_.send(event_.packet) == hw::SendResult::Busy; },
      "drop");
  b.instr("sent", [this] { ++forwarded_; });
  b.jump("next", "top");
  b.label("drop");
  b.instr("drop_busy", [this] {
    // BUG: active drop because the radio's busy flag is set.
    ++dropped_busy_;
    node_.mark_bug("busy-drop");
  });
  b.jump("next2", "top");
  mcu::CodeId id = b.build(node_.program());
  node_.machine().register_handler(os::irq::kRadioSpi, id);
}

void RelayApp::build_repaired() {
  // Repaired design: queue arrivals, pump one send at a time, continue
  // from send-done. Requires TxDone signalling.
  chip_.set_signal_txdone(true);
  mcu::CodeBuilder b("Receive.receive", /*is_task=*/false);
  b.label("top");
  b.ret_if("empty", [this] { return !chip_.has_event(); });
  b.instr("take", [this] { event_ = chip_.take_event(); });
  b.branch_if(
      "is_txdone",
      [this] {
        return event_.kind == hw::RadioChip::Event::Kind::TxDone;
      },
      "txdone");
  b.instr("enqueue", [this] {
    ++received_;
    if (queue_.size() >= config_.queue_capacity) {
      ++dropped_full_;
      return;
    }
    net::Packet p = event_.packet;
    p.dst = config_.next_hop;
    queue_.push_back(std::move(p));
  });
  b.jump("pump_after_rx", "pump");
  b.label("txdone");
  b.instr("pop_sent", [this] {
    if (!queue_.empty()) {
      ++forwarded_;
      queue_.pop_front();
    }
  });
  b.label("pump");
  b.branch_if(
      "pump_check",
      [this] { return queue_.empty() || chip_.busy(); }, "next");
  b.instr("pump_send", [this] { chip_.send(queue_.front()); });
  b.label("next");
  b.jump("loop", "top");
  mcu::CodeId id = b.build(node_.program());
  node_.machine().register_handler(os::irq::kRadioSpi, id);
}

void RelayApp::build_torn_mailbox() {
  // Deferred-forwarding refactor of the repaired relay: the SPI handler
  // stages each arrival into a single-slot mailbox and posts forwardTask,
  // which checksums the slot and forwards it. THE MUTATION: the handler
  // writes the slot unconditionally — staging over a still-full mailbox
  // (the task may be mid-checksum under this very interrupt) tears the
  // packet the task is consuming: an atomicity violation across the
  // interrupt/task boundary. A Busy send leaves the slot staged for the
  // next arrival's post to retry, so every loss funnels through the
  // marked overwrite path.
  chip_.set_signal_txdone(false);
  {
    mcu::CodeBuilder b("forwardTask", /*is_task=*/true);
    b.ret_if_flag("guard_empty", mailbox_full_, false);
    b.instr("begin_read", [this] {
      csum_len_ = static_cast<std::uint32_t>(mailbox_.payload.size());
    });
    // Checksum directly over the mailbox slot, one (expensive) iteration
    // per byte: the whole loop is the window in which an arrival tears
    // the packet under us.
    b.set_u32("csum_init", csum_pos_, 0);
    b.label("csum_top");
    b.branch_if_u32_ge("csum_done", csum_pos_, csum_len_, "csum_out");
    b.add_u32("csum_step", csum_pos_, 1, config_.mailbox_iteration_cost);
    b.jump("csum_loop", "csum_top");
    b.label("csum_out");
    b.instr("send_staged", [this] {
      mailbox_.dst = config_.next_hop;
      if (chip_.send(mailbox_) == hw::SendResult::Ok) {
        ++forwarded_;
        mailbox_full_ = false;
      }
      // Busy: keep the slot staged; retried at the next arrival's post.
    });
    mcu::CodeId id = b.build(node_.program());
    forward_task_ = node_.kernel().register_task(id);
  }
  {
    mcu::CodeBuilder b("Receive.receive", /*is_task=*/false);
    b.label("top");
    b.ret_if("empty", [this] { return !chip_.has_event(); });
    b.instr("take", [this] {
      event_ = chip_.take_event();
      ++received_;
    });
    b.instr("stage", [this] {
      if (mailbox_full_) {
        // Ground truth: the slot still holds an unconsumed packet — this
        // overwrite is the torn forward.
        ++torn_overwrites_;
        node_.mark_bug("torn-mailbox");
      }
      mailbox_ = event_.packet;
      mailbox_full_ = true;
    });
    b.instr("post_forward",
            [this] { node_.kernel().post(forward_task_); });
    b.jump("next", "top");
    mcu::CodeId id = b.build(node_.program());
    node_.machine().register_handler(os::irq::kRadioSpi, id);
  }
}

void RelayApp::build_pop_first() {
  // Queueing refactor of the repaired relay that got the ORDER wrong: the
  // forward task pops the packet off the queue before the send result is
  // known. A Busy send then has nothing to retry — the packet the queue
  // already surrendered is simply gone.
  chip_.set_signal_txdone(false);
  {
    mcu::CodeBuilder b("forwardTask", /*is_task=*/true);
    b.ret_if("guard_empty", [this] { return queue_.empty(); });
    b.instr("pop", [this] {
      // Ordering bug: ownership leaves the queue here, one step early.
      popped_ = std::move(queue_.front());
      queue_.pop_front();
      csum_len_ = static_cast<std::uint32_t>(popped_.payload.size());
    });
    b.set_u32("csum_init", csum_pos_, 0);
    b.label("csum_top");
    b.branch_if_u32_ge("csum_done", csum_pos_, csum_len_, "csum_out");
    b.add_u32("csum_step", csum_pos_, 1);
    b.jump("csum_loop", "csum_top");
    b.label("csum_out");
    b.instr("send_popped", [this] {
      popped_.dst = config_.next_hop;
      if (chip_.send(popped_) == hw::SendResult::Ok) {
        send_lost_ = false;
        ++forwarded_;
      } else {
        // Ground truth: the surrendered packet is lost.
        send_lost_ = true;
        ++lost_pop_first_;
        node_.mark_bug("pop-first-loss");
      }
    });
    b.branch_if_flag("loss_check", send_lost_, false, "done_ok");
    // Loss-path bookkeeping loop: the error handling makes the symptom
    // visible in the interval's instruction counters.
    b.set_u32("log_init", log_remaining_, 6);
    b.label("log_top");
    b.add_u32("log_step", log_remaining_, ~std::uint32_t{0}, 400);  // -1
    b.branch_if_u32("log_more", log_remaining_, mcu::Cmp::Ne, 0, "log_top");
    b.label("done_ok");
    b.instr("repost", [this] {
      if (!queue_.empty()) node_.kernel().post(forward_task_);
    });
    mcu::CodeId id = b.build(node_.program());
    forward_task_ = node_.kernel().register_task(id);
  }
  {
    mcu::CodeBuilder b("Receive.receive", /*is_task=*/false);
    b.label("top");
    b.ret_if("empty", [this] { return !chip_.has_event(); });
    b.instr("take", [this] {
      event_ = chip_.take_event();
      ++received_;
    });
    b.instr("enqueue", [this] {
      if (queue_.size() >= config_.queue_capacity) {
        ++dropped_full_;
        return;
      }
      queue_.push_back(event_.packet);
    });
    b.instr("post_forward",
            [this] { node_.kernel().post(forward_task_); });
    b.jump("next", "top");
    mcu::CodeId id = b.build(node_.program());
    node_.machine().register_handler(os::irq::kRadioSpi, id);
  }
}

}  // namespace sent::apps

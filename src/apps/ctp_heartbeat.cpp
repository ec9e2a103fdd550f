#include "apps/ctp_heartbeat.hpp"

#include "util/assert.hpp"

namespace sent::apps {

CtpHeartbeatApp::CtpHeartbeatApp(os::Node& node, hw::RadioChip& chip,
                                 CtpHeartbeatConfig config, util::Rng rng)
    : node_(node), chip_(chip), config_(config), rng_(rng) {
  config_.ctp.self = static_cast<net::NodeId>(node_.id());
  config_.ctp.is_root = config_.is_root;
  repaired_ = config_.mutation == CtpMutation::None;
  config_.ctp.fix_send_fail = repaired_;
  ctp_ = std::make_unique<proto::CtpNode>(config_.ctp);
  heartbeat_ = std::make_unique<proto::Heartbeat>(
      static_cast<net::NodeId>(node_.id()), config_.heartbeat_padding);
  build_code();
}

void CtpHeartbeatApp::build_code() {
  auto& prog = node_.program();
  auto& kernel = node_.kernel();

  beacon_line_ = node_.timers().create("BeaconTimer");
  report_line_ = node_.timers().create("ReportTimer");
  heartbeat_line_ = node_.timers().create("HeartbeatTimer");
  retry_line_ = node_.timers().create("SendRetryTimer");

  // --- task CtpForwardingEngine.sendTask ----------------------------------
  // Mirrors the TinyOS forwarding engine's sendTask structure.
  {
    mcu::CodeBuilder b("CtpForwardingEngine.sendTask", /*is_task=*/true);
    b.ret_if_flag("guard_sending", sending_mirror_, true);
    b.ret_if("guard_empty", [this] { return !ctp_->has_pending(); });
    b.instr("set_sending", [this] {
      ctp_->mark_sending();
      sending_mirror_ = true;
    });
    b.branch_if(
        "subsend_call",
        [this] {
          return chip_.send(ctp_->head_for_send()) == hw::SendResult::Busy;
        },
        "fail");
    b.instr("accepted", [this] { ctp_->on_send_accepted(); });
    b.ret("done");
    b.label("fail");
    b.instr("handle_fail", [this] {
      // Buggy app: on_send_fail leaves `sending` set — the hang.
      // Repaired app: it clears the mark; we arm a retry below.
      if (ctp_->on_send_fail()) node_.mark_bug("ctp-hang");
      sending_mirror_ = ctp_->sending();
      if (repaired_ && !node_.timers().running(retry_line_))
        node_.timers().start_oneshot(retry_line_, config_.retry_delay);
    });
    mcu::CodeId id = b.build(prog);
    send_task_ = kernel.register_task(id);
  }

  // --- SPI handler ----------------------------------------------------------
  {
    mcu::CodeBuilder b("Radio.SpiHandler", /*is_task=*/false);
    b.label("top");
    b.ret_if("empty", [this] { return !chip_.has_event(); });
    b.instr("take", [this] {
      event_ = chip_.take_event();
      ev_kind_ = static_cast<std::uint32_t>(event_.kind);
      ev_am_ = event_.packet.am_type;
    });
    b.branch_if_u32(
        "is_txdone", ev_kind_, mcu::Cmp::Eq,
        static_cast<std::uint32_t>(hw::RadioChip::Event::Kind::TxDone),
        "txdone");
    b.branch_if_u32("is_beacon", ev_am_, mcu::Cmp::Eq, proto::am::kCtpBeacon,
                    "beacon");
    b.branch_if_u32("is_heartbeat", ev_am_, mcu::Cmp::Eq,
                    proto::am::kHeartbeat, "heartbeat");
    b.branch_if_u32("is_data", ev_am_, mcu::Cmp::Eq, proto::am::kCtpData,
                    "data");
    b.jump("unknown", "top");

    b.label("txdone");
    // Only CTP data sends are tracked by the forwarding engine; beacon and
    // heartbeat transmissions are fire-and-forget.
    b.branch_if_u32("txdone_not_data", ev_am_, mcu::Cmp::Ne,
                    proto::am::kCtpData, "top");
    b.instr("senddone", [this] {
      if (ctp_->on_send_done(event_.status))
        node_.kernel().post(send_task_);
      sending_mirror_ = ctp_->sending();
    });
    b.jump("txdone_next", "top");

    b.label("beacon");
    b.instr("update_routing", [this] { ctp_->on_beacon(event_.packet); });
    b.jump("beacon_next", "top");

    b.label("heartbeat");
    b.instr("update_liveness", [this] {
      heartbeat_->on_heartbeat(event_.packet, node_.queue().now());
    });
    b.jump("heartbeat_next", "top");

    b.label("data");
    b.instr("forward_enqueue", [this] {
      if (ctp_->enqueue_forward(event_.packet) && !ctp_->sending() &&
          !ctp_->config().is_root)
        node_.kernel().post(send_task_);
    });
    b.jump("data_next", "top");

    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(os::irq::kRadioSpi, id);
  }

  // --- beacon timer handler --------------------------------------------------
  {
    mcu::CodeBuilder b("BeaconTimer.fired", /*is_task=*/false);
    b.branch_if("check_busy", [this] { return chip_.busy(); }, "skip");
    b.instr("send_beacon", [this] {
      chip_.send(ctp_->make_beacon());
      ++beacons_sent_;
    });
    b.ret("done");
    b.label("skip");
    b.instr("skip_busy", [this] { ++beacons_skipped_; });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(beacon_line_, id);
  }

  // --- report timer handler (the anatomized event procedure) -----------------
  {
    mcu::CodeBuilder b("ReportTimer.fired", /*is_task=*/false);
    // Only an active source samples. event_active_ is flipped by the event
    // process, which start() runs for sources only — on every other node
    // the flag stays false, so the one flag test covers both roles.
    b.ret_if_flag("check_active", event_active_, false);
    b.instr("sample", [this] {
      reading_ = static_cast<std::uint16_t>(rng_.below(1024));
      reading32_ = reading_;
      ++reports_attempted_;
    });
    // Value-dependent calibration path: natural per-interval variation in
    // the instruction counter of normal instances.
    b.branch_if_u32("range_check", reading32_, mcu::Cmp::Lt, 512,
                    "low_range");
    b.add_u16("calibrate_high", reading_, 0xFFFF);  // reading_ -= 1
    b.label("low_range");
    // Bit-serial encoding loop (work proportional to set bits): natural
    // per-interval variation in the instruction counter. With
    // encode_words > 1 an outer pass repeats the encode once per payload
    // word; at 1 the emitted shape (and so the trace) is unchanged.
    const bool multi_word = config_.encode_words > 1;
    if (multi_word) {
      rounds_init_ = static_cast<std::uint16_t>(config_.encode_words);
      b.mov_u16("enc_rounds_init", enc_rounds_, rounds_init_);
      b.label("word_top");
    }
    b.mov_u16("enc_init", enc_tmp_, reading_);
    b.label("enc_top");
    b.branch_if_u16("enc_done", enc_tmp_, mcu::Cmp::Eq, 0, "enc_out");
    b.clear_lsb_u16("enc_step", enc_tmp_);
    b.jump("enc_loop", "enc_top");
    b.label("enc_out");
    if (multi_word) {
      b.add_u16("word_done", enc_rounds_, 0xFFFF);  // enc_rounds_ -= 1
      b.branch_if_u16("word_next", enc_rounds_, mcu::Cmp::Ne, 0, "word_top");
    }
    b.branch_if(
        "enqueue",
        [this] { return !ctp_->enqueue_local(reading_); }, "dropped");
    b.ret_if_flag("engine_busy", sending_mirror_, true);
    b.instr("post_send", [this] { node_.kernel().post(send_task_); });
    b.ret("done");
    b.label("dropped");
    b.instr("count_drop", [] {
      // Queue full or no route; the reading is lost. Statistics are kept
      // by CtpNode itself.
    });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(report_line_, id);
  }

  // --- heartbeat timer handler -------------------------------------------------
  {
    mcu::CodeBuilder b("HeartbeatTimer.fired", /*is_task=*/false);
    b.branch_if("check_busy", [this] { return chip_.busy(); }, "skip");
    b.instr("send_heartbeat",
            [this] { chip_.send(heartbeat_->make_heartbeat()); });
    b.ret("done");
    b.label("skip");
    b.instr("skip_busy", [this] { heartbeat_->count_skip_busy(); });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(heartbeat_line_, id);
  }

  // --- retry timer handler (armed by the repaired app only) ------------------
  {
    mcu::CodeBuilder b("SendRetryTimer.fired", /*is_task=*/false);
    b.instr("repost", [this] { node_.kernel().post(send_task_); });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(retry_line_, id);
  }
}

void CtpHeartbeatApp::schedule_event_flip() {
  sim::Cycle mean =
      event_active_ ? config_.mean_event_on : config_.mean_event_off;
  auto delay = std::max<sim::Cycle>(
      static_cast<sim::Cycle>(rng_.exponential(static_cast<double>(mean))),
      sim::cycles_from_millis(50));
  node_.queue().schedule_after(delay, [this] {
    event_active_ = !event_active_;
    schedule_event_flip();
  });
}

void CtpHeartbeatApp::start() {
  auto phase = [this](sim::Cycle period) {
    return period + static_cast<sim::Cycle>(rng_.below(period));
  };
  node_.timers().start_periodic(beacon_line_, config_.beacon_period,
                                phase(config_.beacon_period));
  node_.timers().start_periodic(heartbeat_line_, config_.heartbeat_period,
                                phase(config_.heartbeat_period));
  if (config_.is_source) {
    sim::Cycle report_phase =
        config_.report_stagger != 0
            ? config_.report_period +
                  static_cast<sim::Cycle>(node_.id()) * config_.report_stagger
            : phase(config_.report_period);
    node_.timers().start_periodic(report_line_, config_.report_period,
                                  report_phase);
    schedule_event_flip();
  }
}

}  // namespace sent::apps

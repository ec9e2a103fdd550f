#include "apps/dissemination.hpp"

#include "proto/am.hpp"
#include "util/assert.hpp"

namespace sent::apps {

DisseminationApp::DisseminationApp(os::Node& node, hw::RadioChip& chip,
                                   DisseminationConfig config, util::Rng rng)
    : node_(node),
      chip_(chip),
      config_(config),
      rng_(rng),
      trickle_(config.trickle, rng.substream("trickle")) {
  SENT_REQUIRE(config_.flash_delay_min <= config_.flash_delay_max);
  chip_.set_signal_txdone(false);  // summaries are fire-and-forget
  build_code();
}

void DisseminationApp::restart_trickle_timer(sim::Cycle delay) {
  if (node_.timers().running(trickle_line_))
    node_.timers().stop(trickle_line_);
  node_.timers().start_oneshot(trickle_line_, delay);
}

void DisseminationApp::build_code() {
  auto& prog = node_.program();
  auto& kernel = node_.kernel();

  trickle_line_ = node_.timers().create("TrickleTimer");
  flash_line_ = node_.timers().create("FlashReadyTimer");
  publish_line_ = node_.timers().create("PublishTimer");

  // --- task adoptTask ------------------------------------------------------
  // Applies a pending update. Step order is THE bug (see header).
  {
    mcu::CodeBuilder b("adoptTask", /*is_task=*/true);
    b.ret_if_flag("guard_pending", adopt_pending_, false);
    b.instr("write_first", [this] {
      const bool torn = config_.mutation == DissMutation::TornWrite;
      if (!torn) {
        value_ = pend_value_;  // publish ordering: payload first
      } else {
        version_ = pend_version_;  // BUG: version visible before the value
        version_ahead_of_value_ = true;
      }
    });
    b.set_u32("flash_begin", flash_remaining_,
              config_.flash_commit_iterations);
    b.label("flash_loop");
    b.add_u32("flash_program", flash_remaining_, ~std::uint32_t{0},  // -= 1
              config_.flash_commit_iteration_cost);
    b.branch_if_u32("flash_more", flash_remaining_, mcu::Cmp::Ne, 0,
                    "flash_loop");
    b.instr("write_second", [this] {
      const bool torn = config_.mutation == DissMutation::TornWrite;
      if (!torn) {
        version_ = pend_version_;  // version last: torn reads are harmless
      } else {
        value_ = pend_value_;
        version_ahead_of_value_ = false;
      }
      adopt_pending_ = false;
      ++adoptions_;
    });
    mcu::CodeId id = b.build(prog);
    adopt_task_ = kernel.register_task(id);
  }

  // --- SPI handler ----------------------------------------------------------
  {
    mcu::CodeBuilder b("Radio.SpiHandler", /*is_task=*/false);
    b.label("top");
    b.ret_if("empty", [this] { return !chip_.has_event(); });
    b.instr("take", [this] { event_ = chip_.take_event(); });
    b.branch_if(
        "is_dissemination",
        [this] {
          return event_.kind == hw::RadioChip::Event::Kind::RxDone &&
                 event_.packet.am_type == proto::am::kDissemination;
        },
        "summary");
    b.jump("other", "top");

    b.label("summary");
    b.instr("read_summary", [this] {
      rx_version_ = net::get_u16(event_.packet.payload, 0);
      rx_value_ = net::get_u16(event_.packet.payload, 2);
    });
    b.branch_if("check_same",
                [this] { return rx_version_ == version_; }, "consistent");
    b.branch_if("check_newer",
                [this] { return rx_version_ > version_; }, "newer");
    // Older: the sender is stale; reset Trickle so our summary reaches it
    // quickly.
    b.instr("stale_reset",
            [this] { restart_trickle_timer(trickle_.on_inconsistent()); });
    b.jump("stale_next", "top");

    b.label("consistent");
    b.instr("suppress", [this] { trickle_.on_consistent(); });
    b.jump("consistent_next", "top");

    b.label("newer");
    b.instr("stage_adopt", [this] {
      pend_version_ = rx_version_;
      pend_value_ = rx_value_;
      adopt_pending_ = true;
      // Flash-ready latency before the adopt work can run.
      if (!node_.timers().running(flash_line_)) {
        sim::Cycle delay =
            config_.flash_delay_min +
            static_cast<sim::Cycle>(rng_.below(
                config_.flash_delay_max - config_.flash_delay_min + 1));
        node_.timers().start_oneshot(flash_line_, delay);
      }
    });
    b.instr("newer_reset",
            [this] { restart_trickle_timer(trickle_.on_inconsistent()); });
    b.jump("newer_next", "top");

    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(os::irq::kRadioSpi, id);
  }

  // --- flash-ready handler ---------------------------------------------------
  {
    mcu::CodeBuilder b("FlashReady.fired", /*is_task=*/false);
    b.instr("post_adopt", [this] { node_.kernel().post(adopt_task_); });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(flash_line_, id);
  }

  // --- Trickle timer handler (the anatomized event type) ---------------------
  {
    mcu::CodeBuilder b("TrickleTimer.fired", /*is_task=*/false);
    b.instr("advance", [this] {
      proto::Trickle::Step step = trickle_.advance();
      should_transmit_ = step.transmit;
      next_delay_ = step.next_delay;
    });
    b.branch_if("check_tx", [this] { return !should_transmit_; }, "rearm");
    b.instr("build_summary", [this] {
      // Ground truth: reading the pair while the buggy adopt task has
      // written the version but not yet the value IS the torn broadcast.
      if (version_ahead_of_value_) {
        ++torn_;
        node_.mark_bug("torn-summary");
      }
    });
    b.branch_if("check_busy", [this] { return chip_.busy(); }, "busy");
    b.instr("send_summary", [this] {
      net::Packet p;
      p.dst = net::kBroadcast;
      p.am_type = proto::am::kDissemination;
      net::put_u16(p.payload, version_);
      net::put_u16(p.payload, value_);
      chip_.send(std::move(p));
      ++summaries_sent_;
    });
    b.jump("sent_next", "rearm");
    b.label("busy");
    b.instr("skip_busy", [this] { ++skipped_busy_; });
    b.label("rearm");
    b.instr("rearm_timer", [this] {
      node_.timers().start_oneshot(trickle_line_, next_delay_);
    });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(trickle_line_, id);
  }

  // --- publish handler (publisher node only; raised by the environment) ------
  {
    mcu::CodeBuilder b("Publish.fired", /*is_task=*/false);
    b.instr("bump_version", [this] {
      // The publisher updates atomically within one handler: the bug is
      // in the RECEIVERS' deferred adopt path.
      ++version_;
      value_ = staged_publish_value_;
    });
    b.instr("publish_reset",
            [this] { restart_trickle_timer(trickle_.on_inconsistent()); });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(publish_line_, id);
  }
}

void DisseminationApp::start() { restart_trickle_timer(trickle_.start()); }

void DisseminationApp::inject_update(std::uint16_t value) {
  SENT_REQUIRE_MSG(config_.is_publisher,
                   "inject_update on a non-publisher node");
  staged_publish_value_ = value;
  node_.machine().raise_irq(publish_line_);
}

}  // namespace sent::apps

#include "apps/oscilloscope.hpp"

#include "util/assert.hpp"

namespace sent::apps {

OscilloscopeApp::OscilloscopeApp(os::Node& node, hw::AdcDevice& adc,
                                 hw::RadioChip& chip,
                                 OscilloscopeConfig config, util::Rng rng)
    : node_(node), adc_(adc), chip_(chip), config_(config), rng_(rng) {
  build_code();
}

void OscilloscopeApp::build_code() {
  auto& prog = node_.program();
  auto& kernel = node_.kernel();

  sample_line_ = node_.timers().create("SampleTimer");
  maintenance_line_ = node_.timers().create("MaintenanceTimer");

  // --- task prepareAndSendPacket -----------------------------------------
  // Sends the three collected readings to the sink in one data packet.
  {
    mcu::CodeBuilder b("prepareAndSendPacket", /*is_task=*/true);
    b.instr("prepare", [this] {
      // Building the payload reads the shared packet buffer — exactly the
      // data the interleaving bug can have polluted by now.
      // (The repaired app reads the committed copy instead.)
      if (config_.mutation == OscMutation::LateCommit && !commit_done_) {
        // The deferred commit: correct only if no ADC interrupt has
        // overwritten packet_data_[0] since the post.
        send_buffer_ = packet_data_;
        commit_done_ = true;
      }
    });
    b.instr("send", [this] {
      const bool live_buffer = config_.mutation == OscMutation::SharedBuffer;
      const auto& buf = live_buffer ? packet_data_ : send_buffer_;
      net::Packet p;
      p.dst = config_.sink;
      p.am_type = proto::am::kOscilloscope;
      for (std::uint16_t v : buf) net::put_u16(p.payload, v);
      if (chip_.send(std::move(p)) == hw::SendResult::Ok) {
        ++packets_sent_;
      } else {
        ++skipped_busy_;
      }
    });
    b.set_flag("clear_pending", send_pending_, false);
    mcu::CodeId id = b.build(prog);
    send_task_ = kernel.register_task(id);
  }

  // --- task heavyTask ------------------------------------------------------
  // The "heavy-weighted event procedure" body: a long computation loop.
  // Pure counter arithmetic, so the whole task compiles to typed bytecode.
  {
    mcu::CodeBuilder b("heavyTask", /*is_task=*/true);
    b.set_u32("init", heavy_remaining_, config_.heavy_iterations);
    b.label("loop");
    b.add_u32("work", heavy_remaining_, ~std::uint32_t{0},  // -= 1
              config_.heavy_iteration_cost);
    b.branch_if_u32("more", heavy_remaining_, mcu::Cmp::Ne, 0, "loop");
    mcu::CodeId id = b.build(prog);
    heavy_task_ = kernel.register_task(id);
  }

  // --- ADC data-ready handler: Read.readDone (Figure 2) -------------------
  {
    mcu::CodeBuilder b("Read.readDone", /*is_task=*/false);
    b.instr("store_data", [this] {
      // packet->data[dataItem] = data;
      const bool live_buffer = config_.mutation == OscMutation::SharedBuffer;
      if (send_pending_ && live_buffer) {
        // Ground truth: a committed-but-unsent packet is being overwritten.
        ++pollutions_;
        node_.mark_bug("data-pollution");
      }
      if (send_pending_ && !commit_done_ &&
          config_.mutation == OscMutation::LateCommit) {
        // Ground truth: the task has not committed yet, so this write lands
        // in the triple the pending send will copy — same pollution, caused
        // by reordering the commit rather than by sharing the buffer.
        ++pollutions_;
        node_.mark_bug("late-commit-pollution");
      }
      packet_data_[data_item_] = adc_.value();
      ++readings_;
    });
    // Value-dependent filtering, as real sampling code has: spikes are
    // clamped and high-range readings take a calibration path. These
    // branches give normal intervals natural instruction-count variation.
    b.branch_if("spike_check",
                [this] { return packet_data_[data_item_] < 700; },
                "no_spike");
    b.instr("clamp_spike", [this] { packet_data_[data_item_] = 700; });
    b.label("no_spike");
    b.branch_if("range_check",
                [this] { return packet_data_[data_item_] < 520; },
                "low_range");
    b.instr("calibrate_high", [this] {
      packet_data_[data_item_] =
          static_cast<std::uint16_t>(packet_data_[data_item_] - 3);
    });
    b.label("low_range");
    // Delta/run-length encoding pass whose work is proportional to the set
    // bits of the reading — a data-dependent loop like real compression
    // code, giving the counter near-continuous variation across intervals.
    b.instr("enc_init", [this] { enc_tmp_ = packet_data_[data_item_]; });
    b.label("enc_top");
    b.branch_if_u16("enc_done", enc_tmp_, mcu::Cmp::Eq, 0, "enc_out");
    b.clear_lsb_u16("enc_step", enc_tmp_);
    b.jump("enc_loop", "enc_top");
    b.label("enc_out");
    b.add_u32("inc_item", data_item_, 1);
    b.ret_if_u32("check_three", data_item_, mcu::Cmp::Ne, 3);
    b.set_u32("reset_item", data_item_, 0);
    if (config_.mutation == OscMutation::PendingSkip) {
      // Shared-flag race: treat send_pending_ as a "send in flight" guard
      // and drop the fresh triple instead of posting. Correct-looking —
      // but the flag is cleared by the TASK, so any task-queue delay makes
      // the handler discard real data.
      b.branch_if_flag("flag_check", send_pending_, true, "skip_triple");
    }
    b.instr("post_send", [this] {
      if (config_.mutation == OscMutation::LateCommit) {
        commit_done_ = false;  // commit deferred into the task (the bug)
      } else if (config_.mutation != OscMutation::SharedBuffer) {
        send_buffer_ = packet_data_;  // commit a copy
      }
      send_pending_ = true;
      node_.kernel().post(send_task_);
    });
    if (config_.mutation == OscMutation::PendingSkip) {
      b.ret("posted");
      b.label("skip_triple");
      b.instr("drop_triple", [this] {
        // Ground truth: this triple never leaves the node.
        ++mutation_drops_;
        node_.mark_bug("pending-skip-drop");
      });
      // Error-path bookkeeping loop: the discard work makes the symptom
      // visible in the interval's instruction counters.
      b.set_u32("discard_init", discard_remaining_, 3);
      b.label("discard_top");
      b.add_u32("discard_step", discard_remaining_, ~std::uint32_t{0},  // -1
                600);
      b.branch_if_u32("discard_more", discard_remaining_, mcu::Cmp::Ne, 0,
                      "discard_top");
    }
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(os::irq::kAdc, id);
  }

  // --- sample timer handler: request an ADC conversion ---------------------
  {
    mcu::CodeBuilder b("SampleTimer.fired", /*is_task=*/false);
    b.instr("request_read", [this] { adc_.request_read(); });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(sample_line_, id);
  }

  // --- maintenance timer handler -------------------------------------------
  {
    mcu::CodeBuilder b("MaintenanceTimer.fired", /*is_task=*/false);
    b.ret_if("roll", [this] {
      return !rng_.chance(config_.maintenance_heavy_prob);
    });
    b.instr("post_heavy", [this] {
      ++heavy_tasks_;
      node_.kernel().post(heavy_task_);
    });
    mcu::CodeId id = b.build(prog);
    node_.machine().register_handler(maintenance_line_, id);
  }
}

void OscilloscopeApp::start() {
  node_.timers().start_periodic(sample_line_, config_.sample_period);
  if (config_.with_maintenance) {
    // Random initial phase decorrelates maintenance from sampling.
    sim::Cycle phase = static_cast<sim::Cycle>(
        rng_.below(config_.maintenance_period));
    node_.timers().start_periodic(maintenance_line_,
                                  config_.maintenance_period,
                                  config_.maintenance_period + phase);
  }
}

}  // namespace sent::apps

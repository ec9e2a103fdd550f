#include <gtest/gtest.h>

#include "hw/energy.hpp"
#include "hw/radio.hpp"
#include "net/channel.hpp"
#include "os/node.hpp"
#include "util/assert.hpp"

namespace sent {
namespace {

// ------------------------------------------------- Gilbert-Elliott loss

struct Capture final : net::RadioListener {
  int frames = 0;
  void on_frame(const net::Packet&) override { ++frames; }
};

net::Packet bcast() {
  net::Packet p;
  p.dst = net::kBroadcast;
  p.payload = {1};
  return p;
}

TEST(GilbertElliott, AllGoodBehavesLossless) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(1));
  Capture rx;
  Capture tx;
  ch.add_node(0, &tx);
  ch.add_node(1, &rx);
  net::Channel::GilbertElliott model;
  model.loss_good = 0.0;
  model.loss_bad = 1.0;
  model.p_good_to_bad = 0.0;  // never leaves Good
  ch.set_gilbert_elliott(model);
  for (int i = 0; i < 200; ++i) {
    ch.transmit(0, bcast(), 10);
    q.run_all();
  }
  EXPECT_EQ(rx.frames, 200);
}

TEST(GilbertElliott, StuckInBurstLosesEverything) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(1));
  Capture rx, tx;
  ch.add_node(0, &tx);
  ch.add_node(1, &rx);
  net::Channel::GilbertElliott model;
  model.loss_good = 1.0;  // first delivery in Good is lost too
  model.loss_bad = 1.0;
  model.p_good_to_bad = 1.0;
  model.p_bad_to_good = 0.0;
  ch.set_gilbert_elliott(model);
  for (int i = 0; i < 50; ++i) {
    ch.transmit(0, bcast(), 10);
    q.run_all();
  }
  EXPECT_EQ(rx.frames, 0);
}

TEST(GilbertElliott, LossesAreBursty) {
  // With slow state flips, losses cluster: the lag-1 autocorrelation of
  // the loss indicator across consecutive deliveries is clearly positive,
  // which iid loss would not produce.
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(7));
  Capture rx, tx;
  ch.add_node(0, &tx);
  ch.add_node(1, &rx);
  net::Channel::GilbertElliott model;
  model.loss_good = 0.02;
  model.loss_bad = 0.9;
  model.p_good_to_bad = 0.03;
  model.p_bad_to_good = 0.15;
  ch.set_gilbert_elliott(model);

  std::vector<int> lost;
  int prev = rx.frames;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    ch.transmit(0, bcast(), 10);
    q.run_all();
    lost.push_back(rx.frames == prev ? 1 : 0);
    prev = rx.frames;
  }
  double mean = 0;
  for (int v : lost) mean += v;
  mean /= n;
  EXPECT_GT(mean, 0.05);
  EXPECT_LT(mean, 0.6);
  double cov = 0, var = 0;
  for (int i = 1; i < n; ++i) {
    cov += (lost[i] - mean) * (lost[i - 1] - mean);
    var += (lost[i] - mean) * (lost[i] - mean);
  }
  EXPECT_GT(cov / var, 0.3);  // strong positive burst correlation
}

TEST(GilbertElliott, SetLossRateDisablesModel) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(1));
  Capture rx, tx;
  ch.add_node(0, &tx);
  ch.add_node(1, &rx);
  net::Channel::GilbertElliott model;
  model.loss_good = 1.0;
  model.loss_bad = 1.0;
  ch.set_gilbert_elliott(model);
  ch.set_loss_rate(0.0);  // back to iid, lossless
  ch.transmit(0, bcast(), 10);
  q.run_all();
  EXPECT_EQ(rx.frames, 1);
}

TEST(GilbertElliott, ParamValidation) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(1));
  net::Channel::GilbertElliott model;
  model.loss_bad = 1.5;
  EXPECT_THROW(ch.set_gilbert_elliott(model), util::PreconditionError);
}

// ------------------------------------------------------------- energy

trace::NodeTrace busy_trace() {
  trace::NodeTrace t;
  t.instr_table = {{"h", "a", 1000}};
  // 1000 executions x 1000 cycles = 1M active cycles.
  for (int i = 0; i < 1000; ++i)
    t.instrs.push_back({static_cast<sim::Cycle>(i * 1000), 0});
  t.run_end = sim::kCyclesPerSecond;  // 1 s run
  return t;
}

TEST(Energy, BreakdownSumsAndDutyCycle) {
  trace::NodeTrace t = busy_trace();
  hw::EnergyParams params;
  hw::EnergyBreakdown e = hw::estimate_energy(t, /*tx_airtime=*/0, params);
  // ~1M of 7.37M cycles active -> ~13.6% duty cycle.
  EXPECT_NEAR(e.mcu_duty_cycle, 1.0e6 / 7.3728e6, 1e-3);
  EXPECT_NEAR(e.mcu_active_mj, params.mcu_active_mw * (1.0e6 / 7.3728e6),
              0.01);
  EXPECT_GT(e.mcu_sleep_mj, 0.0);
  EXPECT_EQ(e.radio_tx_mj, 0.0);
  EXPECT_NEAR(e.radio_rx_mj, params.radio_rx_mw * 1.0, 1e-9);
  EXPECT_NEAR(e.total_mj(), e.mcu_active_mj + e.mcu_sleep_mj +
                                e.radio_tx_mj + e.radio_rx_mj,
              1e-12);
}

TEST(Energy, TxAirtimeShiftsRadioEnergy) {
  trace::NodeTrace t = busy_trace();
  hw::EnergyParams params;
  sim::Cycle half = t.run_end / 2;
  hw::EnergyBreakdown e = hw::estimate_energy(t, half, params);
  EXPECT_NEAR(e.radio_tx_mj, params.radio_tx_mw * 0.5, 1e-6);
  EXPECT_NEAR(e.radio_rx_mj, params.radio_rx_mw * 0.5, 1e-6);
}

TEST(Energy, IdleNodeIsAlmostAllSleepAndListen) {
  trace::NodeTrace t;
  t.instr_table = {{"h", "a", 8}};
  t.run_end = sim::kCyclesPerSecond;
  hw::EnergyBreakdown e = hw::estimate_energy(t, 0);
  EXPECT_EQ(e.mcu_active_mj, 0.0);
  EXPECT_LT(e.mcu_duty_cycle, 1e-9);
  EXPECT_GT(e.radio_rx_mj, e.mcu_sleep_mj);  // idle listening dominates
}

TEST(Energy, Validation) {
  trace::NodeTrace t;
  t.run_end = 0;
  EXPECT_THROW(hw::estimate_energy(t, 0), util::PreconditionError);
  t.run_end = 100;
  EXPECT_THROW(hw::estimate_energy(t, 200), util::PreconditionError);
}

TEST(Energy, ChipAccumulatesTxAirtime) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(9));
  os::Node n0(0, q), n1(1, q);
  hw::RadioChip c0(q, n0.machine(), ch, 0, util::Rng(1));
  hw::RadioChip c1(q, n1.machine(), ch, 1, util::Rng(2));
  // Register trivial SPI handlers so chip events have a target.
  for (os::Node* n : {&n0, &n1}) {
    mcu::CodeId h = mcu::CodeBuilder("spi", false)
                        .instr("nop", [] {})
                        .build(n->program());
    n->machine().register_handler(os::irq::kRadioSpi, h);
  }
  c0.set_signal_txdone(false);
  EXPECT_EQ(c0.tx_airtime(), 0u);
  net::Packet p;
  p.dst = 1;
  p.payload = {1, 2, 3};
  q.schedule_at(0, [&] { c0.send(p); });
  q.run_all();
  // Sender transmitted RTS + DATA; receiver transmitted CTS + ACK.
  EXPECT_GT(c0.tx_airtime(), 0u);
  EXPECT_GT(c1.tx_airtime(), 0u);
  EXPECT_GT(c0.tx_airtime(), c1.tx_airtime());  // data frame is larger
}

}  // namespace
}  // namespace sent

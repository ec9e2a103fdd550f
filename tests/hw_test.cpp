#include <gtest/gtest.h>

#include <vector>

#include "hw/adc.hpp"
#include "hw/radio.hpp"
#include "hw/sensor.hpp"
#include "net/topology.hpp"
#include "os/node.hpp"
#include "util/assert.hpp"

namespace sent::hw {
namespace {

// --------------------------------------------------------------- sensors

TEST(Sensor, ConstantSensor) {
  SensorFn s = make_constant_sensor(321);
  EXPECT_EQ(s(0), 321);
  EXPECT_EQ(s(1000000), 321);
}

TEST(Sensor, TemperatureStaysInAdcRangeAndVaries) {
  SensorFn s = make_temperature_sensor(util::Rng(5));
  std::uint16_t lo = 1023, hi = 0;
  for (int i = 0; i < 5000; ++i) {
    std::uint16_t v = s(static_cast<sim::Cycle>(i) * 100000);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_LE(v, 1023);
  }
  EXPECT_GT(hi - lo, 50);  // the signal actually moves
}

TEST(Sensor, TemperatureDeterministicForSameRng) {
  SensorFn s1 = make_temperature_sensor(util::Rng(9));
  SensorFn s2 = make_temperature_sensor(util::Rng(9));
  for (int i = 0; i < 100; ++i) {
    sim::Cycle t = static_cast<sim::Cycle>(i) * 12345;
    EXPECT_EQ(s1(t), s2(t));
  }
}

// ------------------------------------------------------------------- adc

struct AdcHarness {
  sim::EventQueue q;
  os::Node node{0, q};
  AdcDevice adc{q, node.machine(), util::Rng(3)};
  std::vector<std::uint16_t> readings;

  AdcHarness() {
    mcu::CodeId handler =
        mcu::CodeBuilder("Read.readDone", false)
            .instr("store", [this] { readings.push_back(adc.value()); })
            .build(node.program());
    node.machine().register_handler(os::irq::kAdc, handler);
  }
};

TEST(Adc, ConversionRaisesInterruptWithLatchedValue) {
  AdcHarness h;
  h.adc.set_sensor(make_constant_sensor(777));
  h.q.schedule_at(0, [&] { EXPECT_TRUE(h.adc.request_read()); });
  h.q.run_all();
  ASSERT_EQ(h.readings.size(), 1u);
  EXPECT_EQ(h.readings[0], 777);
  EXPECT_EQ(h.adc.conversions(), 1u);
}

TEST(Adc, BusyDuringConversionDropsOverlappingRequest) {
  AdcHarness h;
  h.q.schedule_at(0, [&] {
    EXPECT_TRUE(h.adc.request_read());
    EXPECT_TRUE(h.adc.busy());
    EXPECT_FALSE(h.adc.request_read());  // overlapping request dropped
  });
  h.q.run_all();
  EXPECT_EQ(h.readings.size(), 1u);
  EXPECT_EQ(h.adc.dropped_requests(), 1u);
  EXPECT_FALSE(h.adc.busy());
}

TEST(Adc, ConversionLatencyWithinJitterBounds) {
  AdcHarness h;
  sim::Cycle requested = 0;
  h.q.schedule_at(500, [&] {
    requested = h.q.now();
    h.adc.request_read();
  });
  h.q.run_all();
  // The interrupt fires within the mean latency +/- the jitter after the
  // request (plus the machine wakeup, bounded by a handful of cycles).
  sim::Cycle done = h.q.now();
  EXPECT_GE(done - requested, AdcDevice::kMeanLatency - AdcDevice::kJitter);
  EXPECT_LE(done - requested,
            AdcDevice::kMeanLatency + AdcDevice::kJitter + 30);
}

TEST(Adc, SequentialReadsTrackSensor) {
  AdcHarness h;
  std::uint16_t next = 0;
  h.adc.set_sensor([&next](sim::Cycle) { return next++; });
  for (int i = 0; i < 5; ++i)
    h.q.schedule_at(static_cast<sim::Cycle>(i) * 10000,
                    [&] { h.adc.request_read(); });
  h.q.run_all();
  EXPECT_EQ(h.readings, (std::vector<std::uint16_t>{0, 1, 2, 3, 4}));
}

// ----------------------------------------------------------------- radio

// A node with a radio chip and an SPI handler that drains chip events.
struct RadioNode {
  os::Node node;
  RadioChip chip;
  std::vector<RadioChip::Event> events;

  RadioNode(net::NodeId id, sim::EventQueue& q, net::Channel& ch,
            RadioParams params = {})
      : node(id, q), chip(q, node.machine(), ch, id, util::Rng(100 + id),
                          params) {
    mcu::CodeId handler =
        mcu::CodeBuilder("SpiHandler", false)
            .label("top")
            .ret_if("empty", [this] { return !chip.has_event(); })
            .instr("drain", [this] { events.push_back(chip.take_event()); })
            .jump("loop", "top")
            .build(node.program());
    node.machine().register_handler(os::irq::kRadioSpi, handler);
  }

  int rx_count() const {
    int n = 0;
    for (const auto& e : events) n += e.kind == RadioChip::Event::Kind::RxDone;
    return n;
  }
  const RadioChip::Event* first_txdone() const {
    for (const auto& e : events)
      if (e.kind == RadioChip::Event::Kind::TxDone) return &e;
    return nullptr;
  }
};

struct RadioHarness {
  sim::EventQueue q;
  net::Channel ch{q, util::Rng(55)};
  RadioNode n0, n1;
  RadioHarness(RadioParams params = {})
      : n0(0, q, ch, params), n1(1, q, ch, params) {}
};

net::Packet app_packet(net::NodeId dst) {
  net::Packet p;
  p.dst = dst;
  p.am_type = 10;
  p.payload = {1, 2, 3, 4, 5, 6};
  return p;
}

TEST(Radio, UnicastSendDeliversAndCompletesWithAck) {
  RadioHarness h;
  h.q.schedule_at(0, [&] {
    EXPECT_EQ(h.n0.chip.send(app_packet(1)), SendResult::Ok);
    EXPECT_TRUE(h.n0.chip.busy());
  });
  h.q.run_all();
  EXPECT_EQ(h.n1.rx_count(), 1);
  const auto* txdone = h.n0.first_txdone();
  ASSERT_NE(txdone, nullptr);
  EXPECT_EQ(txdone->status, TxStatus::Success);
  EXPECT_FALSE(h.n0.chip.busy());
  EXPECT_EQ(h.n0.chip.tx_success(), 1u);
  // Receiver saw the payload intact.
  EXPECT_EQ(h.n1.events[0].packet.payload,
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(Radio, BusyFlagRejectsConcurrentSend) {
  RadioHarness h;
  SendResult second = SendResult::Ok;
  h.q.schedule_at(0, [&] {
    EXPECT_EQ(h.n0.chip.send(app_packet(1)), SendResult::Ok);
    second = h.n0.chip.send(app_packet(1));
  });
  h.q.run_all();
  EXPECT_EQ(second, SendResult::Busy);
  EXPECT_EQ(h.n0.chip.sends_rejected_busy(), 1u);
  EXPECT_EQ(h.n0.chip.sends_accepted(), 1u);
}

TEST(Radio, BusyFlagHeldForWholeExchangeThenCleared) {
  RadioHarness h;
  h.q.schedule_at(0, [&] { h.n0.chip.send(app_packet(1)); });
  // Probe while the RTS/CTS/DATA/ACK exchange is in flight.
  h.q.schedule_at(sim::cycles_from_millis(3), [&] {
    EXPECT_TRUE(h.n0.chip.busy());
  });
  h.q.run_all();
  EXPECT_FALSE(h.n0.chip.busy());
}

TEST(Radio, BroadcastSkipsHandshake) {
  RadioHarness h;
  h.q.schedule_at(0, [&] { h.n0.chip.send(app_packet(net::kBroadcast)); });
  h.q.run_all();
  EXPECT_EQ(h.n1.rx_count(), 1);
  const auto* txdone = h.n0.first_txdone();
  ASSERT_NE(txdone, nullptr);
  EXPECT_EQ(txdone->status, TxStatus::Success);
  // Only the data frame went on air (no RTS/CTS/ACK).
  EXPECT_EQ(h.ch.frames_sent(), 1u);
}

TEST(Radio, NoCtsWhenDestinationUnreachable) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(5));
  RadioNode n0(0, q, ch), n1(1, q, ch);
  ch.add_link(0, 1);
  q.schedule_at(0, [&] { n0.chip.send(app_packet(42)); });  // 42 not attached
  q.run_all();
  const auto* txdone = n0.first_txdone();
  ASSERT_NE(txdone, nullptr);
  EXPECT_EQ(txdone->status, TxStatus::NoCts);
  EXPECT_FALSE(n0.chip.busy());
  EXPECT_EQ(n0.chip.tx_failed(), 1u);
}

TEST(Radio, ChannelStuckWhenCarrierNeverClears) {
  RadioHarness h;
  // A third party occupies the channel for a very long time.
  net::Packet jam;
  jam.dst = net::kBroadcast;
  RadioNode n2(2, h.q, h.ch);
  h.q.schedule_at(0, [&] {
    h.ch.transmit(2, jam, sim::cycles_from_seconds(30));
  });
  h.q.schedule_at(100, [&] { h.n0.chip.send(app_packet(1)); });
  h.q.run_until(sim::cycles_from_seconds(1));
  const auto* txdone = h.n0.first_txdone();
  ASSERT_NE(txdone, nullptr);
  EXPECT_EQ(txdone->status, TxStatus::ChannelStuck);
}

TEST(Radio, AddressFilterIgnoresForeignUnicast) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(5));
  RadioNode n0(0, q, ch), n1(1, q, ch), n2(2, q, ch);
  q.schedule_at(0, [&] { n0.chip.send(app_packet(1)); });
  q.run_all();
  EXPECT_EQ(n1.rx_count(), 1);
  EXPECT_EQ(n2.rx_count(), 0);  // overheard but filtered
}

TEST(Radio, TakeEventOnEmptyQueueThrows) {
  RadioHarness h;
  EXPECT_THROW(h.n0.chip.take_event(), util::PreconditionError);
}

TEST(Radio, BackToBackSendsBothSucceed) {
  RadioHarness h;
  int done = 0;
  // Send the second packet once the first completes.
  h.q.schedule_at(0, [&] { h.n0.chip.send(app_packet(1)); });
  // Poll-and-send via a periodic probe (simulating app retry).
  std::function<void()> probe = [&] {
    if (!h.n0.chip.busy() && done == 0 && h.n0.first_txdone() != nullptr) {
      done = 1;
      h.n0.chip.send(app_packet(1));
    } else if (done == 1 && !h.n0.chip.busy()) {
      return;  // second also finished
    }
    h.q.schedule_after(sim::cycles_from_millis(1), probe);
  };
  h.q.schedule_at(sim::cycles_from_millis(1), probe);
  h.q.run_until(sim::cycles_from_seconds(2));
  EXPECT_EQ(h.n1.rx_count(), 2);
  EXPECT_EQ(h.n0.chip.tx_success(), 2u);
}

TEST(Radio, FasterBitRateShortensBusyWindow) {
  RadioParams slow;  // 19.2 kbps
  RadioParams fast;
  fast.bits_per_second = 250000.0;
  sim::Cycle slow_busy = 0, fast_busy = 0;
  for (auto* pair : {&slow_busy, &fast_busy}) {
    RadioHarness h(pair == &slow_busy ? slow : fast);
    h.q.schedule_at(0, [&] { h.n0.chip.send(app_packet(1)); });
    sim::Cycle start = 0;
    h.q.run_all();
    const auto* txdone = h.n0.first_txdone();
    ASSERT_NE(txdone, nullptr);
    *pair = h.q.now() - start;
  }
  EXPECT_LT(fast_busy * 4, slow_busy);
}

}  // namespace
}  // namespace sent::hw

// Edge-case coverage: anatomizer on truncated recordings, cross-program
// pooling errors, and end-to-end verification of the Oscilloscope
// firmware's value-processing path (clamp + calibration) at the sink.
#include <gtest/gtest.h>

#include <deque>

#include "apps/oscilloscope.hpp"
#include "apps/sink.hpp"
#include "core/anatomizer.hpp"
#include "lifecycle_notation.hpp"
#include "net/channel.hpp"
#include "pipeline/sentomist.hpp"
#include "util/rng.hpp"

namespace sent {
namespace {

// --------------------------------------- truncated-trace property test

// Reuse the concurrency-model generator idea from core_test, then cut the
// sequence at a random point. The anatomizer must survive any prefix of a
// valid trace: no crashes, sane windows, truncation flagged.
struct PrefixGen {
  util::Rng rng;
  std::vector<trace::LifecycleItem> seq;
  std::deque<std::uint32_t> queue;
  std::uint32_t next_task = 0;
  sim::Cycle cycle = 0;

  explicit PrefixGen(std::uint64_t seed) : rng(seed) {}

  void emit(trace::LifecycleKind kind, std::uint32_t arg,
            sim::Cycle end = 0) {
    seq.push_back({kind, cycle++, arg, end});
  }

  void handler(int depth) {
    emit(trace::LifecycleKind::Int, static_cast<std::uint32_t>(
                                        1 + rng.below(4)));
    int actions = static_cast<int>(rng.below(3));
    for (int a = 0; a < actions; ++a) {
      if (depth < 2 && rng.chance(0.3)) {
        handler(depth + 1);
      } else if (next_task < 200) {
        queue.push_back(next_task);
        emit(trace::LifecycleKind::PostTask, next_task++);
      }
    }
    emit(trace::LifecycleKind::Reti, 0);
  }

  void run_task() {
    std::uint32_t id = queue.front();
    queue.pop_front();
    std::size_t idx = seq.size();
    emit(trace::LifecycleKind::RunTask, id);
    if (rng.chance(0.4)) handler(1);
    if (rng.chance(0.5) && next_task < 200) {
      queue.push_back(next_task);
      emit(trace::LifecycleKind::PostTask, next_task++);
    }
    seq[idx].end_cycle = cycle;
  }

  void generate() {
    for (int e = 0; e < 8; ++e) {
      handler(0);
      std::size_t run = rng.below(queue.size() + 1);
      for (std::size_t i = 0; i < run; ++i) run_task();
    }
    while (!queue.empty()) run_task();
  }
};

class TruncatedPrefix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TruncatedPrefix, AnatomizerSurvivesAnyPrefix) {
  PrefixGen gen(GetParam());
  gen.generate();

  for (std::size_t cut : {gen.seq.size() / 4, gen.seq.size() / 2,
                          gen.seq.size() - 1}) {
    if (cut == 0) continue;
    trace::NodeTrace t;
    t.lifecycle.assign(gen.seq.begin(),
                       gen.seq.begin() + static_cast<long>(cut));
    t.run_end = t.lifecycle.back().cycle + 10;
    // Tasks whose completion lies beyond the cut are still running.
    for (auto& item : t.lifecycle) {
      if (item.kind == trace::LifecycleKind::RunTask &&
          item.end_cycle > t.lifecycle.back().cycle)
        item.end_cycle = 0;
    }
    core::Anatomizer anatomizer(t);
    for (const auto& interval : anatomizer.all_intervals()) {
      EXPECT_LE(interval.start_cycle, interval.end_cycle);
      EXPECT_LE(interval.end_cycle, t.run_end);
      if (interval.truncated) {
        EXPECT_EQ(interval.end_cycle, t.run_end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruncatedPrefix,
                         ::testing::Range<std::uint64_t>(0, 10));

// --------------------------------------------------- pooling mismatches

TEST(Pooling, DifferentProgramsCannotBePooled) {
  // Two traces with different instruction tables: append_rows must refuse
  // (pooling them would silently misalign counters).
  trace::NodeTrace a, b;
  a.instr_table = {{"f", "x", 8}};
  a.lifecycle = trace::parse_compact("int(5) reti");
  a.run_end = 10;
  b.instr_table = {{"g", "y", 8}, {"g", "z", 8}};
  b.lifecycle = trace::parse_compact("int(5) reti");
  b.run_end = 10;
  std::vector<pipeline::TaggedTrace> traces{{&a, 0}, {&b, 1}};
  EXPECT_THROW(pipeline::analyze(traces, 5), util::PreconditionError);
}

// ------------------------------------- firmware data path, end to end

// Constant 800-count readings must arrive at the sink as 697: clamped to
// the 700 spike ceiling, then -3 by the high-range calibration.
TEST(OscilloscopeFirmware, ClampAndCalibrationReachTheSink) {
  sim::EventQueue q;
  net::Channel channel(q, util::Rng(1));

  os::Node sink_node(0, q);
  hw::RadioChip sink_chip(q, sink_node.machine(), channel, 0,
                          util::Rng(2));
  apps::SinkApp sink(sink_node, sink_chip);

  os::Node sensor_node(1, q);
  hw::RadioChip chip(q, sensor_node.machine(), channel, 1, util::Rng(3));
  chip.set_signal_txdone(false);
  hw::AdcDevice adc(q, sensor_node.machine(), util::Rng(4));
  adc.set_sensor(hw::make_constant_sensor(800));

  apps::OscilloscopeConfig config;
  config.with_maintenance = false;
  config.sample_period = sim::cycles_from_millis(30);
  apps::OscilloscopeApp app(sensor_node, adc, chip, config, util::Rng(5));
  app.start();
  q.run_until(sim::cycles_from_seconds(2));

  ASSERT_GT(sink.received_total(), 5u);
  for (const auto& packet : sink.packets()) {
    ASSERT_EQ(packet.payload.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(net::get_u16(packet.payload, i * 2), 697);
  }
}

// Low readings (value 100) take neither the clamp nor the calibration
// path and arrive unchanged.
TEST(OscilloscopeFirmware, LowReadingsPassThrough) {
  sim::EventQueue q;
  net::Channel channel(q, util::Rng(1));
  os::Node sink_node(0, q);
  hw::RadioChip sink_chip(q, sink_node.machine(), channel, 0,
                          util::Rng(2));
  apps::SinkApp sink(sink_node, sink_chip);
  os::Node sensor_node(1, q);
  hw::RadioChip chip(q, sensor_node.machine(), channel, 1, util::Rng(3));
  chip.set_signal_txdone(false);
  hw::AdcDevice adc(q, sensor_node.machine(), util::Rng(4));
  adc.set_sensor(hw::make_constant_sensor(100));
  apps::OscilloscopeConfig config;
  config.with_maintenance = false;
  config.sample_period = sim::cycles_from_millis(30);
  apps::OscilloscopeApp app(sensor_node, adc, chip, config, util::Rng(5));
  app.start();
  q.run_until(sim::cycles_from_seconds(1));
  ASSERT_GT(sink.received_total(), 2u);
  EXPECT_EQ(net::get_u16(sink.packets()[0].payload, 0), 100);
}

}  // namespace
}  // namespace sent

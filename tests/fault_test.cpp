#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/scenarios.hpp"
#include "fault/injector.hpp"
#include "hw/radio_params.hpp"
#include "net/channel.hpp"
#include "net/topology.hpp"
#include "os/node.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace sent::fault {
namespace {

std::string serialized(const trace::NodeTrace& t) {
  std::ostringstream os;
  trace::save_trace(t, os);
  return os.str();
}

// ---- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, DefaultIsClean) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any_runtime());
  EXPECT_FALSE(plan.any_trace());
  EXPECT_FALSE(plan.any());
}

TEST(FaultPlan, IntensityScalesRatesNotShapes) {
  FaultPlan zero = FaultPlan::at_intensity(0.0);
  EXPECT_FALSE(zero.any());
  FaultPlan half = FaultPlan::at_intensity(0.5);
  FaultPlan full = FaultPlan::at_intensity(1.0);
  EXPECT_TRUE(half.any_runtime());
  EXPECT_TRUE(half.any_trace());
  EXPECT_DOUBLE_EQ(half.radio_stuck_busy_per_s * 2.0,
                   full.radio_stuck_busy_per_s);
  EXPECT_DOUBLE_EQ(half.spurious_irq_per_s * 2.0, full.spurious_irq_per_s);
  EXPECT_DOUBLE_EQ(half.trace_truncate_prob * 2.0, full.trace_truncate_prob);
  // Magnitudes stay fixed across the grid.
  EXPECT_DOUBLE_EQ(half.radio_stuck_busy_ms, full.radio_stuck_busy_ms);
  EXPECT_DOUBLE_EQ(half.sensor_spike_counts, full.sensor_spike_counts);
}

// ---- injector primitives --------------------------------------------------

TEST(FaultInjector, RadioWindowsAreScheduledAndFire) {
  sim::EventQueue queue;
  util::Rng rng(7);
  net::Channel channel(queue, rng.substream("channel"));
  os::Node node(1, queue);
  hw::RadioChip chip(queue, node.machine(), channel, 1,
                     rng.substream("chip"), hw::RadioParams{});

  FaultPlan plan;
  plan.radio_stuck_busy_per_s = 20.0;
  FaultInjector injector(queue, plan, rng.substream("faults"),
                         sim::cycles_from_seconds(2.0));
  injector.attach_radio(chip);
  EXPECT_GT(injector.counts().busy_windows, 0u);

  queue.run_until(sim::cycles_from_seconds(2.0));
  EXPECT_GT(chip.fault_busy_windows(), 0u);
  // Every injected window expired (the chip is not left wedged).
  EXPECT_FALSE(chip.busy());
}

TEST(FaultInjector, SensorWrapPassesThroughWhenClean) {
  sim::EventQueue queue;
  FaultPlan plan;  // no sensor faults
  FaultInjector injector(queue, plan, util::Rng(1), 1000);
  hw::SensorFn inner = hw::make_constant_sensor(321);
  hw::SensorFn wrapped = injector.wrap_sensor(inner, "adc-0");
  for (sim::Cycle at : {0u, 100u, 5000u})
    EXPECT_EQ(wrapped(at), 321);
}

TEST(FaultInjector, SensorSpikesAddCountsAndClamp) {
  sim::EventQueue queue;
  FaultPlan plan;
  plan.sensor_spike_prob = 1.0;  // every conversion glitches
  plan.sensor_spike_counts = 200.0;
  FaultInjector injector(queue, plan, util::Rng(1),
                         sim::cycles_from_seconds(1.0));
  hw::SensorFn spiky =
      injector.wrap_sensor(hw::make_constant_sensor(600), "adc-0");
  EXPECT_EQ(spiky(0), 800);

  FaultInjector clamp_injector(queue, plan, util::Rng(1),
                               sim::cycles_from_seconds(1.0));
  hw::SensorFn clamped =
      clamp_injector.wrap_sensor(hw::make_constant_sensor(1000), "adc-0");
  EXPECT_EQ(clamped(0), 1023);  // 10-bit ADC ceiling
}

TEST(FaultInjector, SensorStuckWindowFreezesReading) {
  sim::EventQueue queue;
  FaultPlan plan;
  plan.sensor_stuck_per_s = 10000.0;  // windows everywhere
  plan.sensor_stuck_ms = 50.0;
  FaultInjector injector(queue, plan, util::Rng(5),
                         sim::cycles_from_seconds(1.0));
  hw::SensorFn counter = injector.wrap_sensor(
      [n = std::uint16_t{0}](sim::Cycle) mutable { return n++; }, "adc-0");
  ASSERT_GT(injector.counts().sensor_stuck_windows, 0u);
  // At this density the very first samples land inside a window: repeated
  // reads at nearby cycles return the frozen value.
  std::uint16_t first = counter(sim::cycles_from_millis(10));
  EXPECT_EQ(counter(sim::cycles_from_millis(10) + 1), first);
  EXPECT_EQ(counter(sim::cycles_from_millis(10) + 2), first);
}

// ---- determinism ----------------------------------------------------------

// The core guarantee: a faulty run is a pure function of (plan, seed).
TEST(FaultDeterminism, SameSeedSamePlanSameTrace) {
  apps::Case2Config config;
  config.seed = 11;
  config.run_seconds = 3.0;
  config.faults = FaultPlan::at_intensity(1.0);
  apps::Case2Result a = apps::run_case2(config);
  apps::Case2Result b = apps::run_case2(config);
  EXPECT_EQ(serialized(a.relay_trace), serialized(b.relay_trace));
  EXPECT_EQ(a.sink_received, b.sink_received);
}

TEST(FaultDeterminism, FaultsActuallyPerturbTheRun) {
  apps::Case2Config clean;
  clean.seed = 11;
  clean.run_seconds = 3.0;
  apps::Case2Config faulty = clean;
  faulty.faults = FaultPlan::at_intensity(1.0);
  EXPECT_NE(serialized(apps::run_case2(clean).relay_trace),
            serialized(apps::run_case2(faulty).relay_trace));
}

// A zero plan must leave the run bit-identical to one where the fault
// subsystem was never wired (no stolen RNG draws, no extra events).
TEST(FaultDeterminism, CleanPlanIsZeroCost) {
  apps::Case2Config config;
  config.seed = 4;
  config.run_seconds = 3.0;
  std::string baseline = serialized(apps::run_case2(config).relay_trace);

  apps::Case2Config with_budget = config;
  with_budget.event_budget = 1ull << 62;  // armed but never hit
  EXPECT_EQ(baseline,
            serialized(apps::run_case2(with_budget).relay_trace));

  apps::Case2Config trace_only = config;
  trace_only.faults.trace_truncate_prob = 0.5;  // no RUNTIME faults
  EXPECT_EQ(baseline,
            serialized(apps::run_case2(trace_only).relay_trace));
}

// Dropping every interrupt silences the whole network but must not crash
// or hang the simulation.
TEST(FaultDeterminism, DropAllInterruptsIsSurvivable) {
  apps::Case2Config config;
  config.seed = 2;
  config.run_seconds = 2.0;
  config.faults.drop_irq_prob = 1.0;
  apps::Case2Result r = apps::run_case2(config);
  EXPECT_EQ(r.sink_received, 0u);
}

// ---- trace perturbation ---------------------------------------------------

TEST(PerturbTrace, ZeroPlanReturnsTextUntouchedAndDrawsNothing) {
  FaultPlan plan;
  util::Rng rng(9);
  std::uint64_t before = util::Rng(9).next();
  std::string text = "SENTOMIST-TRACE v1\nnode 1\n";
  EXPECT_EQ(FaultInjector::perturb_trace_text(text, plan, rng), text);
  EXPECT_EQ(rng.next(), before);  // untouched stream
}

TEST(PerturbTrace, DeterministicForFixedRng) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 2.0;
  std::string text = serialized(apps::run_case2(config).relay_trace);
  FaultPlan plan;
  plan.trace_truncate_prob = 1.0;
  plan.trace_corrupt_prob = 1.0;
  util::Rng rng_a(42), rng_b(42);
  std::string a = FaultInjector::perturb_trace_text(text, plan, rng_a);
  std::string b = FaultInjector::perturb_trace_text(text, plan, rng_b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, text);
  EXPECT_LE(a.size(), text.size());
}

// Perturbed output must always be loadable leniently — the contract the
// chaos bench relies on for zero process aborts.
TEST(PerturbTrace, PerturbedTracesAlwaysSalvage) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 2.0;
  const std::string text = serialized(apps::run_case2(config).relay_trace);
  FaultPlan plan = FaultPlan::at_intensity(1.0);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    std::string mutated =
        FaultInjector::perturb_trace_text(text, plan, rng);
    std::istringstream in(mutated);
    EXPECT_NO_THROW({ trace::load_trace_lenient(in); }) << "iteration " << i;
  }
}

}  // namespace
}  // namespace sent::fault

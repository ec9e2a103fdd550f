// Cross-substrate parity suite (DESIGN.md §12): the bytecode interpreter +
// pooled event engine and the retained reference (closure + boxed) path
// must be observationally identical. For each Fig-5 case-study driver and
// for a randomized property battery, runs under both DispatchModes must
// produce byte-identical serialized traces and identical Sentomist outlier
// rankings. Any divergence — one event fired out of order, one instruction
// timestamp off by a cycle — fails here before it can corrupt a result.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "fault/injector.hpp"
#include "pipeline/sentomist.hpp"
#include "sim/dispatch.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace sent;

/// Pin the process-wide dispatch mode for one run, restoring on exit.
struct ModeGuard {
  explicit ModeGuard(sim::DispatchMode mode) : saved(sim::dispatch_mode()) {
    sim::set_dispatch_mode(mode);
  }
  ~ModeGuard() { sim::set_dispatch_mode(saved); }
  sim::DispatchMode saved;
};

std::string serialize(const std::vector<trace::NodeTrace>& traces) {
  std::ostringstream os;
  for (const auto& t : traces) trace::save_trace(t, os);
  return os.str();
}

std::string ranking_of(const trace::NodeTrace& t, trace::IrqLine line) {
  std::vector<pipeline::TaggedTrace> tagged{{&t, 0}};
  pipeline::AnalysisReport report = pipeline::analyze(tagged, line);
  std::ostringstream os;
  for (const auto& e : report.ranking) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu:%.17g;", e.sample_index, e.score);
    os << buf;
  }
  return os.str();
}

/// One engine's observable outcome of a scenario run.
struct Observed {
  std::string traces;   ///< serialized byte stream of every trace
  std::string ranking;  ///< Fig-5 ranking signature of the target trace
};

template <typename Runner>
Observed observe(sim::DispatchMode mode, Runner runner) {
  ModeGuard guard(mode);
  return runner();
}

template <typename Runner>
void expect_parity(Runner runner, const std::string& what) {
  Observed byte = observe(sim::DispatchMode::Bytecode, runner);
  Observed ref = observe(sim::DispatchMode::Reference, runner);
  EXPECT_EQ(byte.traces, ref.traces) << what << ": traces diverge";
  EXPECT_EQ(byte.ranking, ref.ranking) << what << ": rankings diverge";
  EXPECT_FALSE(byte.traces.empty()) << what << ": no trace recorded";
}

// --------------------------------------------------------- Fig-5 drivers

TEST(DispatchParity, Fig5aOscilloscope) {
  expect_parity(
      [] {
        apps::Case1Config config;
        config.seed = 7;
        config.sample_periods_ms = {20};
        config.run_seconds = 2.0;
        config.osc.maintenance_heavy_prob = 1.0;
        config.osc.heavy_iterations = 2000;
        apps::Case1Result r = apps::run_case1(config);
        Observed o;
        o.ranking = ranking_of(r.runs[0].sensor_trace, os::irq::kAdc);
        o.traces = serialize({r.runs[0].sensor_trace});
        return o;
      },
      "fig5a");
}

TEST(DispatchParity, Fig5bRelay) {
  expect_parity(
      [] {
        apps::Case2Config config;
        config.seed = 11;
        config.run_seconds = 4.0;
        apps::Case2Result r = apps::run_case2(config);
        Observed o;
        o.ranking = ranking_of(r.relay_trace, os::irq::kRadioSpi);
        o.traces = serialize({r.relay_trace});
        return o;
      },
      "fig5b");
}

TEST(DispatchParity, Fig5cCtpHeartbeat) {
  expect_parity(
      [] {
        apps::Case3Config config;
        config.seed = 13;
        config.run_seconds = 3.0;
        apps::Case3Result r = apps::run_case3(config);
        Observed o;
        o.ranking = ranking_of(r.traces[r.sources.front()], r.report_line);
        o.traces = serialize(r.traces);
        return o;
      },
      "fig5c");
}

// The bench configuration exercises the knobs the default drivers do not:
// multi-word encoding and deterministic report staggering. Parity must
// hold there too — it is the configuration the speedup claim is made on.
TEST(DispatchParity, Fig5cBenchKnobs) {
  expect_parity(
      [] {
        apps::Case3Config config;
        config.seed = 17;
        config.run_seconds = 3.0;
        config.num_sources = 4;
        config.app.report_period = sim::cycles_from_millis(8);
        config.app.report_stagger = config.app.report_period / 9;
        config.app.encode_words = 8;
        apps::Case3Result r = apps::run_case3(config);
        Observed o;
        o.ranking = ranking_of(r.traces[r.sources.front()], r.report_line);
        o.traces = serialize(r.traces);
        return o;
      },
      "fig5c-bench");
}

// ------------------------------------------------ property battery

// Randomized seeds and fault intensities: the substrates must agree not
// just on the tuned demo configs but across the workload space the
// interval property battery samples — including runs where injected
// faults wedge protocol state machines.
TEST(DispatchParity, RandomizedWorkloadBattery) {
  util::Rng gen(0xD15FA7C4);
  for (double intensity : {0.0, 0.5}) {
    for (int round = 0; round < 2; ++round) {
      const std::uint64_t seed = 1 + gen.below(1'000'000);
      SCOPED_TRACE("seed " + std::to_string(seed) + " intensity " +
                   std::to_string(intensity));
      expect_parity(
          [seed, intensity] {
            apps::Case1Config config;
            config.seed = seed;
            config.sample_periods_ms = {20, 60};
            config.run_seconds = 1.0;
            config.faults = fault::FaultPlan::at_intensity(intensity);
            config.faults.trace_truncate_prob = 0.0;
            config.faults.trace_corrupt_prob = 0.0;
            config.event_budget = 20'000'000;
            apps::Case1Result r = apps::run_case1(config);
            Observed o;
            std::vector<trace::NodeTrace> traces;
            for (auto& run : r.runs) traces.push_back(run.sensor_trace);
            o.traces = serialize(traces);
            o.ranking = ranking_of(traces.front(), os::irq::kAdc);
            return o;
          },
          "battery-case1");
    }
  }
}

/// The fault batteries' plan: runtime faults at intensity 0.5, trace
/// faults off (those perturb saved text, not the simulation).
fault::FaultPlan battery_plan() {
  fault::FaultPlan plan = fault::FaultPlan::at_intensity(0.5);
  plan.trace_truncate_prob = 0.0;
  plan.trace_corrupt_prob = 0.0;
  return plan;
}

// Injected radio, sensor, clock and IRQ faults push the relay and the
// CTP mesh through their rarest interleavings: wake-ups from spurious
// IRQs, lost raises, stuck-busy radios. The substrates must still agree.
TEST(DispatchParity, Case2FaultBattery) {
  util::Rng gen(0xD15FA7C6);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t seed = 1 + gen.below(1'000'000);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_parity(
        [seed] {
          apps::Case2Config config;
          config.seed = seed;
          config.run_seconds = 4.0;
          config.faults = battery_plan();
          config.event_budget = 50'000'000;
          apps::Case2Result r = apps::run_case2(config);
          Observed o;
          o.traces = serialize({r.relay_trace});
          o.ranking = ranking_of(r.relay_trace, os::irq::kRadioSpi);
          return o;
        },
        "fault-battery-case2");
  }
}

TEST(DispatchParity, Case3FaultBattery) {
  util::Rng gen(0xD15FA7C7);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t seed = 1 + gen.below(1'000'000);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_parity(
        [seed] {
          apps::Case3Config config;
          config.seed = seed;
          config.run_seconds = 3.0;
          config.faults = battery_plan();
          config.event_budget = 50'000'000;
          apps::Case3Result r = apps::run_case3(config);
          Observed o;
          o.traces = serialize(r.traces);
          o.ranking = ranking_of(r.traces[r.sources.front()], r.report_line);
          return o;
        },
        "fault-battery-case3");
  }
}

// A budget far below the run's event count trips the watchdog mid-run.
// Both engines must stop at the same event: same budget, same events
// executed since arming, same message (which names the cycle).
TEST(DispatchParity, WatchdogTripsAtTheSameEvent) {
  struct Trip {
    std::uint64_t budget = 0;
    std::uint64_t executed = 0;
    std::string what;
  };
  auto trip = [](sim::DispatchMode mode) {
    ModeGuard guard(mode);
    apps::Case3Config config;
    config.seed = 19;
    config.run_seconds = 3.0;
    config.event_budget = 2'500;
    try {
      apps::run_case3(config);
    } catch (const sim::WatchdogTimeout& e) {
      return Trip{e.budget(), e.events_executed(), e.what()};
    }
    ADD_FAILURE() << "watchdog did not trip on " << sim::to_string(mode);
    return Trip{};
  };
  const Trip byte = trip(sim::DispatchMode::Bytecode);
  const Trip ref = trip(sim::DispatchMode::Reference);
  EXPECT_EQ(byte.budget, 2'500u);
  EXPECT_EQ(byte.budget, ref.budget);
  EXPECT_EQ(byte.executed, ref.executed);
  EXPECT_EQ(byte.what, ref.what);
}

TEST(DispatchParity, RandomizedCase3Battery) {
  util::Rng gen(0xD15FA7C5);
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t seed = 1 + gen.below(1'000'000);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_parity(
        [seed] {
          apps::Case3Config config;
          config.seed = seed;
          config.run_seconds = 2.0;
          config.event_budget = 50'000'000;
          apps::Case3Result r = apps::run_case3(config);
          Observed o;
          o.traces = serialize(r.traces);
          o.ranking = ranking_of(r.traces[r.sources.front()], r.report_line);
          return o;
        },
        "battery-case3");
  }
}

}  // namespace

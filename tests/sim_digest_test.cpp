// The simulator's observable output frozen as data
// (tests/golden/sim_digests.txt): for each run, the number of events the
// queue executed plus the length and FNV-1a of every node's saved trace.
// It covers the four case studies at seeds 1-8, the case-II and case-III
// fault batteries, one 81-node case-III grid, the Fig-5 demo and bench
// configurations, the randomized case-I/II/III batteries at the seeds they
// draw, one watchdog trip, the repaired apps of cases I-IV, every corpus
// variant both mutated and as its baseline, and a sink fed by a random
// source (the two programs whose traces the case runs recycle), so any
// change to the event engine, the machine, the channel or an app's
// program builder that moves one event or one trace byte fails here first. The fixture up to
// the watchdog trip was generated while a second, independent engine (a
// closure interpreter over a std::function heap) still reproduced it
// byte for byte; it is that engine's answers, kept as data. Regenerate
// after an intentional behaviour change with:
//   SENT_UPDATE_GOLDEN=1 ./sim_digest_test
//
// The queue-traffic test beside it pins where the engine's events come
// from: machine steps ride their lanes, so heap pushes stay a small share
// of the events executed, and runs of typed ops execute in the machine's
// fused loop (DESIGN.md §12, §12.4).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/sink.hpp"
#include "corpus/corpus.hpp"
#include "golden.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "trace/serialize.hpp"
#include "util/hash.hpp"

namespace {

using namespace sent;

constexpr std::uint64_t kSeeds = 8;
constexpr std::uint64_t kEventBudget = 50'000'000;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void describe_trace(std::ostream& os, const std::string& run,
                    const trace::NodeTrace& t) {
  std::string text;
  trace::save_trace(t, text);
  os << run << " node=" << t.node_id << " bytes=" << text.size()
     << " fnv1a64=" << hex64(util::fnv1a64(text)) << '\n';
}

void describe_run(std::ostream& os, const std::string& run,
                  std::uint64_t events,
                  const std::vector<trace::NodeTrace>& traces) {
  os << run << " events=" << events << '\n';
  for (const trace::NodeTrace& t : traces) describe_trace(os, run, t);
}

/// The fault battery's plan: runtime faults at `intensity`, trace faults
/// off (those perturb saved text, not the simulation).
fault::FaultPlan battery_plan(double intensity = 0.5) {
  fault::FaultPlan plan = fault::FaultPlan::at_intensity(intensity);
  plan.trace_truncate_prob = 0.0;
  plan.trace_corrupt_prob = 0.0;
  return plan;
}

void describe_case1(std::ostream& os, const std::string& run,
                    const apps::Case1Config& config) {
  apps::Case1Result r = apps::run_case1(config);
  os << run << " events=" << r.events_executed << '\n';
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    describe_trace(os, run + " run=" + std::to_string(i),
                   r.runs[i].sensor_trace);
}

void describe_case2(std::ostream& os, const std::string& run,
                    const apps::Case2Config& config) {
  apps::Case2Result r = apps::run_case2(config);
  describe_run(os, run, r.events_executed, {r.relay_trace});
}

void describe_case3(std::ostream& os, const std::string& run,
                    const apps::Case3Config& config) {
  apps::Case3Result r = apps::run_case3(config);
  describe_run(os, run, r.events_executed, r.traces);
}

/// A sink (node 0) fed directly by a random source (node 1) over a
/// two-node chain. Cases I and II run both programs but recycle their
/// traces inside the run, so only this world prints them.
void describe_sink_source(std::ostream& os, std::uint64_t seed) {
  sim::EventQueue queue;
  util::Rng rng(seed);
  net::Channel channel(queue, rng.substream("channel"));
  os::Node sink_node(0, queue);
  hw::RadioChip sink_chip(queue, sink_node.machine(), channel, 0,
                          rng.substream("chip0"));
  apps::SinkApp sink(sink_node, sink_chip);
  os::Node source_node(1, queue);
  hw::RadioChip source_chip(queue, source_node.machine(), channel, 1,
                            rng.substream("chip1"));
  apps::RandomSourceConfig config;
  config.dst = 0;
  apps::RandomSourceApp source(source_node, source_chip, config,
                               rng.substream("source"));
  net::make_chain(channel, {0, 1});
  source.start();
  queue.run_until(sim::cycles_from_seconds(5.0));
  describe_run(os, "sink+source seconds=5 seed=" + std::to_string(seed),
               queue.executed(),
               {sink_node.take_trace(), source_node.take_trace()});
}

std::string sim_digests() {
  std::ostringstream os;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string at = " seed=" + std::to_string(seed);
    {
      apps::Case1Config config;
      config.seed = seed;
      describe_case1(os, "I" + at, config);
    }
    {
      apps::Case2Config config;
      config.seed = seed;
      describe_case2(os, "II" + at, config);
    }
    {
      apps::Case3Config config;
      config.seed = seed;
      describe_case3(os, "III" + at, config);
    }
    {
      apps::Case4Config config;
      config.seed = seed;
      apps::Case4Result r = apps::run_case4(config);
      describe_run(os, "IV" + at, r.events_executed, r.traces);
    }
  }
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string at = " faults=0.5 seed=" + std::to_string(seed);
    {
      apps::Case2Config config;
      config.seed = seed;
      config.faults = battery_plan();
      config.event_budget = kEventBudget;
      describe_case2(os, "II" + at, config);
    }
    {
      apps::Case3Config config;
      config.seed = seed;
      config.faults = battery_plan();
      config.event_budget = kEventBudget;
      describe_case3(os, "III" + at, config);
    }
  }
  {
    apps::Case3Config config;  // 81 nodes: many lanes, wide channel rows
    config.seed = 1;
    config.rows = 9;
    config.cols = 9;
    config.run_seconds = 5.0;
    describe_case3(os, "III grid=9x9 seed=1", config);
  }
  // The Fig-5 demo configurations: case I with heavy maintenance in every
  // period, the relay at 4 s, the CTP mesh at 3 s, and the mesh with the
  // bench knobs (multi-word encoding, staggered reports).
  {
    apps::Case1Config config;
    config.seed = 7;
    config.sample_periods_ms = {20};
    config.run_seconds = 2.0;
    config.osc.maintenance_heavy_prob = 1.0;
    config.osc.heavy_iterations = 2000;
    describe_case1(os, "I fig5a-heavy seconds=2 seed=7", config);
  }
  {
    apps::Case2Config config;
    config.seed = 11;
    config.run_seconds = 4.0;
    describe_case2(os, "II fig5b seconds=4 seed=11", config);
  }
  {
    apps::Case3Config config;
    config.seed = 13;
    config.run_seconds = 3.0;
    describe_case3(os, "III fig5c seconds=3 seed=13", config);
  }
  {
    apps::Case3Config config;
    config.seed = 17;
    config.run_seconds = 3.0;
    config.num_sources = 4;
    config.app.report_period = sim::cycles_from_millis(8);
    config.app.report_stagger = config.app.report_period / 9;
    config.app.encode_words = 8;
    describe_case3(os, "III fig5c-bench seconds=3 seed=17", config);
  }
  // The randomized batteries, at the seeds util::Rng(0xD15FA7C4..7) draws
  // with 1 + below(1'000'000): case I at fault intensities 0 and 0.5,
  // cases II and III under the fault plan, and clean case III.
  const struct {
    const char* faults;
    double intensity;
    std::uint64_t seeds[2];
  } case1_battery[] = {{"0", 0.0, {725131, 125597}},
                       {"0.5", 0.5, {433662, 844903}}};
  for (const auto& b : case1_battery) {
    for (std::uint64_t seed : b.seeds) {
      apps::Case1Config config;
      config.seed = seed;
      config.sample_periods_ms = {20, 60};
      config.run_seconds = 1.0;
      config.faults = battery_plan(b.intensity);
      config.event_budget = 20'000'000;
      describe_case1(os,
                     std::string("I seconds=1 faults=") + b.faults +
                         " seed=" + std::to_string(seed),
                     config);
    }
  }
  for (std::uint64_t seed : {982496, 567897, 417485, 238633}) {
    apps::Case2Config config;
    config.seed = seed;
    config.run_seconds = 4.0;
    config.faults = battery_plan();
    config.event_budget = kEventBudget;
    describe_case2(os, "II seconds=4 faults=0.5 seed=" + std::to_string(seed),
                   config);
  }
  for (std::uint64_t seed : {734943, 625434, 521751, 304805}) {
    apps::Case3Config config;
    config.seed = seed;
    config.run_seconds = 3.0;
    config.faults = battery_plan();
    config.event_budget = kEventBudget;
    describe_case3(os,
                   "III seconds=3 faults=0.5 seed=" + std::to_string(seed),
                   config);
  }
  for (std::uint64_t seed : {636683, 865235}) {
    apps::Case3Config config;
    config.seed = seed;
    config.run_seconds = 2.0;
    config.event_budget = kEventBudget;
    describe_case3(os, "III seconds=2 seed=" + std::to_string(seed), config);
  }
  // A budget far below the run's event count trips the watchdog mid-run:
  // where it stops (events since arming, and the cycle in the message) is
  // observable output too.
  {
    apps::Case3Config config;
    config.seed = 19;
    config.run_seconds = 3.0;
    config.event_budget = 2'500;
    os << "III watchdog seconds=3 seed=19";
    try {
      apps::run_case3(config);
      os << " no trip\n";
    } catch (const sim::WatchdogTimeout& e) {
      os << " budget=" << e.budget()
         << " events_executed=" << e.events_executed() << " what=" << e.what()
         << '\n';
    }
  }
  // The repaired programs: each app built without its bug, at default
  // durations, every trace the run returns.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const std::string at = " repaired seed=" + std::to_string(seed);
    {
      apps::Case1Config config;
      config.seed = seed;
      config.osc.mutation = apps::OscMutation::None;
      describe_case1(os, "I" + at, config);
    }
    {
      apps::Case2Config config;
      config.seed = seed;
      config.relay_mutation = apps::RelayMutation::None;
      describe_case2(os, "II" + at, config);
    }
    {
      apps::Case3Config config;
      config.seed = seed;
      config.app.mutation = apps::CtpMutation::None;
      describe_case3(os, "III" + at, config);
    }
    {
      apps::Case4Config config;
      config.seed = seed;
      config.app.mutation = apps::DissMutation::None;
      apps::Case4Result r = apps::run_case4(config);
      describe_run(os, "IV" + at, r.events_executed, r.traces);
    }
  }
  // Every corpus variant, mutated and as its unmutated baseline, at the
  // manifest's seed and run scale (tests/corpus_test.cpp): the analyzed
  // traces in analysis order and the anatomized line.
  for (const corpus::VariantSpec& spec : corpus::builtin_corpus()) {
    const std::uint64_t seed = spec.id == "dis-torn-write-w12" ? 1 : 5;
    for (bool baseline : {false, true}) {
      const std::string run = "corpus " + spec.id +
                              (baseline ? " baseline" : " mutated") +
                              " scale=0.5 seed=" + std::to_string(seed);
      const corpus::VariantRun vr =
          corpus::run_variant(spec, seed, 0.5, nullptr, baseline);
      const apps::Analysis& analyzed = vr.sim.analyzed;
      os << run << " line=" << static_cast<unsigned>(analyzed.line) << '\n';
      for (const trace::TaggedTrace& t : analyzed.traces)
        describe_trace(os, run + " run=" + std::to_string(t.run), *t.trace);
    }
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed)
    describe_sink_source(os, seed);
  return os.str();
}

TEST(SimDigests, MatchFixture) {
  golden::check("sim_digests.txt", sim_digests());
}

// The clean Fig. 5(c) case-III run (golden_fig5_test's seed). Before the
// lanes, ~0.73 of its events went through a heap push. The fused-step floor
// is what catches a regression in the machine's fused typed-op loop: with
// the loop disabled, try_step_inline admits the same steps one at a time,
// so heap pushes, lane steps and inline steps do not move, but fused steps
// drop to 0 (they are ~0.075 of the events here).
TEST(SimTraffic, MachineStepsRideLanesNotTheHeap) {
  struct Restore {
    bool enabled = obs::Registry::global().enabled();
    ~Restore() {
      obs::Registry::global().set_enabled(enabled);
      obs::Registry::global().reset();
    }
  } restore;
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);

  apps::Case3Config config;
  config.seed = 5;
  const std::uint64_t events = apps::run_case3(config).events_executed;
  const obs::Snapshot snap = reg.snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return 0;
  };
  const std::uint64_t pushes = counter("sim.heap_pushes");
  const std::uint64_t lanes = counter("sim.lane_steps");
  const std::uint64_t inlined = counter("sim.inline_steps");
  const std::uint64_t fused = counter("sim.fused_steps");
  EXPECT_EQ(counter("sim.events_executed"), events);
  EXPECT_GT(lanes, 0u);
  EXPECT_LE(static_cast<double>(pushes), 0.15 * static_cast<double>(events))
      << pushes << " heap pushes for " << events << " events";
  EXPECT_GE(static_cast<double>(fused), 0.05 * static_cast<double>(events))
      << fused << " fused steps for " << events << " events";
  EXPECT_LE(fused, inlined);  // fused steps are a share of the in-place ones
  // Every executed event fired from a lane, ran in place, or was popped
  // from the heap, and nothing is popped that was not pushed.
  ASSERT_LE(lanes + inlined, events);
  EXPECT_LE(events - lanes - inlined, pushes);
}

}  // namespace

// The simulator's observable output frozen as data
// (tests/golden/sim_digests.txt): for each run, the number of events the
// queue executed plus the length and FNV-1a of every node's saved trace.
// It covers the four case studies at seeds 1-8, the case-II and case-III
// fault batteries, and one 81-node case-III grid, so any change to the
// event engine, the machine or the channel that moves one event or one
// trace byte fails here first. Both dispatch substrates must reproduce the
// fixture. Regenerate after an intentional behaviour change with:
//   SENT_UPDATE_GOLDEN=1 ./sim_digest_test
//
// The queue-traffic test beside it pins where the pooled engine's events
// come from: machine steps ride their lanes, so heap pushes stay a small
// share of the events executed (DESIGN.md §12.4).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "obs/metrics.hpp"
#include "sim/dispatch.hpp"
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

/// The fault battery's plan: runtime faults at intensity 0.5, trace
/// faults off (those perturb saved text, not the simulation).
fault::FaultPlan battery_plan() {
  fault::FaultPlan plan = fault::FaultPlan::at_intensity(0.5);
  plan.trace_truncate_prob = 0.0;
  plan.trace_corrupt_prob = 0.0;
  return plan;
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

std::string sim_digests() {
  std::ostringstream os;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string at = " seed=" + std::to_string(seed);
    {
      apps::Case1Config config;
      config.seed = seed;
      apps::Case1Result r = apps::run_case1(config);
      os << "I" << at << " events=" << r.events_executed << '\n';
      for (std::size_t i = 0; i < r.runs.size(); ++i)
        describe_trace(os, "I" + at + " run=" + std::to_string(i),
                       r.runs[i].sensor_trace);
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
  return os.str();
}

TEST(SimDigests, MatchFixture) {
  const std::string path = std::string(SENT_GOLDEN_DIR) + "/sim_digests.txt";
  const std::string actual = sim_digests();
  if (std::getenv("SENT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (regenerate with SENT_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Compare line by line so a failure names the first run that moved.
  std::istringstream want(expected.str()), got(actual);
  std::string w, g;
  for (std::size_t line = 1; std::getline(want, w); ++line) {
    ASSERT_TRUE(std::getline(got, g)) << "output ends before line " << line;
    ASSERT_EQ(g, w) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got, g)) << "extra output: " << g;
  EXPECT_EQ(actual, expected.str());
}

// The clean Fig. 5(c) case-III run (golden_fig5_test's seed) on the pooled
// engine. Before the lanes, ~0.73 of its events went through a heap push.
TEST(SimTraffic, MachineStepsRideLanesNotTheHeap) {
  struct Restore {
    sim::DispatchMode mode = sim::dispatch_mode();
    bool enabled = obs::Registry::global().enabled();
    ~Restore() {
      sim::set_dispatch_mode(mode);
      obs::Registry::global().set_enabled(enabled);
      obs::Registry::global().reset();
    }
  } restore;
  sim::set_dispatch_mode(sim::DispatchMode::Bytecode);
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
  EXPECT_EQ(counter("sim.events_executed"), events);
  EXPECT_GT(lanes, 0u);
  EXPECT_LE(static_cast<double>(pushes), 0.15 * static_cast<double>(events))
      << pushes << " heap pushes for " << events << " events";
  // Every executed event fired from a lane, ran in place, or was popped
  // from the heap, and nothing is popped that was not pushed.
  ASSERT_LE(lanes + inlined, events);
  EXPECT_LE(events - lanes - inlined, pushes);
}

}  // namespace

// Cross-module invariants checked on REAL traces from all three case-study
// scenarios (not synthetic sequences): whatever the apps and the radio do,
// the recorded lifecycle must satisfy the concurrency model and the
// anatomizer must produce well-formed intervals for every event type.
#include <gtest/gtest.h>

#include <map>

#include "apps/scenarios.hpp"
#include "core/anatomizer.hpp"
#include "core/features.hpp"
#include "core/int_reti.hpp"

namespace sent {
namespace {

void check_trace_invariants(const trace::NodeTrace& t,
                            const std::string& context) {
  SCOPED_TRACE(context);

  // Lifecycle items are time-ordered.
  for (std::size_t i = 1; i < t.lifecycle.size(); ++i)
    ASSERT_LE(t.lifecycle[i - 1].cycle, t.lifecycle[i].cycle);

  // The sequence satisfies the grammar (validate throws otherwise); at
  // most one handler can be open at the very end of the recording per
  // nesting level, i.e. validate returns the open-depth.
  std::size_t open = core::validate_lifecycle(t.lifecycle);
  EXPECT_LE(open, 8u);

  // Instruction stream is time-ordered and ids are in range.
  for (std::size_t i = 1; i < t.instrs.size(); ++i)
    ASSERT_LE(t.instrs[i - 1].cycle, t.instrs[i].cycle);
  for (const auto& e : t.instrs) ASSERT_LT(e.instr, t.instr_table.size());

  core::Anatomizer anatomizer(t);
  auto all = anatomizer.all_intervals();

  // Every int item yields exactly one interval.
  std::size_t int_items = 0;
  for (const auto& item : t.lifecycle)
    int_items += item.kind == trace::LifecycleKind::Int;
  EXPECT_EQ(all.size(), int_items);

  std::map<trace::IrqLine, std::size_t> per_type;
  for (const auto& interval : all) {
    // Windows are sane.
    ASSERT_LE(interval.start_cycle, interval.end_cycle);
    ASSERT_LE(interval.end_cycle, t.run_end);
    ASSERT_LE(interval.start_index, interval.end_index);
    // seq_in_type counts up per event type.
    EXPECT_EQ(interval.seq_in_type, per_type[interval.irq]++);
    // Truncated intervals extend exactly to the end of the recording.
    if (interval.truncated) {
      EXPECT_EQ(interval.end_cycle, t.run_end);
    }
  }

  // Per-type queries agree with the combined one.
  for (trace::IrqLine line : anatomizer.event_types()) {
    auto typed = anatomizer.intervals_for(line);
    std::size_t count = 0;
    for (const auto& interval : all) count += interval.irq == line;
    EXPECT_EQ(typed.size(), count);
  }

  // Instruction counters: non-negative, and each row's total is bounded
  // by the trace's total executions.
  if (!t.instr_table.empty() && !all.empty()) {
    core::FeatureMatrix m = core::instruction_counters(t, all);
    for (std::size_t r = 0; r < m.size(); ++r) {
      double total = 0;
      for (double v : m.row(r)) {
        ASSERT_GE(v, 0.0);
        total += v;
      }
      ASSERT_LE(total, static_cast<double>(t.instrs.size()));
    }
  }
}

TEST(Integration, Case1TracesSatisfyInvariants) {
  apps::Case1Config config;
  config.seed = 5;
  config.sample_periods_ms = {20, 60};
  config.run_seconds = 5.0;
  apps::Case1Result r = apps::run_case1(config);
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    check_trace_invariants(r.runs[i].sensor_trace,
                           "case1 run " + std::to_string(i));
}

TEST(Integration, Case2TraceSatisfiesInvariants) {
  apps::Case2Config config;
  config.seed = 3;
  apps::Case2Result r = apps::run_case2(config);
  check_trace_invariants(r.relay_trace, "case2 relay");
}

TEST(Integration, Case3AllNodeTracesSatisfyInvariants) {
  apps::Case3Config config;
  config.seed = 5;
  config.run_seconds = 10.0;
  apps::Case3Result r = apps::run_case3(config);
  for (const auto& t : r.traces)
    check_trace_invariants(t, "case3 node " + std::to_string(t.node_id));
}

TEST(Integration, FixedVariantsAlsoSatisfyInvariants) {
  apps::Case2Config config;
  config.seed = 3;
  config.relay_mutation = apps::RelayMutation::None;
  config.run_seconds = 10.0;
  apps::Case2Result r = apps::run_case2(config);
  check_trace_invariants(r.relay_trace, "case2 fixed relay");
}

// Seed sweep: invariants hold across randomized schedules.
class IntegrationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrationSweep, Case3InvariantsAcrossSeeds) {
  apps::Case3Config config;
  config.seed = GetParam();
  config.run_seconds = 6.0;
  apps::Case3Result r = apps::run_case3(config);
  for (const auto& t : r.traces)
    check_trace_invariants(t, "node " + std::to_string(t.node_id));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationSweep,
                         ::testing::Values(1, 7, 13, 29, 54, 97));

}  // namespace
}  // namespace sent

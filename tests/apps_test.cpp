#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "trace/lifecycle.hpp"

namespace sent::apps {
namespace {

// Cheap trace fingerprint for determinism checks.
std::uint64_t fingerprint(const trace::NodeTrace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const auto& item : t.lifecycle) {
    mix(static_cast<std::uint64_t>(item.kind));
    mix(item.cycle);
    mix(item.arg);
  }
  for (const auto& e : t.instrs) {
    mix(e.cycle);
    mix(e.instr);
  }
  return h;
}

// ----------------------------------------------------------- case I

Case1Config small_case1(bool fixed, std::uint64_t seed = 11) {
  Case1Config c;
  c.seed = seed;
  if (fixed) c.osc.mutation = OscMutation::None;
  c.sample_periods_ms = {20, 60};
  c.run_seconds = 5.0;
  return c;
}

TEST(Case1, CollectsExpectedSampleVolume) {
  Case1Result r = run_case1(small_case1(false));
  ASSERT_EQ(r.runs.size(), 2u);
  // D=20ms over 5s: ~250 timer fires, each producing one reading.
  EXPECT_NEAR(double(r.runs[0].readings), 250.0, 15.0);
  EXPECT_NEAR(double(r.runs[1].readings), 83.0, 10.0);
  // One packet per 3 readings, most reach the sink.
  EXPECT_GT(r.runs[0].packets_sent, 70u);
  EXPECT_GE(r.runs[0].sink_received, r.runs[0].packets_sent * 8 / 10);
}

TEST(Case1, BuggyVariantPollutesOnlyAtHighRate) {
  Case1Result r = run_case1(small_case1(false));
  // D=20ms: the ~30ms heavy task delays the send task past the next ADC
  // interrupt -> pollution. D=60ms: the delay never spans a full period.
  EXPECT_GT(r.runs[0].pollutions, 0u);
  EXPECT_EQ(r.runs[1].pollutions, 0u);
  // Ground-truth markers recorded in the trace.
  EXPECT_EQ(r.runs[0].sensor_trace.bugs.size(), r.runs[0].pollutions);
  for (const auto& bug : r.runs[0].sensor_trace.bugs)
    EXPECT_EQ(bug.kind, "data-pollution");
}

TEST(Case1, FixedVariantNeverPollutes) {
  Case1Result r = run_case1(small_case1(true));
  for (const auto& run : r.runs) {
    EXPECT_EQ(run.pollutions, 0u);
    EXPECT_TRUE(run.sensor_trace.bugs.empty());
    EXPECT_GT(run.packets_sent, 0u);
  }
}

TEST(Case1, WithoutMaintenanceNoPollution) {
  Case1Config c = small_case1(false);
  c.osc.with_maintenance = false;
  Case1Result r = run_case1(c);
  EXPECT_EQ(r.total_pollutions(), 0u);
}

TEST(Case1, TraceContainsAdcLifecycle) {
  Case1Result r = run_case1(small_case1(false));
  const auto& t = r.runs[0].sensor_trace;
  int adc_ints = 0;
  for (const auto& item : t.lifecycle)
    adc_ints += item.kind == trace::LifecycleKind::Int &&
                item.arg == os::irq::kAdc;
  EXPECT_NEAR(double(adc_ints), 250.0, 15.0);
  EXPECT_FALSE(t.instr_table.empty());
  EXPECT_GT(t.instrs.size(), 1000u);
}

TEST(Case1, DeterministicForSameSeed) {
  Case1Result a = run_case1(small_case1(false, 99));
  Case1Result b = run_case1(small_case1(false, 99));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(fingerprint(a.runs[i].sensor_trace),
              fingerprint(b.runs[i].sensor_trace));
    EXPECT_EQ(a.runs[i].pollutions, b.runs[i].pollutions);
  }
}

TEST(Case1, DifferentSeedsDiverge) {
  Case1Result a = run_case1(small_case1(false, 1));
  Case1Result b = run_case1(small_case1(false, 2));
  EXPECT_NE(fingerprint(a.runs[0].sensor_trace),
            fingerprint(b.runs[0].sensor_trace));
}

// ----------------------------------------------------------- case II

Case2Config small_case2(bool fixed, std::uint64_t seed = 21) {
  Case2Config c;
  c.seed = seed;
  if (fixed) c.relay_mutation = RelayMutation::None;
  c.run_seconds = 20.0;
  return c;
}

TEST(Case2, TrafficFlowsEndToEnd) {
  Case2Result r = run_case2(small_case2(false));
  // ~200 packets at 100ms mean over 20s.
  EXPECT_GT(r.source_sent, 150u);
  EXPECT_LT(r.source_sent, 260u);
  EXPECT_GE(r.relay_received, r.source_sent * 9 / 10);
  EXPECT_EQ(r.relay_received, r.relay_forwarded + r.relay_dropped_busy);
  EXPECT_GE(r.sink_received, r.relay_forwarded * 9 / 10);
}

TEST(Case2, BuggyRelayActivelyDropsOccasionally) {
  Case2Result r = run_case2(small_case2(false));
  EXPECT_GT(r.relay_dropped_busy, 0u);
  // Transient: drops are a small fraction of traffic.
  EXPECT_LT(r.relay_dropped_busy * 10, r.relay_received);
  EXPECT_EQ(r.relay_trace.bugs.size(), r.relay_dropped_busy);
  for (const auto& bug : r.relay_trace.bugs)
    EXPECT_EQ(bug.kind, "busy-drop");
}

TEST(Case2, FixedRelayDropsNothing) {
  Case2Result r = run_case2(small_case2(true));
  EXPECT_EQ(r.relay_dropped_busy, 0u);
  EXPECT_TRUE(r.relay_trace.bugs.empty());
  // Queued-and-pumped forwarding still delivers the traffic.
  EXPECT_GE(r.relay_forwarded + 2, r.relay_received);
}

TEST(Case2, RelaySpiInstancesMatchArrivals) {
  Case2Result r = run_case2(small_case2(false));
  int spi_ints = 0;
  for (const auto& item : r.relay_trace.lifecycle)
    spi_ints += item.kind == trace::LifecycleKind::Int &&
                item.arg == os::irq::kRadioSpi;
  // Fire-and-forget relay: every SPI interrupt is a packet arrival.
  EXPECT_EQ(static_cast<std::uint64_t>(spi_ints), r.relay_received);
}

TEST(Case2, DeterministicForSameSeed) {
  Case2Result a = run_case2(small_case2(false, 5));
  Case2Result b = run_case2(small_case2(false, 5));
  EXPECT_EQ(fingerprint(a.relay_trace), fingerprint(b.relay_trace));
  EXPECT_EQ(a.relay_dropped_busy, b.relay_dropped_busy);
}

// ----------------------------------------------------------- case III

Case3Config small_case3(bool fixed, std::uint64_t seed = 31) {
  Case3Config c;
  c.seed = seed;
  if (fixed) c.app.mutation = CtpMutation::None;
  c.run_seconds = 15.0;
  return c;
}

TEST(Case3, NetworkFormsAndDelivers) {
  Case3Result r = run_case3(small_case3(true));  // fixed: no hangs
  EXPECT_EQ(r.traces.size(), 9u);
  EXPECT_EQ(r.sources.size(), 4u);
  EXPECT_GT(r.delivered_to_root, 10u);
  EXPECT_EQ(r.hung_nodes(), 0u);
}

TEST(Case3, BuggyVariantHangsANode) {
  Case3Result r = run_case3(small_case3(false));
  EXPECT_GE(r.hung_nodes(), 1u);
  // Every hang leaves a ground-truth marker on the node's trace.
  std::size_t marked = 0;
  for (const auto& t : r.traces)
    for (const auto& bug : t.bugs) marked += bug.kind == "ctp-hang";
  EXPECT_EQ(marked, r.hung_nodes());
}

TEST(Case3, HungNodesAreSources) {
  Case3Result r = run_case3(small_case3(false));
  for (const auto& s : r.stats)
    if (s.hung) {
      // Only nodes that push data through CTP can trip the send path.
      bool forwards_or_sources = s.is_source || s.send_fails > 0;
      EXPECT_TRUE(forwards_or_sources);
    }
}

TEST(Case3, ReportIntervalVolumeMatchesPaperScale) {
  Case3Result r = run_case3(small_case3(false));
  // The paper collects 95 report-timer intervals over 4 sources in 15s.
  std::size_t total_report_ints = 0;
  for (net::NodeId src : r.sources) {
    const auto& t = r.traces[src];
    for (const auto& item : t.lifecycle)
      total_report_ints += item.kind == trace::LifecycleKind::Int &&
                           item.arg == r.report_line;
  }
  EXPECT_GT(total_report_ints, 60u);
  EXPECT_LT(total_report_ints, 140u);
}

TEST(Case3, FixedVariantRecoversFromSendFails) {
  Case3Result r = run_case3(small_case3(true));
  std::uint64_t fails = 0;
  for (const auto& s : r.stats) fails += s.send_fails;
  // Contention still happens; the fix just handles it.
  EXPECT_EQ(r.hung_nodes(), 0u);
  if (fails > 0) SUCCEED();
}

TEST(Case3, DeterministicForSameSeed) {
  Case3Result a = run_case3(small_case3(false, 7));
  Case3Result b = run_case3(small_case3(false, 7));
  for (std::size_t i = 0; i < a.traces.size(); ++i)
    EXPECT_EQ(fingerprint(a.traces[i]), fingerprint(b.traces[i]));
}

}  // namespace
}  // namespace sent::apps

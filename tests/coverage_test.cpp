#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "core/coverage.hpp"
#include "lifecycle_notation.hpp"

namespace sent::core {
namespace {

trace::NodeTrace make(const std::string& compact) {
  trace::NodeTrace t;
  t.lifecycle = trace::parse_compact(compact);
  t.run_end = t.lifecycle.empty() ? 0 : t.lifecycle.back().cycle + 1;
  return t;
}

TEST(Coverage, NoOverlapsNoPairs) {
  // Two sequential instances of different types: no int falls inside
  // another's window.
  auto cov = measure_interleaving(make("int(5) reti int(2) reti"));
  EXPECT_TRUE(cov.pairs.empty());
  EXPECT_EQ(cov.event_types, (std::vector<trace::IrqLine>{2, 5}));
  EXPECT_EQ(cov.ratio(), 0.0);
}

TEST(Coverage, NestedHandlerIsAnInnerPair) {
  auto cov = measure_interleaving(make("int(5) int(2) reti reti"));
  EXPECT_EQ(cov.count(2, 5), 0u);
  EXPECT_EQ(cov.count(5, 2), 1u);
  EXPECT_NEAR(cov.ratio(), 1.0 / 4.0, 1e-12);
}

TEST(Coverage, SelfInterleavingViaTaskWindow) {
  // Instance 1 posts a task; a second int(5) fires before the task runs:
  // instance 1's window [int .. task end] contains instance 2's opener.
  auto cov =
      measure_interleaving(make("int(5) post(0) reti int(5) reti run(0)"));
  EXPECT_EQ(cov.count(5, 5), 1u);
}

TEST(Coverage, OpenerDoesNotCountItself) {
  auto cov = measure_interleaving(make("int(5) reti"));
  EXPECT_EQ(cov.count(5, 5), 0u);
}

TEST(Coverage, MergeAccumulates) {
  auto a = measure_interleaving(make("int(5) int(2) reti reti"));
  auto b = measure_interleaving(make("int(5) int(2) reti reti int(7) reti"));
  a.merge(b);
  EXPECT_EQ(a.count(5, 2), 2u);
  EXPECT_EQ(a.event_types, (std::vector<trace::IrqLine>{2, 5, 7}));
}

TEST(Coverage, RenderListsPairsAndRatio) {
  auto cov = measure_interleaving(make("int(5) int(2) reti reti"));
  std::string out = cov.render();
  EXPECT_NE(out.find("int(5)"), std::string::npos);
  EXPECT_NE(out.find("coverage ratio"), std::string::npos);
}

TEST(Coverage, PollutionImpliesSelfOverlapOnRealTraces) {
  // The structural claim behind ext_coverage: every case-I pollution run
  // must exhibit the ADC self-interleaving pair.
  for (std::uint64_t seed : {2, 5, 8, 11}) {
    apps::Case1Config config;
    config.seed = seed;
    config.sample_periods_ms = {20};
    config.run_seconds = 10.0;
    apps::Case1Result r = apps::run_case1(config);
    auto cov = measure_interleaving(r.runs[0].sensor_trace);
    if (r.runs[0].pollutions > 0) {
      EXPECT_GE(cov.count(os::irq::kAdc, os::irq::kAdc),
                r.runs[0].pollutions)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sent::core

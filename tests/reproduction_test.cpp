// Reproduction guards: the headline Figure-5 results, asserted across
// several seeds so refactors cannot silently regress the paper's claims.
// These are coarser than the unit tests — they assert the SHAPE of each
// result (who ranks where), not exact scores.
#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "ml/ocsvm.hpp"
#include "pipeline/sentomist.hpp"

namespace sent {
namespace {

// ---- Figure 5(a): case I ------------------------------------------------

class Fig5aGuard : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig5aGuard, PollutionsOnlyAtHighRateAndRankNearTop) {
  apps::Case1Config config;
  config.seed = GetParam();
  apps::Case1Result r = apps::run_case1(config);

  // The bug manifests only in the D=20ms run (runs 2-5 clean).
  for (std::size_t i = 1; i < r.runs.size(); ++i)
    EXPECT_EQ(r.runs[i].pollutions, 0u) << "run " << i + 1;

  if (r.runs[0].pollutions == 0) GTEST_SKIP() << "bug did not trigger";

  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    traces.push_back({&r.runs[i].sensor_trace, i});
  pipeline::AnalysisReport report =
      pipeline::analyze(traces, os::irq::kAdc);
  // >1000 samples; the first pollution interval sits in the top handful.
  EXPECT_GT(report.samples.size(), 1000u);
  EXPECT_LE(report.first_bug_rank(), 8u);
  // And it comes from run 1.
  for (const auto& s : report.samples) {
    if (s.has_bug) {
      EXPECT_EQ(s.run, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5aGuard, ::testing::Values(2, 5, 8, 11));

// ---- Figure 5(b): case II ------------------------------------------------

class Fig5bGuard : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig5bGuard, FewActiveDropsAllRankedFirst) {
  apps::Case2Config config;
  config.seed = GetParam();
  apps::Case2Result r = apps::run_case2(config);
  if (r.relay_dropped_busy == 0) GTEST_SKIP() << "bug did not trigger";

  // Transient: a handful of drops among ~200 arrivals.
  EXPECT_GE(r.relay_received, 150u);
  EXPECT_LE(r.relay_dropped_busy, 12u);

  pipeline::AnalysisReport report =
      pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  // The paper's exact shape: all buggy intervals occupy the top ranks.
  auto ranks = report.bug_ranks();
  ASSERT_EQ(ranks.size(), r.relay_dropped_busy);
  for (std::size_t i = 0; i < ranks.size(); ++i)
    EXPECT_EQ(ranks[i], i + 1) << "drop " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5bGuard, ::testing::Values(1, 3, 4, 7));

// ---- Figure 5(c): case III ------------------------------------------------

class Fig5cGuard : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig5cGuard, HangSymptomInTopRanksOfReportIntervals) {
  apps::Case3Config config;
  config.seed = GetParam();
  apps::Case3Result r = apps::run_case3(config);
  if (r.hung_nodes() == 0) GTEST_SKIP() << "bug did not trigger";

  const apps::Analysis analyzed = apps::analysis_of(r);
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line);

  // ~100 report intervals (the paper: 95).
  EXPECT_GT(report.samples.size(), 60u);
  EXPECT_LT(report.samples.size(), 160u);
  if (report.buggy_count() > 0) {
    // The paper found the symptom at rank 4; allow a small band.
    EXPECT_LE(report.first_bug_rank(), 6u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig5cGuard, ::testing::Values(5, 7, 31));

// ---- Fixed variants: quiet rankings ----------------------------------------

TEST(FixedVariantGuard, NoMarkersAnywhere) {
  {
    apps::Case1Config config;
    config.seed = 5;
    config.osc.mutation = apps::OscMutation::None;
    apps::Case1Result r = apps::run_case1(config);
    EXPECT_EQ(r.total_pollutions(), 0u);
  }
  {
    apps::Case2Config config;
    config.seed = 3;
    config.relay_mutation = apps::RelayMutation::None;
    apps::Case2Result r = apps::run_case2(config);
    EXPECT_EQ(r.relay_dropped_busy, 0u);
    EXPECT_TRUE(r.relay_trace.bugs.empty());
  }
  {
    apps::Case3Config config;
    config.seed = 5;
    config.app.mutation = apps::CtpMutation::None;
    apps::Case3Result r = apps::run_case3(config);
    EXPECT_EQ(r.hung_nodes(), 0u);
  }
}

// The analysis itself still runs fine on clean (fixed) traces: a ranking
// with no ground-truth hits, not a crash.
TEST(FixedVariantGuard, AnalysisOnCleanTracesIsSane) {
  apps::Case2Config config;
  config.seed = 3;
  config.relay_mutation = apps::RelayMutation::None;
  apps::Case2Result r = apps::run_case2(config);
  pipeline::AnalysisReport report =
      pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  EXPECT_GT(report.samples.size(), 100u);
  EXPECT_EQ(report.buggy_count(), 0u);
  EXPECT_EQ(report.first_bug_rank(), 0u);
  EXPECT_EQ(report.inspection_depth_for_all(), 0u);
}

// ---- OCSVM behaviour guards --------------------------------------------------

TEST(SolverGuard, ReportsNonConvergenceHonestly) {
  // A tiny iteration cap: the solver must stop and say so, not spin.
  ml::OcsvmParams params;
  params.max_iter = 1;
  ml::OneClassSvm svm(params);
  util::Rng rng(1);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i)
    rows.push_back({rng.normal(), rng.normal()});
  auto scores = svm.score(rows);
  EXPECT_EQ(scores.size(), rows.size());
  EXPECT_FALSE(svm.converged());
  EXPECT_EQ(svm.iterations_used(), 1u);
}

}  // namespace
}  // namespace sent

#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "ml/detectors.hpp"
#include "ml/error.hpp"
#include "pipeline/sentomist.hpp"

namespace sent::pipeline {
namespace {

// One shared (expensive-ish) scenario run per suite.
const apps::Case1Result& case1() {
  static const apps::Case1Result result = [] {
    apps::Case1Config config;
    config.seed = 11;
    config.sample_periods_ms = {20, 60};
    config.run_seconds = 5.0;
    return apps::run_case1(config);
  }();
  return result;
}

std::vector<TaggedTrace> case1_traces() {
  std::vector<TaggedTrace> traces;
  for (std::size_t r = 0; r < case1().runs.size(); ++r)
    traces.push_back({&case1().runs[r].sensor_trace, r});
  return traces;
}

TEST(Pipeline, SampleCountMatchesAdcInterrupts) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  std::size_t expected = 0;
  for (const auto& run : case1().runs) expected += run.readings;
  EXPECT_EQ(report.samples.size(), expected);
  EXPECT_EQ(report.scores.size(), expected);
  EXPECT_EQ(report.ranking.size(), expected);
}

TEST(Pipeline, DefaultDetectorIsOneClassSvm) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  EXPECT_NE(report.detector_name.find("ocsvm"), std::string::npos);
  EXPECT_GT(report.feature_dim, 10u);  // instruction-counter columns
}

TEST(Pipeline, GroundTruthMarkersMatchedToIntervals) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  EXPECT_GT(report.buggy_count(), 0u);
  // Pollutions occur only in the D=20ms run (run index 0).
  for (const auto& s : report.samples) {
    if (s.has_bug) {
      EXPECT_EQ(s.run, 0u);
    }
  }
}

TEST(Pipeline, BuggyIntervalsRankHigh) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  ASSERT_GT(report.buggy_count(), 0u);
  // The headline claim: suspicious intervals surface at the very top.
  EXPECT_LE(report.first_bug_rank(), 5u);
  EXPECT_GT(report.precision_at(report.first_bug_rank()), 0.0);
}

TEST(Pipeline, ScoresAreNormalized) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  double max_score = -1e9;
  for (double s : report.scores) max_score = std::max(max_score, s);
  EXPECT_NEAR(max_score, 1.0, 1e-9);
  // Ranking ascending.
  for (std::size_t i = 1; i < report.ranking.size(); ++i)
    EXPECT_LE(report.ranking[i - 1].score, report.ranking[i].score);
}

TEST(Pipeline, LabelsFollowPaperConventions) {
  Sample s;
  s.node_id = 8;
  s.run = 0;
  s.interval.seq_in_type = 19;
  EXPECT_EQ(s.label(true, false), "[1, 20]");
  EXPECT_EQ(s.label(false, true), "[8, 20]");
  EXPECT_EQ(s.label(false, false), "20");
  EXPECT_EQ(s.label(true, true), "[1, 8, 20]");
}

TEST(Pipeline, FormatRankingTableShowsHeadAndTail) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  std::string table = format_ranking_table(report, true, false, 5, 2);
  EXPECT_NE(table.find("Instance Index"), std::string::npos);
  EXPECT_NE(table.find("..."), std::string::npos);
  EXPECT_NE(table.find("["), std::string::npos);
}

TEST(Pipeline, AlternativeDetectorPluggable) {
  AnalysisOptions options;
  options.detector = std::make_shared<ml::KnnDetector>();
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc, options);
  EXPECT_EQ(report.detector_name, "knn");
}

TEST(Pipeline, CoarseFeaturesSelectable) {
  AnalysisOptions options;
  options.features = FeatureKind::Coarse;
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc, options);
  EXPECT_EQ(report.feature_dim, 5u);
}

TEST(Pipeline, UnknownLineThrows) {
  EXPECT_THROW(analyze(case1_traces(), 63), util::PreconditionError);
  EXPECT_THROW(analyze({}, os::irq::kAdc), util::PreconditionError);
}

TEST(Pipeline, MultiNodePoolingCase3) {
  apps::Case3Config config;
  config.seed = 31;
  config.run_seconds = 10.0;
  apps::Case3Result r = apps::run_case3(config);
  std::vector<TaggedTrace> traces;
  for (net::NodeId src : r.sources)
    traces.push_back({&r.traces[src], 0});
  AnalysisReport report = analyze(traces, r.report_line);
  EXPECT_GT(report.samples.size(), 20u);
  // Samples carry their node ids for [n, s] labels.
  std::set<std::uint32_t> nodes;
  for (const auto& s : report.samples) nodes.insert(s.node_id);
  EXPECT_EQ(nodes.size(), r.sources.size());
}

TEST(Pipeline, MetricsHelpers) {
  AnalysisReport report;
  report.samples.resize(4);
  report.samples[2].has_bug = true;
  report.scores = {0.5, 0.1, -0.3, 0.9};
  for (std::size_t i : {2, 1, 0, 3})
    report.ranking.push_back({i, report.scores[i]});
  EXPECT_EQ(report.bug_ranks(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.first_bug_rank(), 1u);
  EXPECT_EQ(report.inspection_depth_for_all(), 1u);
  EXPECT_DOUBLE_EQ(report.precision_at(1), 1.0);
  EXPECT_DOUBLE_EQ(report.precision_at(4), 0.25);
  EXPECT_THROW(report.precision_at(0), util::PreconditionError);
}

// A detector that throws ml::TrainingError must not kill the analysis:
// the pipeline falls back to the k-NN distance detector and marks the
// report degraded (DESIGN.md §9).
TEST(PipelineDegradation, FallsBackToKnnOnTrainingError) {
  class BrokenDetector final : public core::OutlierDetector {
   public:
    std::string name() const override { return "broken"; }
    std::vector<double> score(const ml::Matrix&) override {
      throw ml::TrainingError("synthetic failure for testing");
    }
    using core::OutlierDetector::score;
  };
  AnalysisOptions options;
  options.detector = std::make_shared<BrokenDetector>();
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc, options);
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.degradation.find("synthetic failure"),
            std::string::npos);
  EXPECT_EQ(report.detector_name, "knn (fallback)");
  EXPECT_EQ(report.scores.size(), report.samples.size());
  EXPECT_EQ(report.ranking.size(), report.samples.size());
}

TEST(PipelineDegradation, HealthyRunIsNotDegraded) {
  AnalysisReport report = analyze(case1_traces(), os::irq::kAdc);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.degradation.empty());
}

}  // namespace
}  // namespace sent::pipeline

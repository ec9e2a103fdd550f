// Golden-snapshot tests for the three Figure 5 case studies.
//
// Each driver-default configuration is rerun end to end and compared
// STRUCTURALLY against a checked-in fixture: sample counts, ground-truth
// buggy-interval counts, the ranks at which the buggy intervals surface,
// and the labels of the buggy instances that make the top of the ranking
// table. Score floats are deliberately
// not part of the fixture — they may move with detector tuning, while these
// structural facts are the paper's actual claims and must not drift
// silently.
//
// Regenerate after an intentional behaviour change with:
//   SENT_UPDATE_GOLDEN=1 ./golden_fig5_test
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "golden.hpp"
#include "pipeline/sentomist.hpp"

namespace {

using namespace sent;

constexpr std::size_t kTopLabels = 5;

// The fixture text of one analysis: sample and buggy-interval counts, the
// ranks of the buggy intervals, and the labels of the buggy instances at
// the top of the ranking.
std::string record_of(const pipeline::AnalysisReport& report) {
  std::ostringstream os;
  os << "samples=" << report.samples.size() << "\n";
  os << "buggy=" << report.buggy_count() << "\n";
  os << "bug_ranks=";
  const std::vector<std::size_t> bug_ranks = report.bug_ranks();
  for (std::size_t i = 0; i < bug_ranks.size(); ++i)
    os << (i ? "," : "") << bug_ranks[i];
  os << "\n";
  // Only ground-truth buggy entries are recorded from the top of the table:
  // clean samples near the detection threshold sit at nearly tied scores,
  // and their relative order legitimately differs between optimization
  // levels (sanitizer builds rerun this suite). The buggy entries' positions
  // are anchored by bug_ranks, so their labels are build-stable.
  for (std::size_t pos = 0;
       pos < std::min(kTopLabels, report.ranking.size()); ++pos) {
    const pipeline::Sample& s =
        report.samples[report.ranking[pos].sample_index];
    if (!s.has_bug) continue;
    os << "top=" << s.label(/*with_run=*/true, /*with_node=*/true) << "\n";
  }
  return os.str();
}

TEST(GoldenFig5Test, CaseIDataPollution) {
  apps::Case1Config config;  // driver defaults: seed 5, five periods, 10 s
  config.seed = 5;
  apps::Case1Result result = apps::run_case1(config);
  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t r = 0; r < result.runs.size(); ++r)
    traces.push_back({&result.runs[r].sensor_trace, r});
  golden::check("fig5a.txt",
                record_of(pipeline::analyze(traces, os::irq::kAdc)));
}

// The same configuration with the feature matrix kept: intervals whose
// Definition-4 rows are bitwise identical must get bitwise-identical
// scores, so every duplicate group ties exactly and keeps its index order
// in the ranking (DESIGN.md §10).
TEST(GoldenFig5Test, CaseIIdenticalFeatureRowsTie) {
  apps::Case1Config config;
  config.seed = 5;
  apps::Case1Result result = apps::run_case1(config);
  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t r = 0; r < result.runs.size(); ++r)
    traces.push_back({&result.runs[r].sensor_trace, r});
  pipeline::AnalysisOptions options;
  options.keep_features = true;
  pipeline::AnalysisReport report =
      pipeline::analyze(traces, os::irq::kAdc, options);
  ASSERT_FALSE(report.degraded);
  const ml::Matrix& x = report.features.values;
  ASSERT_EQ(x.rows(), report.scores.size());

  std::map<std::vector<double>, std::size_t> first_of_row;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto [it, fresh] = first_of_row.emplace(x.row_vector(i), i);
    if (fresh) continue;
    ++duplicates;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.scores[i]),
              std::bit_cast<std::uint64_t>(report.scores[it->second]))
        << "interval " << i << " scored apart from identical interval "
        << it->second;
  }
  // The property is only meaningful if Fig. 5(a) repeats rows heavily.
  EXPECT_GT(duplicates, x.rows() / 2);
}

TEST(GoldenFig5Test, CaseIIPacketLoss) {
  apps::Case2Config config;  // driver defaults: seed 3, 20 s
  config.seed = 3;
  apps::Case2Result result = apps::run_case2(config);
  golden::check("fig5b.txt",
                record_of(pipeline::analyze({{&result.relay_trace, 0}},
                                            os::irq::kRadioSpi)));
}

TEST(GoldenFig5Test, CaseIIICtpHeartbeat) {
  apps::Case3Config config;  // driver defaults: seed 5, 15 s, 3x3 grid
  config.seed = 5;
  apps::Case3Result result = apps::run_case3(config);
  std::vector<pipeline::TaggedTrace> traces;
  for (net::NodeId src : result.sources)
    traces.push_back({&result.traces[src], 0});
  golden::check("fig5c.txt",
                record_of(pipeline::analyze(traces, result.report_line)));
}

}  // namespace

#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "pipeline/inspect.hpp"
#include "util/assert.hpp"

namespace sent {
namespace {

// ---------------------------------------------------------------- inspect

TEST(Inspect, RendersTimelineAndDeviations) {
  apps::Case2Config config;
  config.seed = 3;
  auto r = apps::run_case2(config);
  pipeline::AnalysisOptions options;
  options.keep_features = true;
  pipeline::AnalysisReport report =
      pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi, options);
  std::string out =
      pipeline::render_interval_detail(r.relay_trace, report, 0);
  EXPECT_NE(out.find("rank 1:"), std::string::npos);
  EXPECT_NE(out.find("lifecycle timeline"), std::string::npos);
  EXPECT_NE(out.find("int(2)"), std::string::npos);
  EXPECT_NE(out.find("most deviant instruction counts"),
            std::string::npos);
  // The top interval is a ground-truth busy-drop; rendering says so.
  EXPECT_NE(out.find("busy-drop"), std::string::npos);
  // The drop-path instruction is among the deviants.
  EXPECT_NE(out.find("Receive.receive/drop_busy"), std::string::npos);
}

TEST(Inspect, SkipsDeviationsWithoutFeatures) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  auto r = apps::run_case2(config);
  pipeline::AnalysisReport report =
      pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  std::string out =
      pipeline::render_interval_detail(r.relay_trace, report, 0);
  EXPECT_EQ(out.find("most deviant"), std::string::npos);
  EXPECT_NE(out.find("lifecycle timeline"), std::string::npos);
}

TEST(Inspect, RankOutOfRangeThrows) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  auto r = apps::run_case2(config);
  pipeline::AnalysisReport report =
      pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  EXPECT_THROW(pipeline::render_interval_detail(r.relay_trace, report,
                                                report.ranking.size()),
               util::PreconditionError);
}

}  // namespace
}  // namespace sent

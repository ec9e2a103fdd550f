// Unit tests for the benchmark's own statistics and build guard.
#include <gtest/gtest.h>

#include <vector>

#include "guard.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace sentbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the tests also cover unsorted input
}

TEST(Percentile, NearestRankWithCounts) {
  const Percentile p50 = percentile(one_to(100), 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p90 = percentile(one_to(100), 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(percentile(one_to(7), 100.0).value, 7.0);
  EXPECT_EQ(percentile(one_to(7), 1.0).value, 1.0);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  const Percentile enough = percentile(one_to(1000), 99.0);
  EXPECT_EQ(enough.value, 990.0);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.reportable());
  const Percentile short_by_one = percentile(one_to(999), 99.0);
  EXPECT_EQ(short_by_one.beyond, 9u);
  EXPECT_FALSE(short_by_one.reportable());
  EXPECT_FALSE(percentile(one_to(99), 90.0).reportable());
  EXPECT_TRUE(percentile(one_to(100), 90.0).reportable());
}

TEST(Percentile, EmptySetIsNotReportable) {
  const Percentile p = percentile({}, 50.0);
  EXPECT_EQ(p.n, 0u);
  EXPECT_FALSE(p.reportable());
}

TEST(Percentile, RejectsOutOfRangeP) {
  EXPECT_THROW(percentile(one_to(10), 0.0), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(10), 100.5), std::invalid_argument);
}

TEST(Percentile, HighestReportable) {
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  EXPECT_EQ(highest_reportable_percentile(2000), 99.5);
  EXPECT_EQ(highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(10), 0.0);
}

TEST(Percentile, SamplesNeeded) {
  EXPECT_EQ(samples_needed(99.0), 1000u);
  EXPECT_EQ(samples_needed(90.0), 100u);
  EXPECT_EQ(samples_needed(50.0), 20u);
  for (double p : {50.0, 90.0, 99.0}) {
    const std::size_t n = samples_needed(p);
    EXPECT_TRUE(percentile(one_to(n), p).reportable()) << p;
    EXPECT_FALSE(percentile(one_to(n - 1), p).reportable()) << p;
  }
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const Quartiles five = quartiles(one_to(5));
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  const Quartiles one = quartiles({3.0});
  EXPECT_EQ(one.q1, 3.0);
  EXPECT_EQ(one.q3, 3.0);
}

TEST(WorkerBusyShare, CallTimeOverWorkerCapacity) {
  EXPECT_DOUBLE_EQ(worker_busy_share(1.5, 1.0, 2), 0.75);
  EXPECT_DOUBLE_EQ(worker_busy_share(2.0, 1.0, 2), 1.0);
  EXPECT_EQ(worker_busy_share(1.0, 0.0, 2), 0.0);
  EXPECT_EQ(worker_busy_share(1.0, 1.0, 0), 0.0);
}

TEST(SelfTimes, CampaignRowsAddUpToWallTimesWorkers) {
  // A 100 ns campaign on two workers: 200 ns of worker capacity.
  SpanLog log(3);
  const SpanRef campaign =
      log.open(0, "pipeline.run_campaign", 1, {}, 2, /*at=*/0);
  const SpanRef run1 = log.open(1, "run", 7, campaign, 1, 0);
  log.close(log.open(1, "apps.run_case2", 7, {}, 1, 0), 40);
  log.close(log.open(1, "trace.save", 7, {}, 1, 40), 70);
  log.close(run1, 90);
  const SpanRef run2 = log.open(2, "run", 8, campaign, 1, 5);
  log.close(log.open(2, "ml.score", 8, {}, 1, 10), 60);
  log.close(run2, 95);
  log.close(campaign, 100);

  const SelfTimes st = self_times(log);
  EXPECT_EQ(st.roots, 1u);
  EXPECT_DOUBLE_EQ(st.total_ns, 200.0);
  EXPECT_DOUBLE_EQ(st.layer_ns.at("apps"), 40.0);
  EXPECT_DOUBLE_EQ(st.layer_ns.at("trace"), 30.0);
  EXPECT_DOUBLE_EQ(st.layer_ns.at("ml"), 50.0);
  // Residual: run time no layer call covers (20 + 40).
  EXPECT_DOUBLE_EQ(st.layer_ns.at("run"), 60.0);
  // Pipeline: capacity the runs left idle (200 - 90 - 90).
  EXPECT_DOUBLE_EQ(st.layer_ns.at("pipeline"), 20.0);
  EXPECT_DOUBLE_EQ(st.span_ns.at("trace.save"), 30.0);
  double sum = 0.0;
  for (const auto& [layer, ns] : st.layer_ns) sum += ns;
  EXPECT_DOUBLE_EQ(sum, st.total_ns);
}

TEST(SelfTimes, NestedSpansOnOneLane) {
  SpanLog log(1);
  for (std::int64_t base : {0, 100}) {
    const SpanRef run = log.open(0, "run", 3, {}, 1, base);
    log.close(log.open(0, "stream.offer", 3, {}, 1, base), base + 10);
    log.close(log.open(0, "stream.tick", 3, {}, 1, base + 10), base + 40);
    log.close(run, base + 50);
  }
  const SelfTimes st = self_times(log);
  EXPECT_EQ(st.roots, 2u);
  EXPECT_DOUBLE_EQ(st.total_ns, 100.0);
  EXPECT_DOUBLE_EQ(st.layer_ns.at("stream"), 80.0);
  EXPECT_DOUBLE_EQ(st.layer_ns.at("run"), 20.0);
  EXPECT_EQ(log.lane(0)[1].parent, (SpanRef{0, 0}));
}

TEST(Tally, EveryAttemptIsInTheDenominator) {
  Tally t;
  EXPECT_EQ(t.share(), 0.0);
  t.add(4, 1);  // 3 completed, 1 failed
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.share(), 0.25);
  t.add(16, 3);
  EXPECT_EQ(t.attempted, 20u);
  EXPECT_DOUBLE_EQ(t.share(), 0.2);
  t.add(5, 0);  // clean operations still count as attempts
  EXPECT_DOUBLE_EQ(t.share(), 0.16);
}

TEST(Guard, RefusesDebugSanitizedAndOversubscribedRuns) {
  BuildInfo release;
  release.ndebug = true;
  EXPECT_TRUE(guard_violations(release, 4, 2).empty());
  EXPECT_TRUE(guard_violations(release, 2, 2).empty());
  EXPECT_EQ(guard_violations(release, 1, 2).size(), 1u);

  BuildInfo debug = release;
  debug.ndebug = false;
  EXPECT_EQ(guard_violations(debug, 4, 2).size(), 1u);

  BuildInfo sanitized = release;
  sanitized.sanitized = true;
  EXPECT_EQ(guard_violations(sanitized, 4, 2).size(), 1u);
}

}  // namespace
}  // namespace sentbench

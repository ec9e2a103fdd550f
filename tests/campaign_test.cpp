#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/scenarios.hpp"
#include "pipeline/campaign.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace sent::pipeline {
namespace {

// A synthetic runner: seeds divisible by 3 "trigger" a bug ranked at
// position (seed % 7) + 1.
AnalysisReport fake_report(std::uint64_t seed) {
  AnalysisReport report;
  const std::size_t n = 10;
  report.samples.resize(n);
  report.scores.resize(n, 0.5);
  for (std::size_t i = 0; i < n; ++i)
    report.ranking.push_back({i, 0.5});
  if (seed % 3 == 0) {
    std::size_t rank = (seed % 7) + 1;
    report.samples[report.ranking[rank - 1].sample_index].has_bug = true;
  }
  return report;
}

// A serial campaign over seeds first_seed .. first_seed + runs - 1.
CampaignStats run_serial(const ScenarioRunner& runner,
                         std::uint64_t first_seed, std::size_t runs,
                         std::size_t k) {
  CampaignOptions options;
  options.first_seed = first_seed;
  options.runs = runs;
  options.k = k;
  options.threads = 1;
  return run_campaign(runner, options);
}

TEST(Campaign, CountsTriggersAndDetections) {
  CampaignStats stats = run_serial(fake_report, /*first_seed=*/0,
                                     /*runs=*/9, /*k=*/3);
  // Seeds 0..8: triggered at 0, 3, 6 -> ranks 1, 4, 7.
  EXPECT_EQ(stats.runs, 9u);
  EXPECT_EQ(stats.triggered, 3u);
  EXPECT_EQ(stats.detected_top_k, 1u);  // only rank 1 <= 3
  EXPECT_EQ(stats.first_ranks, (std::vector<std::size_t>{1, 4, 7}));
  EXPECT_NEAR(stats.trigger_rate(), 3.0 / 9.0, 1e-12);
  EXPECT_NEAR(stats.detection_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.mean_first_rank(), 4.0, 1e-12);
}

TEST(Campaign, NoTriggersMeansNoDetection) {
  CampaignStats stats = run_serial(
      [](std::uint64_t) { return fake_report(1); }, 0, 5, 3);
  EXPECT_EQ(stats.triggered, 0u);
  // Nothing triggered means the detector was never exercised; reporting a
  // perfect rate here would be misleading, so the convention is 0.
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_first_rank(), 0.0);
}

TEST(Campaign, Validation) {
  EXPECT_THROW(run_serial(nullptr, 0, 5, 3), util::PreconditionError);
  EXPECT_THROW(run_serial(fake_report, 0, 0, 3),
               util::PreconditionError);
  EXPECT_THROW(run_serial(fake_report, 0, 5, 0),
               util::PreconditionError);
  CampaignOptions options;
  options.runs = 0;
  EXPECT_THROW(run_campaign(fake_report, options),
               util::PreconditionError);
}

// The determinism guarantee: fanning seeds across a pool must yield
// byte-identical CampaignStats — including first_ranks order — because
// outcomes are aggregated in seed order regardless of completion order.
TEST(Campaign, ParallelIsBitIdenticalToSerial) {
  CampaignOptions serial_options;
  serial_options.first_seed = 0;
  serial_options.runs = 64;
  serial_options.k = 3;
  serial_options.threads = 1;
  CampaignStats serial = run_campaign(fake_report, serial_options);

  for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    CampaignOptions options = serial_options;
    options.threads = threads;
    CampaignStats parallel = run_campaign(fake_report, options);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
    EXPECT_EQ(parallel.first_ranks, serial.first_ranks);
  }
}

// Same guarantee on a real scenario: whole simulated runs execute
// concurrently (each owns its EventQueue, Nodes and Rng).
TEST(Campaign, ParallelRealScenarioMatchesSerial) {
  auto runner = [](std::uint64_t seed) {
    apps::Case2Config config;
    config.seed = seed;
    config.run_seconds = 5.0;
    apps::Case2Result r = apps::run_case2(config);
    return analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  };
  CampaignOptions options;
  options.first_seed = 1;
  options.runs = 4;
  options.k = 5;
  options.threads = 1;
  CampaignStats serial = run_campaign(runner, options);
  options.threads = 4;
  CampaignStats parallel = run_campaign(runner, options);
  EXPECT_EQ(parallel, serial);
}

TEST(Campaign, SummaryMentionsRates) {
  CampaignStats stats = run_serial(fake_report, 0, 9, 3);
  std::string text = summarize(stats);
  EXPECT_NE(text.find("9 runs"), std::string::npos);
  EXPECT_NE(text.find("triggered in 3"), std::string::npos);
  EXPECT_NE(text.find("top-3"), std::string::npos);
}

// ---- fault tolerance (DESIGN.md §9) ---------------------------------------

// One throwing seed among N must be isolated: recorded as Failed with its
// message, with every sibling seed still aggregated normally.
TEST(CampaignFaults, ThrowingSeedIsIsolated) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed == 4) throw std::runtime_error("seed 4 exploded");
    return fake_report(seed);
  };
  CampaignStats stats = run_serial(runner, /*first_seed=*/0, /*runs=*/9,
                                     /*k=*/3);
  EXPECT_EQ(stats.runs, 9u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.completed(), 8u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].seed, 4u);
  EXPECT_EQ(stats.failures[0].status, RunStatus::Failed);
  EXPECT_NE(stats.failures[0].message.find("seed 4 exploded"),
            std::string::npos);
  // Seed 4 does not trigger in fake_report, so the healthy aggregate is
  // unchanged from the all-clean campaign.
  EXPECT_EQ(stats.triggered, 3u);
  EXPECT_EQ(stats.first_ranks, (std::vector<std::size_t>{1, 4, 7}));
}

// A runner that raises sim::WatchdogTimeout is classified TimedOut, not
// Failed.
TEST(CampaignFaults, WatchdogClassifiedAsTimedOut) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed % 2 == 0) throw sim::WatchdogTimeout("budget exhausted");
    return fake_report(seed);
  };
  CampaignStats stats = run_serial(runner, 0, 6, 3);
  EXPECT_EQ(stats.timed_out, 3u);
  EXPECT_EQ(stats.failed, 0u);
  for (const RunFailure& f : stats.failures)
    EXPECT_EQ(f.status, RunStatus::TimedOut);
}

// Parallel campaigns must stay bit-identical to serial even when some
// seeds fail — failures are aggregated in seed order like everything else.
TEST(CampaignFaults, ParallelMatchesSerialUnderFailures) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed % 5 == 0) throw std::runtime_error("bad seed");
    if (seed % 7 == 0) throw sim::WatchdogTimeout("slow seed");
    return fake_report(seed);
  };
  CampaignOptions options;
  options.first_seed = 1;
  options.runs = 40;
  options.k = 3;
  options.threads = 1;
  CampaignStats serial = run_campaign(runner, options);
  EXPECT_GT(serial.failed, 0u);
  EXPECT_GT(serial.timed_out, 0u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    EXPECT_EQ(run_campaign(runner, options), serial)
        << "threads=" << threads;
  }
}

// The retry policy re-runs a failed seed with an offset seed; a retry
// that succeeds replaces the failure, one that exhausts every attempt is
// recorded and quarantined.
TEST(CampaignFaults, RetryOnceWithOffsetSeed) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed < 100) throw std::runtime_error("primary seed always fails");
    return fake_report(seed);
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 6;
  options.k = 3;
  options.max_retries = 1;
  options.retry_seed_offset = 1000;  // retries run seeds 1000..1005
  CampaignStats stats = run_campaign(runner, options);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retried, 6u);
  EXPECT_EQ(stats.quarantined, 0u);
  // Retried seeds 1000..1005: 1002 triggers (rank 2), 1005 triggers
  // (rank 5) per fake_report's seed % 3 / % 7 rules.
  EXPECT_EQ(stats.triggered, 2u);

  options.max_retries = 0;
  CampaignStats no_retry = run_campaign(runner, options);
  EXPECT_EQ(no_retry.failed, 6u);
  EXPECT_EQ(no_retry.retried, 0u);
  EXPECT_EQ(no_retry.quarantined, 0u);  // no active retry policy
}

// Bounded retries: every attempt is counted, and a seed that fails all of
// them is quarantined (listed in seed order) with its final error.
TEST(CampaignFaults, ExhaustedRetriesQuarantineTheSeed) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    throw std::runtime_error("always fails (seed " + std::to_string(seed) +
                             ")");
  };
  CampaignOptions options;
  options.first_seed = 10;
  options.runs = 3;
  options.k = 3;
  options.max_retries = 2;
  options.retry_seed_offset = 1000;
  CampaignStats stats = run_campaign(runner, options);
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.retried, 6u);  // 2 retry attempts per seed
  EXPECT_EQ(stats.quarantined, 3u);
  EXPECT_EQ(stats.quarantined_seeds,
            (std::vector<std::uint64_t>{10, 11, 12}));
  ASSERT_EQ(stats.failures.size(), 3u);
  // The recorded failure is the FINAL attempt's: seed 10's second retry
  // ran offset seed 2010.
  EXPECT_NE(stats.failures[0].message.find("2010"), std::string::npos);
}

// Satellite regression: a retry seed that lands inside the campaign's own
// window [first_seed, first_seed + runs) must hop past it instead of
// silently re-running a sibling's randomness. With offset 1 every retry
// would land on a sibling; the hop pushes it just past the window.
TEST(CampaignFaults, RetrySeedCollisionHopsPastCampaignWindow) {
  std::vector<std::uint64_t> seen;
  auto runner = [&seen](std::uint64_t seed) -> AnalysisReport {
    seen.push_back(seed);
    // Every primary seed fails; anything outside the window succeeds, so
    // the old colliding behavior (re-running a sibling) would fail again.
    if (seed < 6) throw std::runtime_error("window seed fails");
    return fake_report(1);  // non-triggering
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 6;
  options.k = 3;
  options.threads = 1;  // keep `seen` race-free
  options.max_retries = 1;
  options.retry_seed_offset = 1;
  CampaignStats stats = run_campaign(runner, options);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retried, 6u);
  // Exactly the 6 primary seeds inside the window, and every retry seed
  // outside it: seed s retries at s+1, hopped by runs=6 when colliding.
  std::vector<std::uint64_t> retries;
  for (std::uint64_t seed : seen)
    if (seed >= 6) retries.push_back(seed);
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(retries, (std::vector<std::uint64_t>{7, 8, 9, 10, 11, 6}));
}

// The deterministic retry schedule keeps parallel campaigns bit-identical
// to serial even when retries and quarantine are exercised.
TEST(CampaignFaults, ParallelMatchesSerialUnderRetries) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed % 3 == 0) throw std::runtime_error("flaky");
    return fake_report(seed);
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 30;
  options.k = 3;
  options.max_retries = 2;
  // Offset 3 keeps every retry seed congruent to the failing class, so
  // the %3==0 seeds exhaust both retries and are quarantined.
  options.retry_seed_offset = 3;
  options.threads = 1;
  CampaignStats serial = run_campaign(runner, options);
  EXPECT_GT(serial.retried, 0u);
  EXPECT_EQ(serial.quarantined, 10u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    EXPECT_EQ(run_campaign(runner, options), serial)
        << "threads=" << threads;
  }
}

// Livelock end to end: a real scenario with a tiny event budget throws
// sim::WatchdogTimeout out of run_caseN, and the campaign absorbs it.
TEST(CampaignFaults, EventBudgetTimesOutRealScenario) {
  auto runner = [](std::uint64_t seed) {
    apps::Case2Config config;
    config.seed = seed;
    config.run_seconds = 5.0;
    config.event_budget = 1000;  // far below a real 5s run
    apps::Case2Result r = apps::run_case2(config);
    return analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
  };
  CampaignStats stats = run_serial(runner, 1, 2, 5);
  EXPECT_EQ(stats.timed_out, 2u);
  EXPECT_EQ(stats.completed(), 0u);
  // The failure record carries the budget and the events executed at the
  // point the watchdog fired, so triage doesn't need to re-run the seed.
  ASSERT_EQ(stats.failures.size(), 2u);
  for (const RunFailure& f : stats.failures) {
    EXPECT_NE(f.message.find("[event budget 1000, events executed"),
              std::string::npos)
        << f.message;
  }
}

// The summary line surfaces the new counters.
TEST(CampaignFaults, SummaryMentionsFailures) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed == 0) throw std::runtime_error("boom");
    if (seed == 1) throw sim::WatchdogTimeout("slow");
    return fake_report(seed);
  };
  std::string text = summarize(run_serial(runner, 0, 4, 3));
  EXPECT_NE(text.find("failed 1"), std::string::npos);
  EXPECT_NE(text.find("timed out 1"), std::string::npos);
}

// ---- durable journal integration (DESIGN.md §13) --------------------------

// Journaling must not perturb stats: concurrent workers all append through
// the shared JournalWriter (this test is in the TSan pass), and a resume
// over the complete journal reconstructs bit-identical stats without
// invoking the runner once.
TEST(CampaignJournal, JournaledParallelMatchesSerialAndResumes) {
  auto runner = [](std::uint64_t seed) -> AnalysisReport {
    if (seed % 5 == 0)
      throw std::runtime_error("boom\twith tab and\nnewline " +
                               std::to_string(seed));
    return fake_report(seed);
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 24;
  options.k = 3;
  options.threads = 1;
  CampaignStats golden = run_campaign(runner, options);

  const std::string path = ::testing::TempDir() + "sentomist_campaign.journal";
  std::remove(path.c_str());
  options.journal_path = path;
  options.threads = 4;
  EXPECT_EQ(run_campaign(runner, options), golden);

  // Resume over the complete journal: every seed is replayed from disk.
  options.resume = true;
  options.threads = 2;
  auto never_called = [](std::uint64_t seed) -> AnalysisReport {
    ADD_FAILURE() << "runner invoked for journaled seed " << seed;
    return fake_report(seed);
  };
  CampaignStats resumed = run_campaign(never_called, options);
  EXPECT_EQ(resumed, golden);
  EXPECT_EQ(resumed.resumed_from_journal, 24u);
  std::remove(path.c_str());
}

// Real scenario: case II triggers often and detects at rank 1.
TEST(Campaign, RealCase2Campaign) {
  CampaignStats stats = run_serial(
      [](std::uint64_t seed) {
        apps::Case2Config config;
        config.seed = seed;
        config.run_seconds = 10.0;
        apps::Case2Result r = apps::run_case2(config);
        return analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
      },
      1, 6, 5);
  EXPECT_EQ(stats.runs, 6u);
  EXPECT_GE(stats.triggered, 3u);  // transient but frequent at 10s
  // Nearly every triggered run detects in the top-5; short runs can
  // occasionally push the first symptom slightly below.
  EXPECT_GE(stats.detected_top_k + 1, stats.triggered);
  EXPECT_GT(stats.detection_rate(), 0.6);
}

}  // namespace
}  // namespace sent::pipeline

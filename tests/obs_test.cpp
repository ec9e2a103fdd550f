// Locks down the observability layer's contracts (DESIGN.md §11): shard
// merging is thread-count invariant, histogram percentiles track a naive
// sorted reference within their documented factor-2 bound, disabled
// registries are inert, the JSON export has the promised shape, the one
// phase scope feeds exactly the sinks that are on, and a real campaign
// records byte-identical metrics under --jobs 1 and --jobs 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace sent;

// Fresh registry per test: the global one is shared with every instrumented
// module linked into this binary, so contract tests use their own.
class ObsTest : public ::testing::Test {
 protected:
  obs::Registry registry_;
};

// Spans recorded so far in the global trace log: one "X" event each in its
// Chrome JSON. The log is process-wide and only grows, so tests compare
// counts before and after.
std::size_t span_count() {
  const std::string json = obs::TraceLog::global().to_chrome_json();
  const std::string event = "\"ph\": \"X\"";
  std::size_t n = 0;
  for (auto at = json.find(event); at != std::string::npos;
       at = json.find(event, at + 1))
    ++n;
  return n;
}

TEST_F(ObsTest, CountersSumAcrossValues) {
  registry_.set_enabled(true);
  obs::Counter c = registry_.counter("c");
  c.inc();
  c.inc(41);
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c");
  EXPECT_EQ(snap.counters[0].second, 42u);
}

TEST_F(ObsTest, SameNameYieldsSameMetric) {
  registry_.set_enabled(true);
  registry_.counter("c").inc(2);
  registry_.counter("c").inc(3);
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  obs::Counter c = registry_.counter("c");
  obs::Gauge g = registry_.gauge("g");
  obs::Histogram h = registry_.histogram("h");
  c.inc(7);
  g.record(7);
  h.record(7);
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);  // registered, but never recorded
  EXPECT_EQ(snap.counters[0].second, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
}

TEST_F(ObsTest, DefaultConstructedHandlesAreInert) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.record(1);
  h.record(1);  // must not crash
}

TEST_F(ObsTest, GaugeKeepsHighWaterMark) {
  registry_.set_enabled(true);
  obs::Gauge g = registry_.gauge("g");
  for (std::uint64_t v : {3u, 9u, 4u}) g.record(v);
  EXPECT_EQ(registry_.snapshot().gauges[0].second, 9u);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  registry_.set_enabled(true);
  registry_.counter("c").inc(5);
  registry_.gauge("g").record(5);
  registry_.histogram("h").record(5);
  registry_.reset();
  obs::Snapshot snap = registry_.snapshot();
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_EQ(snap.gauges[0].second, 0u);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
  // And the shards are reusable afterwards.
  registry_.counter("c").inc(2);
  registry_.histogram("h").record(3);
  snap = registry_.snapshot();
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.histograms[0].second.min, 3u);
}

// The core determinism claim: the merged snapshot depends only on the
// multiset of recorded values, not on which thread recorded what.
TEST_F(ObsTest, MergeIsThreadCountInvariant) {
  util::Rng rng(2026);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 4096; ++i) values.push_back(rng.below(1u << 20));

  auto run = [&](std::size_t threads) {
    obs::Registry reg;
    reg.set_enabled(true);
    obs::Counter c = reg.counter("events");
    obs::Gauge g = reg.gauge("hwm");
    obs::Histogram h = reg.histogram("latency");
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < values.size(); i += threads) {
          c.inc(values[i] & 3);
          g.record(values[i]);
          h.record(values[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
    return reg.snapshot();
  };

  obs::Snapshot one = run(1);
  for (std::size_t threads : {2u, 4u, 7u}) {
    obs::Snapshot many = run(threads);
    EXPECT_TRUE(one.deterministic_equal(many)) << threads << " threads";
    EXPECT_EQ(one.to_json(), many.to_json()) << threads << " threads";
  }
}

// Percentile contract: exact for 0/1, otherwise inside the power-of-two
// bucket of the nearest-rank naive reference value (hence within 2x).
TEST_F(ObsTest, PercentileTracksNaiveReference) {
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    obs::Registry registry;
    registry.set_enabled(true);
    obs::Histogram handle = registry.histogram("h");
    std::vector<std::uint64_t> values;
    const int n = 1 + static_cast<int>(rng.below(400));
    for (int i = 0; i < n; ++i) {
      // Mixed magnitudes, including the exact buckets 0 and 1.
      std::uint64_t v = rng.below(1u << rng.below(24));
      values.push_back(v);
      handle.record(v);
    }
    const obs::HistogramData h = registry.snapshot().histograms[0].second;
    std::sort(values.begin(), values.end());
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
      double rank = p / 100.0 * static_cast<double>(values.size());
      std::size_t idx =
          p <= 0.0 ? 0
                   : std::min(values.size() - 1,
                              static_cast<std::size_t>(std::ceil(rank)) - 1);
      std::uint64_t naive = values[idx];
      double got = h.percentile(p);
      if (naive <= 1) {
        EXPECT_DOUBLE_EQ(got, static_cast<double>(naive))
            << "p" << p << " round " << round;
      } else {
        double lo = std::ldexp(1.0, std::bit_width(naive) - 1);
        double hi = 2.0 * lo - 1.0;
        EXPECT_GE(got, std::min(lo, static_cast<double>(values.front())))
            << "p" << p << " round " << round;
        EXPECT_LE(got, std::max(hi, static_cast<double>(naive)))
            << "p" << p << " round " << round;
        EXPECT_GE(got, static_cast<double>(naive) / 2.0);
        EXPECT_LE(got, static_cast<double>(naive) * 2.0);
      }
    }
  }
}

TEST_F(ObsTest, HistogramTracksExactMoments) {
  registry_.set_enabled(true);
  obs::Histogram h = registry_.histogram("h");
  std::uint64_t sum = 0;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 100u, 65536u}) {
    h.record(v);
    sum += v;
  }
  const obs::Snapshot snap = registry_.snapshot();
  const obs::HistogramData& data = snap.histograms[0].second;
  EXPECT_EQ(data.count, 6u);
  EXPECT_EQ(data.sum, sum);
  EXPECT_EQ(data.min, 0u);
  EXPECT_EQ(data.max, 65536u);
  EXPECT_DOUBLE_EQ(data.mean(), static_cast<double>(sum) / 6.0);
}

TEST_F(ObsTest, JsonShape) {
  registry_.set_enabled(true);
  registry_.counter("a.count").inc(3);
  registry_.gauge("a.hwm").record(8);
  registry_.histogram("a.dist").record(5);
  const obs::Phase phase("a.time", registry_);
  {
    obs::Span span(phase);
  }
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_NE(snap.timer_data("a.time"), nullptr);
  EXPECT_EQ(snap.timer_data("a.time")->count, 1u);

  std::string json = snap.to_json();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"a.hwm\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [[3, 1]]"), std::string::npos);
  // Timers only appear when asked for.
  EXPECT_EQ(json.find("\"timers\""), std::string::npos);
  EXPECT_EQ(json.find("a.time"), std::string::npos);
  std::string with = snap.to_json(/*include_timers=*/true);
  EXPECT_NE(with.find("\"timers\""), std::string::npos);
  EXPECT_NE(with.find("\"a.time\""), std::string::npos);
}

TEST_F(ObsTest, TimersExcludedFromDeterministicEquality) {
  registry_.set_enabled(true);
  registry_.counter("c").inc();
  obs::Histogram t = registry_.timer("t");
  obs::Snapshot a = registry_.snapshot();
  t.record(12345);  // wall-clock-ish data lands only in the timers section
  obs::Snapshot b = registry_.snapshot();
  EXPECT_TRUE(a.deterministic_equal(b));
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json(true), b.to_json(true));
  EXPECT_EQ(b.timers.size(), 1u);
  EXPECT_EQ(b.timers[0].second.count, 1u);
}

// The phase scope's timer half: with the registry and the trace log both
// off a scope records nothing; with only the registry on it times into the
// phase's timer and leaves the log alone; with both on, one scope feeds
// both under the phase's one name.
TEST_F(ObsTest, ScopedTimerRecordsElapsed) {
  obs::TraceLog& log = obs::TraceLog::global();
  log.set_enabled(false);
  const std::size_t spans = span_count();
  const obs::Phase phase("test.t", registry_);
  {
    obs::Span span(phase);
  }
  EXPECT_EQ(registry_.snapshot().timer_data("test.t")->count, 0u);
  EXPECT_EQ(span_count(), spans);

  registry_.set_enabled(true);
  {
    obs::Span span(phase);
  }
  {
    obs::Span span(phase, 7);
  }
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].first, "test.t");
  EXPECT_EQ(snap.timers[0].second.count, 2u);
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(span_count(), spans);

  log.set_enabled(true);
  {
    obs::Span span(phase);
  }
  log.set_enabled(false);
  EXPECT_EQ(registry_.snapshot().timer_data("test.t")->count, 3u);
  ASSERT_EQ(span_count(), spans + 1);
  EXPECT_NE(log.to_chrome_json().find("\"name\": \"test.t\""),
            std::string::npos);
}

TEST_F(ObsTest, SnapshotSectionsAreSortedByName) {
  registry_.set_enabled(true);
  registry_.counter("z").inc();
  registry_.counter("a").inc();
  registry_.counter("m").inc();
  obs::Snapshot snap = registry_.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

// End-to-end determinism: an instrumented campaign over real scenario runs
// must leave byte-identical deterministic sections in the global registry
// whether it ran serially or on four workers.
TEST(ObsCampaignTest, GlobalSnapshotIdenticalAcrossJobCounts) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();

  auto runner = [](std::uint64_t seed) {
    apps::Case1Config config;
    config.seed = seed;
    config.sample_periods_ms = {20};
    config.run_seconds = 2.0;
    apps::Case1Result r = apps::run_case1(config);
    return pipeline::analyze({{&r.runs[0].sensor_trace, 0}},
                             os::irq::kAdc);
  };

  auto capture = [&](std::size_t threads) {
    reg.reset();
    reg.set_enabled(true);
    pipeline::CampaignOptions options;
    options.runs = 4;
    options.k = 5;
    options.threads = threads;
    pipeline::CampaignStats stats = pipeline::run_campaign(runner, options);
    obs::Snapshot snap = reg.snapshot();
    reg.set_enabled(was_enabled);
    return std::pair{stats, snap};
  };

  auto [serial_stats, serial_snap] = capture(1);
  auto [parallel_stats, parallel_snap] = capture(4);
  reg.reset();

  EXPECT_EQ(serial_stats, parallel_stats);
  EXPECT_TRUE(serial_snap.deterministic_equal(parallel_snap));
  EXPECT_EQ(serial_snap.to_json(), parallel_snap.to_json());

  // The instrumented subsystems actually showed up.
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : serial_snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return 0;
  };
  EXPECT_GT(counter("campaign.runs"), 0u);
  EXPECT_GT(counter("sim.events_executed"), 0u);
  EXPECT_GT(counter("mcu.interrupts_delivered"), 0u);
  EXPECT_GT(counter("os.tasks_run"), 0u);
  EXPECT_GT(counter("ml.smo_iterations"), 0u);
  EXPECT_GT(counter("pipeline.analyses"), 0u);
}

// The phase scope's trace half: spans land in the log only while it is
// enabled, and a disabled registry keeps their timers empty.
TEST(ObsTraceTest, SpansRecordOnlyWhenEnabled) {
  obs::Registry registry;  // disabled
  const obs::Phase outer_phase("test.outer", registry);
  const obs::Phase inner_phase("test.inner", registry);
  obs::TraceLog& log = obs::TraceLog::global();
  log.set_enabled(false);
  const std::size_t spans = span_count();
  {
    obs::Span span(outer_phase);
  }
  EXPECT_EQ(span_count(), spans);

  log.set_enabled(true);
  {
    obs::Span outer(outer_phase, 42);
    obs::Span inner(inner_phase);
  }
  log.set_enabled(false);
  EXPECT_EQ(span_count(), spans + 2);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.timer_data("test.outer")->count, 0u);
  EXPECT_EQ(snap.timer_data("test.inner")->count, 0u);

  std::string json = log.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.outer\", \"cat\": \"test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 42}"), std::string::npos);
}

}  // namespace

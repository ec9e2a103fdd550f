// Amortized campaign engine (DESIGN.md §15): EventQueue::reset units,
// WorldArena trace recycling, and the warm-vs-cold parity battery — a
// pooled runner, whose arena is reused and reset across seeds, must emit
// bit-identical CampaignStats to a fresh runner built for each seed,
// across all three Fig-5 cases, with and without fault injection, serial
// and parallel. The battery's cold leg is also held to
// tests/golden/case_runner_stats.txt, which pins what each case runner
// simulates and analyzes; regenerate after an intentional change with:
//   SENT_UPDATE_GOLDEN=1 ./worker_pool_test
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/worker_pool.hpp"
#include "sim/event_queue.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"

namespace sent::pipeline {
namespace {

// ---- EventQueue::reset ----------------------------------------------------

// The reset contract: a scrubbed queue is observationally identical to a
// freshly constructed one — same firing order, same clock, same executed
// count — no matter how dirty it was before the reset.
TEST(EventQueueReset, ResetQueueMatchesFreshExecution) {
  auto drive = [](sim::EventQueue& q) {
    std::vector<int> order;
    q.schedule_at(10, [&order] { order.push_back(1); });
    q.schedule_at(5, [&order] { order.push_back(2); });
    q.schedule_at(10, [&order] { order.push_back(3); });  // FIFO with #1
    q.run_until(20);
    return std::make_pair(order, q.now());
  };

  sim::EventQueue reused;
  // Dirty the queue: schedules, a cancel, a partial drain, a watchdog.
  sim::EventId cancelled = reused.schedule_at(3, [] {});
  reused.schedule_at(7, [] {});
  reused.schedule_at(9, [] { });
  reused.cancel(cancelled);
  reused.set_watchdog_budget(1 << 20);
  reused.run_all();
  reused.reset();

  sim::EventQueue fresh;
  EXPECT_EQ(drive(reused), drive(fresh));
  EXPECT_EQ(reused.now(), fresh.now());
  EXPECT_EQ(reused.executed(), fresh.executed());
  EXPECT_EQ(reused.watchdog_budget(), fresh.watchdog_budget());
}

TEST(EventQueueReset, DropsPendingEventsWithoutRunningThem) {
  sim::EventQueue q;
  bool fired = false;
  q.schedule_at(5, [&fired] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.reset();
  EXPECT_TRUE(q.empty());
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.now(), sim::Cycle{0});
}

// Stale EventIds from before the reset: cancelling one while its slot no
// longer exists is a harmless no-op (the generation-tag contract).
TEST(EventQueueReset, StaleCancelAfterResetIsHarmless) {
  sim::EventQueue q;
  sim::EventId stale = q.schedule_at(5, [] {});
  q.reset();
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_TRUE(q.empty());
}

// reset() is a run boundary, never legal from inside the run itself.
TEST(EventQueueReset, RefusedInsideAnEvent) {
  sim::EventQueue q;
  q.schedule_at(1, [&q] {
    EXPECT_THROW(q.reset(), util::PreconditionError);
  });
  q.run_all();
}

// ---- WorldArena -----------------------------------------------------------

// A run through a warm arena (reused queue slab + recycled trace buffers)
// must serialize to the exact bytes of a run on run_case2's own cold,
// function-local arena.
TEST(WorldArena, ReusedWorldEmitsBitIdenticalTrace) {
  auto run_and_save = [](apps::WorldArena* arena) {
    apps::Case2Config config;
    config.seed = 42;
    config.run_seconds = 5.0;
    apps::Case2Result r = apps::run_case2(config, arena);
    std::ostringstream os;
    trace::save_trace(r.relay_trace, os);
    if (arena) arena->recycle(std::move(r.relay_trace));
    return os.str();
  };
  const std::string fresh = run_and_save(nullptr);
  apps::WorldArena arena;
  EXPECT_EQ(run_and_save(&arena), fresh);  // cold arena
  EXPECT_GT(arena.banked_buffers(), 0u);
  EXPECT_EQ(run_and_save(&arena), fresh);  // warm: recycled buffers in play
  EXPECT_EQ(run_and_save(&arena), fresh);
}

// A watchdog timeout unwinds mid-run and leaves pending events behind; the
// next checkout must scrub the wedged world and run clean.
TEST(WorldArena, QueueRecoversAfterWatchdogTimeout) {
  apps::WorldArena arena;
  apps::Case2Config config;
  config.seed = 7;
  config.run_seconds = 5.0;
  config.event_budget = 1000;  // far below a real 5s run
  EXPECT_THROW(apps::run_case2(config, &arena), sim::WatchdogTimeout);

  config.event_budget = 0;
  apps::Case2Result pooled = apps::run_case2(config, &arena);
  apps::Case2Result fresh = apps::run_case2(config, nullptr);
  std::ostringstream a, b;
  trace::save_trace(pooled.relay_trace, a);
  trace::save_trace(fresh.relay_trace, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WorldArena, RecycledBuffersAreScrubbed) {
  apps::WorldArena arena;
  trace::NodeTrace t;
  t.node_id = 9;
  t.lifecycle.push_back({});
  arena.recycle(std::move(t));
  trace::NodeTrace back = arena.take_buffer();
  EXPECT_EQ(back.node_id, 0u);
  EXPECT_TRUE(back.lifecycle.empty());
  EXPECT_EQ(arena.banked_buffers(), 0u);
}

// ---- warm-vs-cold parity battery ------------------------------------------

/// The cold leg of `factory`: every seed runs on a fresh runner built for
/// it alone, so no arena state crosses a seed boundary.
ScenarioRunnerFactory cold(const ScenarioRunnerFactory& factory) {
  return [factory](std::size_t worker) {
    return ScenarioRunner([factory, worker](std::uint64_t seed) {
      return factory(worker)(seed);
    });
  };
}

/// One fixture line: a campaign's rank-free outcome. First ranks are left
/// out on purpose: one chaos case-III seed's rank moves at the solver's
/// residual scale between optimized and sanitizer builds, while every
/// field printed here agrees across them.
std::string stats_line(const std::string& name, double intensity,
                       const CampaignStats& s) {
  std::ostringstream os;
  os << "case=" << name << " intensity=" << intensity << " runs=" << s.runs
     << " triggered=" << s.triggered << " failed=" << s.failed
     << " timed_out=" << s.timed_out << " retried=" << s.retried
     << " degraded=" << s.degraded << " quarantined=" << s.quarantined
     << " failures=" << s.failures.size() << '\n';
  for (const RunFailure& f : s.failures)
    os << "  seed=" << f.seed << " status="
       << (f.status == RunStatus::TimedOut ? "timed_out" : "failed")
       << " message=" << f.message << '\n';
  return os.str();
}

// The tentpole guarantee: warm pooled runners produce bit-identical
// CampaignStats to cold ones built for each seed, across all three Fig-5
// cases, clean and under fault injection, at --jobs 1 and 4. The chaos leg
// runs enough seeds that trace truncation and corruption both fire, so the
// salvage path (loads into recycled arena buffers) is exercised on broken
// traces; the fault injector's obs counters prove it. Both legs share the
// runner, so the cold leg is also compared with the committed fixture: a
// runner that simulated or analyzed the wrong thing would agree with
// itself but not with it.
TEST(WorkerPoolParity, PooledMatchesFreshAcrossCasesFaultsAndJobs) {
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  std::string fixture_text;
  for (const std::string name : {"I", "II", "III"}) {
    for (double intensity : {0.0, 0.5}) {
      CaseRunnerConfig config;
      config.intensity = intensity;
      config.trace_round_trip = intensity > 0.0;
      config.event_budget = 50000000;
      const ScenarioRunnerFactory pooled =
          make_case_runner_factory(name, config);

      CampaignOptions options;
      options.first_seed = 1;
      options.runs = intensity > 0.0 ? 32 : 4;
      options.k = 5;
      options.threads = 1;
      registry.reset();
      CampaignStats golden = run_campaign(cold(pooled), options);
      fixture_text += stats_line(name, intensity, golden);
      if (intensity > 0.0) {
        const obs::Snapshot faults = registry.snapshot();
        EXPECT_GT(faults.counter_value("fault.trace_truncations"), 0u)
            << "case " << name;
        EXPECT_GT(faults.counter_value("fault.trace_corruptions"), 0u)
            << "case " << name;
      }

      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        EXPECT_EQ(run_campaign(pooled, options), golden)
            << "case " << name << " intensity " << intensity << " threads "
            << threads;
      }
    }
  }
  registry.set_enabled(false);
  golden::check("case_runner_stats.txt", fixture_text);
}

// The obs counters flush at the same run boundaries either way (reset for
// a warm runner, destruction for a cold one), so whole-campaign snapshots
// agree on every deterministic metric.
TEST(WorkerPoolParity, ObsSnapshotsMatchPooledVsFresh) {
  auto snapshot_for = [](const ScenarioRunnerFactory& factory) {
    obs::Registry::global().reset();
    CampaignOptions options;
    options.first_seed = 1;
    options.runs = 3;
    options.k = 5;
    options.threads = 1;
    run_campaign(factory, options);
    return obs::Registry::global().snapshot();
  };
  const ScenarioRunnerFactory factory = make_case_runner_factory("II", {});
  obs::Registry::global().set_enabled(true);
  obs::Snapshot pooled = snapshot_for(factory);
  obs::Snapshot fresh = snapshot_for(cold(factory));
  obs::Registry::global().set_enabled(false);
  EXPECT_EQ(pooled.counter_value("campaign.runs"), 3u);  // really recorded
  EXPECT_TRUE(pooled.deterministic_equal(fresh));
  EXPECT_TRUE(fresh.deterministic_equal(pooled));
}

// ---- factory plumbing -----------------------------------------------------

TEST(WorkerPool, FactoryRejectsUnknownCase) {
  EXPECT_THROW(make_case_runner_factory("IV", {}), util::PreconditionError);
}

// Each worker gets its own runner (its own arena); the factory is invoked
// lazily, at most once per worker, on the worker's own thread.
TEST(WorkerPool, FactoryInvokedAtMostOncePerWorker) {
  std::atomic<int> built{0};
  ScenarioRunnerFactory factory = [&built](std::size_t) {
    ++built;
    return ScenarioRunner([](std::uint64_t) {
      AnalysisReport report;
      report.samples.resize(1);
      report.scores.resize(1, 0.5);
      report.ranking.push_back({0, 0.5});
      return report;
    });
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 32;
  options.k = 1;
  options.threads = 4;
  CampaignStats stats = run_campaign(factory, options);
  EXPECT_EQ(stats.runs, 32u);
  EXPECT_GE(built.load(), 1);
  EXPECT_LE(built.load(), 4);
}

// Phase scopes (DESIGN.md §11): every completed run is timed exactly once
// at each boundary, whichever worker ran it; the trace round trip only
// when the runner does one; and timing never moves the deterministic
// snapshot away from a serial run's.
TEST(WorkerPoolPhases, ShardsCountEveryCompletedRun) {
  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  auto campaign = [&](std::size_t threads, bool round_trip) {
    registry.reset();
    CaseRunnerConfig config;
    config.trace_round_trip = round_trip;
    CampaignOptions options;
    options.first_seed = 1;
    options.runs = 6;
    options.k = 5;
    options.threads = threads;
    EXPECT_EQ(
        run_campaign(make_case_runner_factory("II", config), options).runs,
        6u);
    return registry.snapshot();
  };
  const obs::Snapshot plain = campaign(4, false);
  const obs::Snapshot round_trip = campaign(4, true);
  const obs::Snapshot serial = campaign(1, false);
  registry.reset();
  registry.set_enabled(was_enabled);

  auto count = [](const obs::Snapshot& snap, const char* timer) {
    const obs::HistogramData* h = snap.timer_data(timer);
    EXPECT_NE(h, nullptr) << timer << " not registered";
    return h ? h->count : 0;
  };
  for (const char* timer : {"campaign.run", "apps.run_case2",
                            "sim.run_until", "pipeline.analyze"}) {
    EXPECT_EQ(count(plain, timer), 6u) << timer;
    EXPECT_EQ(count(round_trip, timer), 6u) << timer;
  }
  EXPECT_EQ(count(plain, "trace.round_trip"), 0u);
  EXPECT_EQ(count(round_trip, "trace.round_trip"), 6u);
  EXPECT_TRUE(plain.deterministic_equal(serial));
  EXPECT_EQ(plain.to_json(), serial.to_json());
}

// Seed chunking must not move stats: the chunk each pool task claims
// (runs / (8 * threads), clamped to [1, 64]) only schedules, and
// aggregation stays seed-ordered, so every leg is bit-identical to a
// serial campaign of the same run count. The legs cover a chunk of 1
// (24 runs, 4 threads) and a chunk of 3 that does not divide the run
// count (56 runs, 2 threads).
TEST(WorkerPoolBatching, SeedBatchSizeNeverMovesStats) {
  const struct {
    std::size_t runs, threads;
  } legs[] = {{24, 4}, {56, 2}};
  for (const auto& leg : legs) {
    CampaignOptions serial;
    serial.first_seed = 1;
    serial.runs = leg.runs;
    serial.k = 5;
    serial.threads = 1;
    CampaignOptions parallel = serial;
    parallel.threads = leg.threads;
    EXPECT_EQ(run_campaign(make_case_runner_factory("II", {}), parallel),
              run_campaign(make_case_runner_factory("II", {}), serial))
        << leg.runs << " runs, " << leg.threads << " threads";
  }
}

}  // namespace
}  // namespace sent::pipeline

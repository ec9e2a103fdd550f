#include "pipeline/worker_pool.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "fault/injector.hpp"
#include "os/irq.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shared per-runner state: the arena (when pooled), the worker's trace
/// text buffer, plus where to stream phase totals. Lives in the runner
/// closure via shared_ptr because ScenarioRunner is a copyable
/// std::function.
struct RunnerState {
  std::unique_ptr<apps::WorldArena> arena;  ///< null = fresh construction
  std::string text;  ///< round-trip buffer, capacity kept across seeds
  PhaseShards* phases = nullptr;
  std::size_t worker = 0;

  apps::WorldArena* arena_ptr() { return arena.get(); }

  void account(double setup, double simulate, double analyze) {
    if (!phases) return;
    PhaseTotals& t = phases->shard(worker);
    t.setup_seconds += setup;
    t.simulate_seconds += simulate;
    t.analyze_seconds += analyze;
    ++t.runs;
  }

  void recycle(trace::NodeTrace&& t) {
    if (arena) arena->recycle(std::move(t));
  }

  /// Chaos-ladder trace I/O leg (same as bench/ext_chaos): save, perturb
  /// with the run-seeded substream, salvage-load. A zero plan perturbs
  /// nothing and the round trip is the identity. The text lives in this
  /// worker's buffer and, when pooled, the salvage loads into an arena
  /// buffer, so a warm pooled worker allocates nothing here.
  trace::NodeTrace round_trip(const trace::NodeTrace& t,
                              const fault::FaultPlan& faults, util::Rng rng) {
    text.clear();
    trace::save_trace(t, text);
    text = fault::FaultInjector::perturb_trace_text(std::move(text), faults,
                                                    rng);
    return trace::load_trace_lenient(
               text, arena ? arena->take_buffer() : trace::NodeTrace{})
        .trace;
  }
};

std::shared_ptr<RunnerState> make_state(const CaseRunnerConfig& config,
                                        PhaseShards* phases,
                                        std::size_t worker) {
  auto state = std::make_shared<RunnerState>();
  if (config.pooled) state->arena = std::make_unique<apps::WorldArena>();
  state->phases = phases;
  state->worker = worker;
  return state;
}

fault::FaultPlan plan_for(const CaseRunnerConfig& config) {
  return config.intensity > 0.0
             ? fault::FaultPlan::at_intensity(config.intensity)
             : fault::FaultPlan{};
}

ScenarioRunner make_case1_runner(const CaseRunnerConfig& config,
                                 PhaseShards* phases, std::size_t worker) {
  auto state = make_state(config, phases, worker);
  return [config, state](std::uint64_t seed) {
    apps::Case1Config c;
    c.seed = seed;
    c.sample_periods_ms = {20};  // the vulnerable rate
    c.run_seconds = 10.0;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case1Result r = apps::run_case1(c, state->arena_ptr());
    const Clock::time_point t0 = Clock::now();
    AnalysisReport report;
    if (config.trace_round_trip) {
      trace::NodeTrace t =
          state->round_trip(r.runs[0].sensor_trace, c.faults,
                            util::Rng(seed).substream("trace-faults"));
      report = analyze({{&t, 0}}, os::irq::kAdc);
      state->recycle(std::move(t));
    } else {
      report = analyze({{&r.runs[0].sensor_trace, 0}}, os::irq::kAdc);
    }
    for (apps::Case1Run& run : r.runs)
      state->recycle(std::move(run.sensor_trace));
    state->account(r.setup_seconds, r.simulate_seconds, seconds_since(t0));
    return report;
  };
}

ScenarioRunner make_case2_runner(const CaseRunnerConfig& config,
                                 PhaseShards* phases, std::size_t worker) {
  auto state = make_state(config, phases, worker);
  return [config, state](std::uint64_t seed) {
    apps::Case2Config c;
    c.seed = seed;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case2Result r = apps::run_case2(c, state->arena_ptr());
    const Clock::time_point t0 = Clock::now();
    AnalysisReport report;
    if (config.trace_round_trip) {
      trace::NodeTrace t =
          state->round_trip(r.relay_trace, c.faults,
                            util::Rng(seed).substream("trace-faults"));
      report = analyze({{&t, 0}}, os::irq::kRadioSpi);
      state->recycle(std::move(t));
    } else {
      report = analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
    }
    state->recycle(std::move(r.relay_trace));
    state->account(r.setup_seconds, r.simulate_seconds, seconds_since(t0));
    return report;
  };
}

ScenarioRunner make_case3_runner(const CaseRunnerConfig& config,
                                 PhaseShards* phases, std::size_t worker) {
  auto state = make_state(config, phases, worker);
  return [config, state](std::uint64_t seed) {
    apps::Case3Config c;
    c.seed = seed;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case3Result r = apps::run_case3(c, state->arena_ptr());
    const Clock::time_point t0 = Clock::now();
    AnalysisReport report;
    if (config.trace_round_trip) {
      // Per-node perturbation substreams, same keying as bench/ext_chaos.
      std::vector<trace::NodeTrace> salvaged;
      salvaged.reserve(r.sources.size());
      for (net::NodeId src : r.sources)
        salvaged.push_back(state->round_trip(
            r.traces[src], c.faults,
            util::Rng(seed).substream("trace-faults-" +
                                      std::to_string(src))));
      std::vector<TaggedTrace> traces;
      for (trace::NodeTrace& t : salvaged) traces.push_back({&t, 0});
      report = analyze(traces, r.report_line);
      for (trace::NodeTrace& t : salvaged) state->recycle(std::move(t));
    } else {
      std::vector<TaggedTrace> traces;
      for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
      report = analyze(traces, r.report_line);
    }
    if (state->arena) state->arena->recycle_all(r.traces);
    state->account(r.setup_seconds, r.simulate_seconds, seconds_since(t0));
    return report;
  };
}

}  // namespace

ScenarioRunnerFactory make_case_runner_factory(const std::string& name,
                                               const CaseRunnerConfig& config,
                                               PhaseShards* phases) {
  SENT_REQUIRE_MSG(name == "I" || name == "II" || name == "III",
                   "unknown case study: " << name);
  return [name, config, phases](std::size_t worker) {
    if (name == "I") return make_case1_runner(config, phases, worker);
    if (name == "III") return make_case3_runner(config, phases, worker);
    return make_case2_runner(config, phases, worker);
  };
}

}  // namespace sent::pipeline

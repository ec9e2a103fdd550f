#include "pipeline/worker_pool.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "os/irq.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::pipeline {

namespace {

/// The runner's phase scopes (DESIGN.md §11), registered once.
struct Metrics {
  obs::Phase run_case1{"apps.run_case1"};
  obs::Phase run_case2{"apps.run_case2"};
  obs::Phase run_case3{"apps.run_case3"};
  obs::Phase round_trip{"trace.round_trip"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

/// One seed's simulated world, reduced to what the shared runner needs.
struct Simulated {
  /// Every trace buffer the run hands back, in the order it is recycled.
  std::vector<trace::NodeTrace> traces;
  std::vector<std::size_t> analyzed;  ///< indexes into traces, analyze order
  trace::IrqLine line = 0;
};

/// What differs between the case studies' runners.
struct CaseStudy {
  Simulated (*simulate)(std::uint64_t seed, const fault::FaultPlan& faults,
                        std::uint64_t event_budget, apps::WorldArena* arena);
  const obs::Phase* phase;  ///< the run_caseN scope
  /// Round-trip substream key: "trace-faults-<node id>" per analyzed trace
  /// when true (one trace per node), plain "trace-faults" otherwise.
  bool keyed_by_node;
};

Simulated simulate_case1(std::uint64_t seed, const fault::FaultPlan& faults,
                         std::uint64_t event_budget,
                         apps::WorldArena* arena) {
  apps::Case1Config c;
  c.seed = seed;
  c.sample_periods_ms = {20};  // the vulnerable rate
  c.run_seconds = 10.0;
  c.faults = faults;
  c.event_budget = event_budget;
  apps::Case1Result r = apps::run_case1(c, arena);
  Simulated sim;
  for (apps::Case1Run& run : r.runs)
    sim.traces.push_back(std::move(run.sensor_trace));
  sim.analyzed = {0};
  sim.line = os::irq::kAdc;
  return sim;
}

Simulated simulate_case2(std::uint64_t seed, const fault::FaultPlan& faults,
                         std::uint64_t event_budget,
                         apps::WorldArena* arena) {
  apps::Case2Config c;
  c.seed = seed;
  c.faults = faults;
  c.event_budget = event_budget;
  apps::Case2Result r = apps::run_case2(c, arena);
  Simulated sim;
  sim.traces.push_back(std::move(r.relay_trace));
  sim.analyzed = {0};
  sim.line = os::irq::kRadioSpi;
  return sim;
}

Simulated simulate_case3(std::uint64_t seed, const fault::FaultPlan& faults,
                         std::uint64_t event_budget,
                         apps::WorldArena* arena) {
  apps::Case3Config c;
  c.seed = seed;
  c.faults = faults;
  c.event_budget = event_budget;
  apps::Case3Result r = apps::run_case3(c, arena);
  Simulated sim;
  sim.traces = std::move(r.traces);  // indexed by node id
  sim.analyzed.assign(r.sources.begin(), r.sources.end());
  sim.line = r.report_line;
  return sim;
}

CaseStudy case_study(const std::string& name) {
  const Metrics& m = Metrics::get();
  if (name == "I") return {simulate_case1, &m.run_case1, false};
  if (name == "II") return {simulate_case2, &m.run_case2, false};
  SENT_REQUIRE_MSG(name == "III", "unknown case study: " << name);
  return {simulate_case3, &m.run_case3, true};
}

/// Per-runner mutable state: the arena (when pooled) and the worker's
/// trace text buffer. Lives in the runner closure via shared_ptr because
/// ScenarioRunner is a copyable std::function.
struct RunnerState {
  std::unique_ptr<apps::WorldArena> arena;  ///< null = fresh construction
  std::string text;  ///< round-trip buffer, capacity kept across seeds

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

ScenarioRunner make_runner(const CaseStudy& study,
                           const CaseRunnerConfig& config) {
  auto state = std::make_shared<RunnerState>();
  if (config.pooled) state->arena = std::make_unique<apps::WorldArena>();
  const fault::FaultPlan faults =
      config.intensity > 0.0 ? fault::FaultPlan::at_intensity(config.intensity)
                             : fault::FaultPlan{};
  return [study, config, faults, state](std::uint64_t seed) {
    Simulated sim;
    {
      obs::Span span(*study.phase);
      sim = study.simulate(seed, faults, config.event_budget,
                           state->arena.get());
    }
    std::vector<trace::NodeTrace> salvaged;
    std::vector<TaggedTrace> traces;
    if (config.trace_round_trip) {
      obs::Span span(Metrics::get().round_trip);
      salvaged.reserve(sim.analyzed.size());
      for (std::size_t i : sim.analyzed) {
        const std::string key = study.keyed_by_node
                                    ? "trace-faults-" + std::to_string(i)
                                    : std::string("trace-faults");
        salvaged.push_back(state->round_trip(
            sim.traces[i], faults, util::Rng(seed).substream(key)));
      }
      for (trace::NodeTrace& t : salvaged) traces.push_back({&t, 0});
    } else {
      for (std::size_t i : sim.analyzed) traces.push_back({&sim.traces[i], 0});
    }
    AnalysisReport report = analyze(traces, sim.line);
    for (trace::NodeTrace& t : salvaged) state->recycle(std::move(t));
    for (trace::NodeTrace& t : sim.traces) state->recycle(std::move(t));
    return report;
  };
}

}  // namespace

ScenarioRunnerFactory make_case_runner_factory(
    const std::string& name, const CaseRunnerConfig& config) {
  const CaseStudy study = case_study(name);
  return [study, config](std::size_t) { return make_runner(study, config); };
}

}  // namespace sent::pipeline

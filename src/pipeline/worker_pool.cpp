#include "pipeline/worker_pool.hpp"

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::pipeline {

namespace {

/// The runner's phase scopes (DESIGN.md §11), registered once.
struct Metrics {
  /// The simulate scope by Scenario alternative (case IV has no runner).
  obs::Phase run_case[3] = {obs::Phase{"apps.run_case1"},
                            obs::Phase{"apps.run_case2"},
                            obs::Phase{"apps.run_case3"}};
  obs::Phase round_trip{"trace.round_trip"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

/// The campaign scenario of case study `name` (the same configs as
/// bench/ext_campaign): case I at the vulnerable D = 20 ms over 10 s,
/// cases II and III at scenario defaults.
apps::Scenario campaign_scenario(const std::string& name) {
  if (name == "I") {
    apps::Case1Config c;
    c.sample_periods_ms = {20};
    c.run_seconds = 10.0;
    return c;
  }
  if (name == "II") return apps::Case2Config{};
  SENT_REQUIRE_MSG(name == "III", "unknown case study: " << name);
  return apps::Case3Config{};
}

/// Per-runner mutable state: the worker's arena and trace text buffer.
/// Lives in the runner closure via shared_ptr because ScenarioRunner is a
/// copyable std::function.
struct RunnerState {
  apps::WorldArena arena;
  std::string text;  ///< round-trip buffer, capacity kept across seeds

  /// Chaos-ladder trace I/O leg (same as bench/ext_chaos): save, perturb
  /// with the run-seeded substream, salvage-load. A zero plan perturbs
  /// nothing and the round trip is the identity. The text lives in this
  /// worker's buffer and the salvage loads into an arena buffer, so a warm
  /// worker allocates nothing here.
  trace::NodeTrace round_trip(const trace::NodeTrace& t,
                              const fault::FaultPlan& faults, util::Rng rng) {
    text.clear();
    trace::save_trace(t, text);
    text = fault::FaultInjector::perturb_trace_text(std::move(text), faults,
                                                    rng);
    return trace::load_trace_lenient(text, arena.take_buffer()).trace;
  }
};

ScenarioRunner make_runner(const apps::Scenario& scenario,
                           const CaseRunnerConfig& config,
                           const fault::FaultPlan& faults) {
  auto state = std::make_shared<RunnerState>();
  const obs::Phase* phase = &Metrics::get().run_case[scenario.index()];
  // Round-trip substream key: "trace-faults-<node id>" per analyzed trace
  // for case III (one trace per node), plain "trace-faults" otherwise.
  const bool keyed_by_node =
      std::holds_alternative<apps::Case3Config>(scenario);
  return [scenario, config, faults, state, phase,
          keyed_by_node](std::uint64_t seed) {
    apps::Simulation sim;
    {
      obs::Span span(*phase);
      sim = apps::simulate(scenario, seed, &state->arena);
    }
    std::vector<trace::NodeTrace> salvaged;
    if (config.trace_round_trip) {
      // Analyze the salvaged copies in place of the simulated traces.
      obs::Span span(Metrics::get().round_trip);
      salvaged.reserve(sim.analyzed.traces.size());
      for (TaggedTrace& t : sim.analyzed.traces) {
        const std::string key =
            keyed_by_node ? "trace-faults-" + std::to_string(t.trace->node_id)
                          : std::string("trace-faults");
        salvaged.push_back(state->round_trip(
            *t.trace, faults, util::Rng(seed).substream(key)));
        t.trace = &salvaged.back();
      }
    }
    AnalysisReport report =
        analyze(sim.analyzed.traces, sim.analyzed.line);
    state->arena.recycle_all(salvaged);
    state->arena.recycle_all(sim.traces);
    return report;
  };
}

}  // namespace

ScenarioRunnerFactory make_case_runner_factory(
    const std::string& name, const CaseRunnerConfig& config) {
  apps::Scenario scenario = campaign_scenario(name);
  const fault::FaultPlan faults =
      config.intensity > 0.0 ? fault::FaultPlan::at_intensity(config.intensity)
                             : fault::FaultPlan{};
  std::visit(
      [&](auto& c) {
        c.faults = faults;
        c.event_budget = config.event_budget;
      },
      scenario);
  return [scenario, config, faults](std::size_t) {
    return make_runner(scenario, config, faults);
  };
}

}  // namespace sent::pipeline

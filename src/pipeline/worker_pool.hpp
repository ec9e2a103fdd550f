// Pooled Fig-5 case runners for amortized campaigns (DESIGN.md §15).
//
// The campaign engine dispatches seeds to per-worker ScenarioRunners (see
// ScenarioRunnerFactory in campaign.hpp). This module supplies those
// runners for the three case studies: each worker's runner owns a
// worker-local apps::WorldArena, so across its seed batches the event
// queue's slot slab, the heap storage and the multi-megabyte trace buffers
// are allocated once and scrubbed between runs instead of rebuilt. A warm
// runner is bit-identical to a cold one built for a single seed — the
// reused surfaces are exactly the ones EventQueue::reset() and
// NodeTrace::clear_keep_capacity() restore to blank, and everything else
// is rebuilt per seed. tests/worker_pool_test.cpp holds the parity.
//
// One runner serves all three cases: each case name maps to one
// apps::Scenario, which the runner hands to apps::simulate with the seed
// and the worker's arena; the traces it analyzes are the Simulation's
// analyzed views, and every trace the run returned goes back to the arena
// once. Its phases are obs phase scopes (DESIGN.md §11): the simulate call
// (`apps.run_case1..3`, the event loop's `sim.run_until` nested inside),
// the chaos ladder's trace round trip (`trace.round_trip`), and the back
// end's own `pipeline.analyze`.
#pragma once

#include <cstdint>
#include <string>

#include "pipeline/campaign.hpp"

namespace sent::pipeline {

/// Everything a pooled case runner varies on. The defaults reproduce the
/// clean Fig-5 campaign runs in bench/ext_campaign; the chaos knobs
/// reproduce bench/ext_chaos's fault ladder.
struct CaseRunnerConfig {
  /// fault::FaultPlan::at_intensity strength; 0 = the all-zero plan (no
  /// fault machinery wired, bit-identical to pre-fault builds).
  double intensity = 0.0;
  /// Watchdog event budget per run, 0 = unlimited.
  std::uint64_t event_budget = 0;
  /// Chaos ladder trace I/O leg: save -> perturb -> lenient-load each
  /// analyzed trace (perturbation keyed off the run seed).
  bool trace_round_trip = false;
};

/// Factory building one pooled runner per campaign worker for case `name`
/// ("I", "II" or "III" — same configs as bench/ext_campaign: case I at the
/// vulnerable D=20ms over 10s, cases II/III at scenario defaults).
ScenarioRunnerFactory make_case_runner_factory(const std::string& name,
                                               const CaseRunnerConfig& config);

}  // namespace sent::pipeline

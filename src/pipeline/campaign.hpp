// Randomized test campaigns.
//
// The paper's premise is that transient bugs need many randomized runs to
// trigger at all ("it is generally not cost-effective ... for a real
// system to explore a variety of system states to hit the trigger
// condition"), and that once triggered, Sentomist pinpoints the symptom.
// A campaign runs one scenario across many seeds and separates the two
// probabilities: how often the bug MANIFESTS (trigger rate, a property of
// the workload) and how often Sentomist surfaces it in the top-k WHEN it
// manifests (detection rate, the tool's quality).
//
// Seeded runs are fully isolated — each owns its EventQueue, Nodes and
// Rng — so a campaign is embarrassingly parallel. CampaignOptions::threads
// fans seeds out across a util::ThreadPool in contiguous chunks of
// runs / (8 * threads) seeds, clamped to [1, 64] (DESIGN.md §15); per-seed
// outcomes are always aggregated in seed order, so the resulting
// CampaignStats (including first_ranks order) is bit-identical to a serial
// campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/harness.hpp"
#include "pipeline/sentomist.hpp"

namespace sent::pipeline {

/// Runs one seeded scenario end to end and returns its analysis report.
/// Under a multi-threaded campaign the runner is invoked concurrently from
/// pool workers, so it must not touch shared mutable state.
using ScenarioRunner = std::function<AnalysisReport(std::uint64_t seed)>;

/// Builds one pool worker's ScenarioRunner (DESIGN.md §15). The factory is
/// invoked lazily — once per worker, on the worker's own thread, at its
/// first non-resumed seed — so the returned runner may own amortized
/// MUTABLE state (a world arena, recycled trace buffers): no other worker
/// ever touches it. The runner must still be a pure function of the seed
/// observably, or campaign determinism claims break.
using ScenarioRunnerFactory =
    std::function<ScenarioRunner(std::size_t worker)>;

/// How one seeded run ended (DESIGN.md §9).
enum class RunStatus {
  Completed,  ///< runner returned a report (possibly degraded)
  Failed,     ///< runner threw — isolated to this seed, siblings unaffected
  TimedOut,   ///< runner hit the watchdog budget (sim::WatchdogTimeout)
};

/// Record of one non-completed run, for diagnostics. Seed order.
struct RunFailure {
  std::uint64_t seed = 0;
  RunStatus status = RunStatus::Failed;
  std::string message;

  bool operator==(const RunFailure&) const = default;
};

struct CampaignStats {
  std::size_t runs = 0;
  std::size_t triggered = 0;       ///< runs where the bug manifested
  std::size_t detected_top_k = 0;  ///< triggered runs with first rank <= k
  std::size_t k = 0;
  std::vector<std::size_t> first_ranks;  ///< one per triggered run, seed order

  // Fault tolerance (DESIGN.md §9): a throwing or livelocked run is
  // counted, not fatal. Trigger/detection rates stay over ALL runs, so
  // fault-heavy campaigns degrade honestly instead of shrinking their
  // denominator.
  std::size_t failed = 0;     ///< runs whose runner threw (after any retry)
  std::size_t timed_out = 0;  ///< runs that hit the watchdog budget
  std::size_t retried = 0;    ///< retry attempts made under the retry policy
  std::size_t degraded = 0;   ///< completed runs with a degraded report
  std::vector<RunFailure> failures;  ///< non-completed runs, seed order

  // Quarantine (DESIGN.md §13): under an active retry policy
  // (max_retries > 0), a seed that failed every attempt is quarantined —
  // recorded here (seed order) so 10k-run triage can pull the repeat
  // offenders without re-running anything. Deterministic, so part of ==.
  std::size_t quarantined = 0;
  std::vector<std::uint64_t> quarantined_seeds;  ///< seed order

  // Durability (DESIGN.md §13): how many of this campaign's runs were
  // reconstructed from the journal instead of executed. Depends on where
  // the previous campaign crashed, so it is EXCLUDED from operator==: a
  // resumed campaign must compare equal to an uninterrupted one. (Per-run
  // wall time is not kept here at all; it is the `campaign.run` obs
  // timer, DESIGN.md §11.)
  std::size_t resumed_from_journal = 0;

  std::size_t completed() const { return runs - failed - timed_out; }
  double trigger_rate() const;
  /// Detection rate among triggered runs. Convention: 0.0 when no run
  /// triggered — a campaign that never manifests the bug has demonstrated
  /// nothing about the detector, so it must not report a perfect score.
  double detection_rate() const;
  double mean_first_rank() const;  ///< 0 when none triggered

  /// Logical-outcome equality; resumed_from_journal deliberately ignored.
  bool operator==(const CampaignStats& other) const;
};

struct CampaignOptions {
  std::uint64_t first_seed = 1;
  std::size_t runs = 20;
  std::size_t k = 5;          ///< detection cut-off rank
  std::size_t threads = 1;    ///< <= 1 runs seeds serially inline

  /// Retry policy (DESIGN.md §13): re-attempt a Failed/TimedOut run up to
  /// max_retries times, each attempt at the previous attempt's seed plus
  /// retry_seed_offset (an offset keeps retry randomness disjoint from
  /// every primary seed). A retry seed that would land inside the
  /// campaign's own window [first_seed, first_seed + runs) is hopped past
  /// it deterministically — silently re-running a sibling's seed would
  /// double-count its randomness. The final attempt's outcome stands; a
  /// seed that fails every attempt is quarantined.
  std::size_t max_retries = 0;
  std::uint64_t retry_seed_offset = 1'000'000'007;

  /// Durability (DESIGN.md §13). Non-empty journal_path journals every
  /// outcome as it finishes, one atomic commit per outcome; resume
  /// additionally skips seeds already journaled (the file must carry a
  /// matching {first_seed, runs, k} meta line). Resume with no/damaged
  /// journal file starts fresh.
  std::string journal_path;
  bool resume = false;

  /// Harness self-chaos (DESIGN.md §13): injected failures aimed at the
  /// campaign machinery itself. Deterministic per (plan, seed/commit), so
  /// chaos campaigns stay bit-identical across --jobs and across resumes.
  fault::HarnessFaultPlan harness_faults;
};

/// Run `runner` for seeds first_seed .. first_seed + runs - 1, fanning the
/// seeds across `threads` pool workers. Output is identical for every
/// thread count.
CampaignStats run_campaign(const ScenarioRunner& runner,
                           const CampaignOptions& options);

/// Amortized-state variant: `factory` builds one runner per pool worker
/// (see ScenarioRunnerFactory). The shared-runner overload above is this
/// with a factory returning the same runner for every worker.
CampaignStats run_campaign(const ScenarioRunnerFactory& factory,
                           const CampaignOptions& options);

/// Render a one-line summary.
std::string summarize(const CampaignStats& stats);

/// Render the deterministic sections of CampaignStats as JSON (stable key
/// order, messages escaped). Excludes resumed_from_journal by
/// construction, so a resumed campaign's JSON is byte-identical to an
/// uninterrupted run's — the crash-resume smoke cmp(1)s exactly this.
std::string stats_json(const CampaignStats& stats);

}  // namespace sent::pipeline

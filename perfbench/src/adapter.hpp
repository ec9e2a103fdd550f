// The benchmark's only window into the program.
//
// Every call into src/ lives in adapter.cpp; the rest of the benchmark sees
// the plain types below and never includes a program header. A rename in
// the program's API therefore touches this pair of files and nothing else.
//
// Two ways of running each workload are offered:
//   - the program's own path (pipeline::run_campaign over the program's
//     runner, or one stream::FleetIngest session), timed only at the
//     runner-call / ingest-call boundary: the untraced, end-to-end run;
//   - a rebuild of the same seeded run from the public calls of each layer,
//     with a span around every call: the traced, per-layer run. Its
//     outputs are checked against the program's own path seed by seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace sentbench {

/// How one seeded run ended, as seen from outside the program.
struct RunResult {
  std::uint64_t seed = 0;
  bool completed = false;          ///< the runner returned a report
  bool triggered = false;          ///< some interval holds a bug marker
  std::size_t first_bug_rank = 0;  ///< 1-based; 0 when not triggered
  std::uint64_t ranking_digest = 0;  ///< ranked sample order + score bits

  bool operator==(const RunResult&) const = default;
};

/// One pipeline::run_campaign call.
struct CampaignResult {
  std::string stats_json;   ///< pipeline::stats_json of the campaign
  std::size_t runs = 0;
  std::size_t failed = 0;   ///< failed or timed-out runs (after retries)
  std::size_t retried = 0;  ///< retry attempts (chaos-II only)
  std::size_t triggered = 0;
  std::size_t detected = 0;  ///< triggered runs with first bug rank <= k
  double wall_s = 0.0;
};

/// Counts taken at the layer boundaries of the traced rebuild.
struct LayerCounts {
  std::uint64_t events = 0;         ///< simulation events executed
  std::uint64_t instructions = 0;   ///< recorded instructions simulated
  std::uint64_t trace_bytes = 0;    ///< saved trace text
  std::uint64_t loads = 0;          ///< lenient loads
  std::uint64_t complete_loads = 0;  ///< loads that parsed to the end
  std::uint64_t intervals = 0;
  std::uint64_t fits = 0;           ///< detector score calls
  std::uint64_t rows = 0;           ///< rows scored, summed over fits
  std::uint64_t smo_iterations = 0;
  std::uint64_t support_vectors = 0;
  std::uint64_t fallbacks = 0;      ///< OCSVM TrainingError -> k-NN

  LayerCounts& operator+=(const LayerCounts& o);
};

/// Campaign detection cut-off: a triggered run counts as detected when its
/// first buggy interval ranks within the top kTopK.
inline constexpr std::size_t kTopK = 5;

/// A campaign workload (chaos-II, clean-III or pooled-I) bound to a fixed
/// worker count. Runners are built once per worker and kept across calls,
/// so each worker's world arena stays warm from one campaign to the next.
class Campaign {
 public:
  /// Throws std::invalid_argument for a name that is not a campaign
  /// workload.
  Campaign(const std::string& workload, std::size_t workers);
  ~Campaign();
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// The program's path: one pipeline::run_campaign over seeds
  /// [first_seed, first_seed + runs); chaos-II retries a failed seed under
  /// the program's retry policy. Every runner call's wall time in ms is
  /// appended to `call_ms`; one result per runner call (retries included),
  /// in seed order, to `results` when it is non-null.
  CampaignResult run(std::uint64_t first_seed, std::size_t runs,
                     std::vector<double>& call_ms,
                     std::vector<RunResult>* results);

  /// The traced rebuild of the same campaign: pipeline::run_campaign over
  /// a runner that performs each seeded run through the layers' public
  /// calls, recording spans into `log` (lane 0 for the campaign, lane w+1
  /// for worker w) and counts into `counts`.
  CampaignResult run_traced(std::uint64_t first_seed, std::size_t runs,
                            SpanLog& log, LayerCounts& counts,
                            std::vector<RunResult>& results);

  /// Trace records (lifecycle, instruction and bug) the simulator records
  /// for the analyzed traces of each runner call in `calls`, summed.
  /// Re-simulates the calls' seeds.
  std::uint64_t simulated_records(const std::vector<RunResult>& calls);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// What one fleet ingest session produced.
struct FleetSession {
  double wall_s = 0.0;  ///< first offer until final_report returns
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_failed = 0;  ///< quarantined or rejected
  std::uint64_t records = 0;        ///< records carried by offered frames
  std::uint64_t ticks = 0;
  std::uint64_t samples = 0;
  std::uint64_t full_samples = 0;   ///< first scored in ScoreMode::Full
  std::uint64_t peak_buffered_bytes = 0;
  std::string report;  ///< canonical text of final_report
};

/// The fleet-II workload: `fleets` independent fleets, each `streams`
/// seeded case-II device runs of `virtual_seconds`. A session pushes one
/// fleet through its own stream::FleetIngest, in lockstep over a clean
/// transport; all fleets share one detector pool.
class Fleet {
 public:
  /// Simulates every device run (the workload's inputs); device d of fleet
  /// f runs seed first_seed + f * streams + d.
  Fleet(std::uint64_t first_seed, std::size_t fleets, std::size_t streams,
        double virtual_seconds);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Set-up: encode every trace into frames (trace::encode_trace), build
  /// the detector pool and construct one FleetIngest per fleet.
  /// Repeatable; each call starts from scratch.
  void set_up(std::size_t workers);

  /// One session over fleet `fleet`: construct a FleetIngest (untimed),
  /// then offer one frame per stream per round with a tick() between
  /// rounds, finish_all() and final_report(). Each tick()'s wall ms goes
  /// to `tick_ms`, each round's (offers + tick) to `round_ms`. With a
  /// non-null `log`, every call is a span in lane 0 under a "run" span
  /// carrying `span_id`.
  FleetSession session(std::size_t fleet, std::vector<double>& tick_ms,
                       std::vector<double>& round_ms, SpanLog* log,
                       std::uint64_t span_id);

  /// Canonical text of pipeline::analyze over fleet `fleet`'s traces, with
  /// the options final_report() gets.
  std::string batch_report(std::size_t fleet) const;

  /// Per-device detection in each fleet's ranking (the last session's
  /// final_report of every fleet): devices whose intervals hold a bug
  /// marker, and those whose first buggy interval is among the device's
  /// kTopK most suspicious intervals.
  struct Detection {
    std::size_t devices = 0;
    std::size_t triggered = 0;
    std::size_t detected = 0;
  };
  Detection detection() const;

  std::size_t fleets() const;
  std::size_t streams() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sentbench

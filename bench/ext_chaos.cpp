// Extension E3 — chaos campaign: drive a case study (--case I, II or III;
// default II) through the deterministic fault-injection harness (DESIGN.md
// §9) across a fault-intensity grid and measure how gracefully the whole
// toolchain degrades.
//
// Each seeded run exercises the full ladder: faults perturb the simulated
// hardware and OS while the run records; the recorded trace then makes a
// save -> perturb -> lenient-load round-trip (truncation/corruption salvage)
// before analysis, whose detector may fall back to k-NN on a TrainingError.
// A run that still dies (e.g. the salvaged trace has no intervals) is
// isolated by the campaign as Failed; a livelocked run hits the watchdog
// budget and is TimedOut. The process itself must never abort.
//
// Self-checks, per intensity:
//   * serial vs --jobs campaigns must produce bit-identical CampaignStats
//     (fault schedules are drawn from per-run substreams, so thread count
//     cannot move them);
//   * the clean row (intensity 0) must match a baseline campaign with no
//     fault machinery wired at all — zero-fault plans consume no
//     randomness and salvage-load an unperturbed trace exactly.
//
// Detection-rate / first-rank degradation curves land in BENCH_chaos.json.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/worker_pool.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace sent;

namespace {

// The per-seed ladder (scenario faults + trace save -> perturb -> salvage
// round-trip + analysis fallbacks) lives in the pooled case-runner
// factories (pipeline/worker_pool, DESIGN.md §15): each campaign worker
// amortizes its world/trace allocations across seeds, bit-identically to
// a cold runner built for each seed.

/// Chaos-ladder factory at `intensity` (trace round-trip included).
pipeline::ScenarioRunnerFactory chaos_factory(const std::string& case_name,
                                              double intensity,
                                              std::uint64_t event_budget) {
  pipeline::CaseRunnerConfig config;
  config.intensity = intensity;
  config.event_budget = event_budget;
  config.trace_round_trip = true;
  return pipeline::make_case_runner_factory(case_name, config);
}

/// The unmodified scenario, no fault machinery wired at all (the
/// intensity-0 baseline).
pipeline::ScenarioRunnerFactory clean_factory(const std::string& case_name) {
  return pipeline::make_case_runner_factory(case_name, {});
}

struct GridRow {
  double intensity = 0.0;
  pipeline::CampaignStats stats;
  bool deterministic = false;  ///< serial == parallel
};

bool write_json(const std::string& path, std::size_t jobs,
                std::uint64_t event_budget, bool clean_matches_baseline,
                const std::vector<GridRow>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"jobs\": " << jobs
     << ",\n  \"event_budget\": " << event_budget
     << ",\n  \"clean_matches_baseline\": "
     << (clean_matches_baseline ? "true" : "false")
     << ",\n  \"curve\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GridRow& row = rows[i];
    const pipeline::CampaignStats& s = row.stats;
    os << "    {\"intensity\": " << row.intensity
       << ", \"runs\": " << s.runs << ", \"triggered\": " << s.triggered
       << ", \"detected_top_k\": " << s.detected_top_k
       << ", \"detection_rate\": " << s.detection_rate()
       << ", \"mean_first_rank\": " << s.mean_first_rank()
       << ", \"failed\": " << s.failed << ", \"timed_out\": " << s.timed_out
       << ", \"degraded\": " << s.degraded << ", \"retried\": " << s.retried
       << ", \"deterministic\": " << (row.deterministic ? "true" : "false")
       << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("runs", "seeds per intensity", "12");
  cli.add_flag("top-k", "detection cut-off", "5");
  cli.add_flag("first-seed", "first seed", "1");
  bench::add_jobs_flag(cli, "campaign worker threads");
  cli.add_flag("case", "case study to drive through the ladder (I, II, III)",
               "II");
  cli.add_flag("cycle-budget",
               "watchdog event budget per run, 0 = unlimited",
               "50000000");
  cli.add_flag("faults",
               "extra fault intensity appended to the grid (0 = none)", "0");
  cli.add_flag("retries",
               "bounded retries per Failed/TimedOut seed (offset-seed "
               "schedule, collision-hopping)", "0");
  cli.add_flag("json", "curve output file", "BENCH_chaos.json");
  cli.add_flag("journal",
               "durable mode: journal one campaign at the --faults "
               "intensity to this path (DESIGN.md §13)", "");
  cli.add_switch("resume", "durable mode: skip seeds already journaled");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  const std::string case_name = cli.get("case");
  if (!bench::check_case(case_name, {"I", "II", "III"})) return 2;

  pipeline::CampaignOptions options;
  options.runs = static_cast<std::size_t>(cli.get_positive_int("runs"));
  options.k = static_cast<std::size_t>(cli.get_positive_int("top-k"));
  options.first_seed = static_cast<std::uint64_t>(cli.get_int("first-seed"));
  options.max_retries = static_cast<std::size_t>(cli.get_nonneg_int("retries"));
  const auto event_budget =
      static_cast<std::uint64_t>(cli.get_nonneg_int("cycle-budget"));
  std::size_t jobs = bench::parse_jobs(cli);

  // Durable mode: one journaled chaos campaign at the --faults intensity.
  // The JSON is the deterministic stats_json, so an interrupted-then-
  // resumed chaos campaign can be cmp(1)d against an uninterrupted one.
  if (!cli.get("journal").empty()) {
    const double intensity = cli.get_nonneg_double("faults");
    options.threads = jobs;
    options.journal_path = cli.get("journal");
    options.resume = cli.get_switch("resume");
    bench::section("Extension E3 (durable): journaled chaos campaign");
    std::printf("case %s, intensity %g, %zu seeds, --jobs %zu, journal "
                "%s%s\n",
                case_name.c_str(), intensity, options.runs, jobs,
                options.journal_path.c_str(),
                options.resume ? " (resume)" : "");
    pipeline::CampaignStats stats = pipeline::run_campaign(
        chaos_factory(case_name, intensity, event_budget), options);
    std::printf("%s\n", pipeline::summarize(stats).c_str());
    std::ofstream os(cli.get("json"));
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", cli.get("json").c_str());
      return 1;
    }
    os << pipeline::stats_json(stats);
    std::printf("deterministic stats written to %s\n",
                cli.get("json").c_str());
    return 0;
  }

  bench::section("Extension E3: chaos campaign (fault-intensity grid)");
  std::printf("case %s, %zu seeds per intensity, top-%zu, "
              "--jobs %zu, event budget %llu\n\n",
              case_name.c_str(), options.runs, options.k, jobs,
              static_cast<unsigned long long>(event_budget));

  // Baseline: the unmodified scenario, no fault machinery wired at all.
  // The intensity-0 chaos row must reproduce it exactly (same rankings as
  // the seed Fig. 5 campaigns).
  pipeline::CampaignStats baseline;
  {
    pipeline::CampaignOptions opts = options;
    opts.threads = jobs;
    baseline = pipeline::run_campaign(clean_factory(case_name), opts);
    std::printf("baseline (no fault harness):  %s\n",
                pipeline::summarize(baseline).c_str());
  }

  // 4.0 is deliberately past the salvageable regime: some seeds land in
  // Failed/TimedOut there, exercising the isolation paths on every run.
  std::vector<double> grid = {0.0, 0.25, 0.5, 1.0, 4.0};
  if (double extra = cli.get_nonneg_double("faults"); extra > 0.0)
    grid.push_back(extra);
  std::vector<GridRow> rows;
  bool all_deterministic = true;
  bool clean_matches_baseline = false;

  for (double intensity : grid) {
    pipeline::ScenarioRunnerFactory factory =
        chaos_factory(case_name, intensity, event_budget);

    pipeline::CampaignOptions serial_opts = options;
    serial_opts.threads = 1;
    pipeline::CampaignStats serial =
        pipeline::run_campaign(factory, serial_opts);

    pipeline::CampaignOptions parallel_opts = options;
    parallel_opts.threads = jobs;
    pipeline::CampaignStats parallel =
        pipeline::run_campaign(factory, parallel_opts);

    GridRow row;
    row.intensity = intensity;
    row.stats = serial;
    row.deterministic = serial == parallel;
    all_deterministic = all_deterministic && row.deterministic;
    if (intensity == 0.0) clean_matches_baseline = serial == baseline;

    std::printf("intensity %-4g                %s%s\n", intensity,
                pipeline::summarize(serial).c_str(),
                row.deterministic ? "" : "  !! NONDETERMINISTIC");
    rows.push_back(std::move(row));
  }

  std::printf("\nclean row reproduces baseline: %s\n",
              clean_matches_baseline ? "yes" : "NO");
  std::printf("serial == --jobs %zu at every intensity: %s\n", jobs,
              all_deterministic ? "yes" : "NO");

  // The curves the bench exists for: detection should degrade smoothly
  // with intensity while failed/timed_out absorb the runs that cannot be
  // analyzed, rather than the process dying.
  std::printf("\n%-10s %-10s %-15s %-8s %-9s %-9s\n", "intensity",
              "detect", "mean-1st-rank", "failed", "timed-out", "degraded");
  for (const GridRow& row : rows)
    std::printf("%-10g %-10.2f %-15.2f %-8zu %-9zu %-9zu\n", row.intensity,
                row.stats.detection_rate(), row.stats.mean_first_rank(),
                row.stats.failed, row.stats.timed_out, row.stats.degraded);

  if (write_json(cli.get("json"), jobs, event_budget, clean_matches_baseline,
                 rows))
    std::printf("\ncurves written to %s\n", cli.get("json").c_str());

  return (all_deterministic && clean_matches_baseline) ? 0 : 1;
}

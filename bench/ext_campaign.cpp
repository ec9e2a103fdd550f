// Extension E2 — randomized test campaigns: quantify how TRANSIENT each
// case-study bug is (trigger rate across seeds) versus how reliably
// Sentomist surfaces it when it does fire (top-k detection rate).
//
// Grid mode (default): each case runs serially and fanned out over --jobs
// pool workers — both to measure the multi-core speedup and to check,
// every time, that parallel campaigns produce bit-identical CampaignStats.
// Timing is warmup + median-of---reps, so the speedup claims in
// BENCH_campaign.json are stable.
//
// Scale mode (--scale N): one N-run chaos campaign (the amortized campaign
// engine's headline, DESIGN.md §15) through two legs — serial and --jobs —
// asserting CampaignStats AND merged obs snapshots are bit-identical
// across both (and that the serial leg's snapshot really counted N runs),
// and reporting speedup / efficiency against min(jobs, hardware_threads).
// --min-efficiency gates it for CI; --stats-out writes cmp(1)-able
// stats_json files for the serial and parallel legs.
//
// Both modes enable the obs registry and attribute every leg's time with
// a phase table built from its obs timer deltas (DESIGN.md §11): ms/run
// in setup (the run_caseN scope minus the event loop), simulate (the
// event loop), trace round trip, analyze, and the residual of the
// campaign.run scope, so the rows sum to it.
//
// Durable mode (DESIGN.md §13): with --journal PATH the driver instead
// runs ONE campaign of the case picked by --case, journaling every
// outcome; --resume skips already-journaled seeds, --retries bounds the
// retry policy, and --kill-after N SIGKILLs the process after N journal
// appends (the crash-resume smoke in scripts/tier1.sh). The --json output
// in this mode is the deterministic stats_json, so a killed-then-resumed
// campaign's file cmp(1)s byte-identical against an uninterrupted run's.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/worker_pool.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace sent;

namespace {

/// One leg's wall time per phase, summed over its timed campaigns from
/// obs timer deltas. The runner's scopes nest inside `campaign.run`
/// without overlapping, so every row is >= 0 and the rows sum to it; a
/// negative row means overlapping or double-counted scopes.
struct PhaseTable {
  using Row = std::pair<const char*, std::int64_t>;  ///< name, wall ns

  std::uint64_t runs = 0;          ///< campaign.run scopes
  std::int64_t run_ns = 0;         ///< campaign.run
  std::int64_t run_case_ns = 0;    ///< the runner's apps.run_caseN scope
  std::int64_t simulate_ns = 0;    ///< sim.run_until, nested in run_caseN
  std::int64_t round_trip_ns = 0;  ///< trace.round_trip
  std::int64_t analyze_ns = 0;     ///< pipeline.analyze

  /// Add one campaign's timer growth between two registry snapshots.
  void add(const obs::Snapshot& before, const obs::Snapshot& after,
           const std::string& case_name) {
    auto timer = [](const obs::Snapshot& snap, const char* name) {
      const obs::HistogramData* h = snap.timer_data(name);
      return h ? *h : obs::HistogramData{};
    };
    auto delta_ns = [&](const char* name) {
      return static_cast<std::int64_t>(timer(after, name).sum -
                                       timer(before, name).sum);
    };
    runs += timer(after, "campaign.run").count -
            timer(before, "campaign.run").count;
    run_ns += delta_ns("campaign.run");
    run_case_ns += delta_ns(case_name == "I"    ? "apps.run_case1"
                            : case_name == "II" ? "apps.run_case2"
                                                : "apps.run_case3");
    simulate_ns += delta_ns("sim.run_until");
    round_trip_ns += delta_ns("trace.round_trip");
    analyze_ns += delta_ns("pipeline.analyze");
  }

  /// The table's rows, residual last; they sum to run_ns.
  std::array<Row, 5> rows() const {
    return {{{"setup", run_case_ns - simulate_ns},
             {"simulate", simulate_ns},
             {"trace_round_trip", round_trip_ns},
             {"analyze", analyze_ns},
             {"residual",
              run_ns - run_case_ns - round_trip_ns - analyze_ns}}};
  }

  double ms_per_run(std::int64_t ns) const {
    return runs ? static_cast<double>(ns) * 1e-6 / static_cast<double>(runs)
                : 0.0;
  }

  void print(const char* label) const {
    std::printf("  %-10s", label);
    const char* sep = "";
    for (const auto& [name, ns] : rows()) {
      std::printf("%s %s %.3f", sep, name, ms_per_run(ns));
      sep = ",";
    }
    std::printf(" = run %.3f ms/run (%llu runs)\n", ms_per_run(run_ns),
                static_cast<unsigned long long>(runs));
  }

  void write_json(std::ofstream& os) const {
    os << "{\"runs\": " << runs
       << ", \"run_ms_per_run\": " << ms_per_run(run_ns);
    for (const auto& [name, ns] : rows())
      os << ", \"" << name << "_ms_per_run\": " << ms_per_run(ns);
    os << "}";
  }
};

/// One timed configuration: wall seconds per campaign and its phase table.
struct Leg {
  std::vector<double> secs;
  PhaseTable phases;

  double seconds() const { return util::median(secs); }
};

/// One timed campaign of `leg`, adding its wall clock and obs timer
/// deltas.
pipeline::CampaignStats run_timed(
    const pipeline::ScenarioRunnerFactory& factory,
    const pipeline::CampaignOptions& options, const std::string& case_name,
    Leg& leg) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  pipeline::CampaignStats stats = pipeline::run_campaign(factory, options);
  leg.secs.push_back(bench::seconds_since(t0));
  leg.phases.add(before, obs::Registry::global().snapshot(), case_name);
  return stats;
}

/// Durable-mode entry: one journaled (optionally resumed) campaign.
/// `options` carries the journal, resume, retry and kill settings.
int run_durable(const util::Cli& cli, pipeline::CampaignOptions options,
                std::size_t jobs) {
  const std::string case_name = cli.get("case");
  if (case_name == "all") {
    std::fprintf(stderr,
                 "durable mode journals ONE campaign: pick --case I, II or "
                 "III\n");
    return 2;
  }

  options.threads = jobs;

  bench::section("Extension E2 (durable): journaled campaign");
  std::printf("case %s, %zu seeds, --jobs %zu, journal %s%s\n",
              case_name.c_str(), options.runs, jobs,
              options.journal_path.c_str(),
              options.resume ? " (resume)" : "");

  pipeline::CampaignStats stats = pipeline::run_campaign(
      pipeline::make_case_runner_factory(case_name, {}), options);
  std::printf("case %s: %s\n", case_name.c_str(),
              pipeline::summarize(stats).c_str());

  const std::string json_path = cli.get("json");
  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  os << pipeline::stats_json(stats);
  std::printf("deterministic stats written to %s\n", json_path.c_str());
  return 0;
}

struct CaseTiming {
  std::string name;
  std::size_t runs = 0;
  std::size_t reps = 0;
  Leg serial;
  Leg parallel;
  bool identical = false;

  double speedup() const {
    const double p = parallel.seconds();
    return p > 0.0 ? serial.seconds() / p : 0.0;
  }
};

/// Warmup (untimed, pages code and pool workers in), then `reps` timed
/// campaigns serial and parallel; medians land in the timing, every rep's
/// stats must stay bit-identical to the first serial rep.
CaseTiming run_both(const std::string& name, const char* printf_label,
                    const std::string& case_name,
                    pipeline::CampaignOptions options, std::size_t jobs,
                    std::size_t reps, std::size_t warmup_runs) {
  CaseTiming timing;
  timing.name = name;
  timing.runs = options.runs;
  timing.reps = reps;

  const pipeline::ScenarioRunnerFactory factory =
      pipeline::make_case_runner_factory(case_name, {});

  if (warmup_runs > 0) {
    pipeline::CampaignOptions w = options;
    w.runs = std::min(options.runs, warmup_runs);
    w.threads = jobs;
    (void)pipeline::run_campaign(factory, w);
  }

  pipeline::CampaignStats first;
  bool identical = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    options.threads = 1;
    pipeline::CampaignStats serial =
        run_timed(factory, options, case_name, timing.serial);
    options.threads = jobs;
    pipeline::CampaignStats parallel =
        run_timed(factory, options, case_name, timing.parallel);

    if (rep == 0) first = serial;
    identical = identical && serial == first && parallel == first;
  }

  timing.identical = identical;
  std::printf("%s %s\n", printf_label, pipeline::summarize(first).c_str());
  timing.serial.phases.print("serial:");
  timing.parallel.phases.print("parallel:");
  if (!timing.identical)
    std::printf("  !! parallel (--jobs %zu) stats DIVERGED from serial\n",
                jobs);
  return timing;
}

bool write_json(const std::string& path, std::size_t jobs,
                const std::vector<CaseTiming>& timings) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t hw = util::ThreadPool::hardware_threads();
  double serial_total = 0.0, parallel_total = 0.0;
  os << "{\n  \"jobs\": " << jobs << ",\n  \"hardware_threads\": " << hw
     << ",\n  \"effective_jobs\": " << std::min(jobs, hw)
     << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CaseTiming& t = timings[i];
    serial_total += t.serial.seconds();
    parallel_total += t.parallel.seconds();
    os << "    {\"name\": \"" << t.name << "\", \"runs\": " << t.runs
       << ", \"reps\": " << t.reps
       << ", \"serial_seconds\": " << t.serial.seconds()
       << ", \"parallel_seconds\": " << t.parallel.seconds()
       << ", \"speedup\": " << t.speedup()
       << ", \"identical\": " << (t.identical ? "true" : "false")
       << ",\n     \"serial_phases\": ";
    t.serial.phases.write_json(os);
    os << ",\n     \"parallel_phases\": ";
    t.parallel.phases.write_json(os);
    os << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  double speedup =
      parallel_total > 0.0 ? serial_total / parallel_total : 0.0;
  os << "  ],\n  \"total_serial_seconds\": " << serial_total
     << ",\n  \"total_parallel_seconds\": " << parallel_total
     << ",\n  \"speedup\": " << speedup << "\n}\n";
  return true;
}

// ---- scale mode -----------------------------------------------------------

/// One timed configuration (campaign options at one --jobs). Reps are
/// driven round-robin across both legs by the caller, so slow machine
/// drift (page cache, allocator arena growth, frequency scaling) lands
/// evenly on each leg instead of favoring whichever leg runs last —
/// back-to-back leg blocks were measurably biased by leg order.
struct ScaleLeg {
  pipeline::CampaignOptions options;
  Leg timed;
  pipeline::CampaignStats stats;
  obs::Snapshot snapshot;
  double seconds = 0.0;  ///< median over reps

  explicit ScaleLeg(const pipeline::CampaignOptions& options)
      : options(options) {}
};

/// One timed campaign of `leg`; stats from the last rep (all reps are
/// bit-identical or the campaign itself is broken — checked by the caller
/// against the serial leg). The obs registry is reset before each rep so
/// the final snapshot covers exactly one campaign.
void run_scale_rep(const std::string& case_name,
                   const pipeline::CaseRunnerConfig& config, ScaleLeg& leg) {
  obs::Registry::global().reset();
  leg.stats =
      run_timed(pipeline::make_case_runner_factory(case_name, config),
                leg.options, case_name, leg.timed);
  leg.snapshot = obs::Registry::global().snapshot();
}

/// `options.runs` is the --scale run count; `config` the chaos runner.
int run_scale(const util::Cli& cli, pipeline::CampaignOptions options,
              const pipeline::CaseRunnerConfig& config, std::size_t jobs,
              std::size_t reps, double min_efficiency) {
  const std::string case_name =
      cli.get("case") == "all" ? std::string("II") : cli.get("case");

  bench::section("Extension E2 (scale): amortized chaos campaign");
  const std::size_t hw = util::ThreadPool::hardware_threads();
  const std::size_t effective = std::min(jobs, hw);
  std::printf("case %s, %zu runs, intensity %g, --jobs %zu "
              "(%zu hardware threads -> %zu effective), %zu rep(s)\n\n",
              case_name.c_str(), options.runs, config.intensity, jobs, hw,
              effective, reps);

  // Warmup: one small campaign pages in code and pool workers.
  {
    pipeline::CampaignOptions w = options;
    w.runs = std::min<std::size_t>(options.runs, 8);
    w.threads = jobs;
    (void)pipeline::run_campaign(
        pipeline::make_case_runner_factory(case_name, config), w);
  }

  pipeline::CampaignOptions serial_opts = options;
  serial_opts.threads = 1;
  pipeline::CampaignOptions parallel_opts = options;
  parallel_opts.threads = jobs;

  ScaleLeg serial(serial_opts);
  ScaleLeg parallel(parallel_opts);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    run_scale_rep(case_name, config, serial);
    run_scale_rep(case_name, config, parallel);
  }
  for (ScaleLeg* leg : {&serial, &parallel})
    leg->seconds = leg->timed.seconds();

  std::printf("serial:     %.2fs  %s\n", serial.seconds,
              pipeline::summarize(serial.stats).c_str());
  serial.timed.phases.print("phases:");
  std::printf("--jobs %zu:  %.2fs\n", jobs, parallel.seconds);
  parallel.timed.phases.print("phases:");

  const bool stats_identical = serial.stats == parallel.stats;
  // Equal snapshots only prove something if they recorded the campaign.
  const std::uint64_t recorded_runs =
      serial.snapshot.counter_value("campaign.runs");
  const bool obs_identical =
      recorded_runs == options.runs &&
      serial.snapshot.deterministic_equal(parallel.snapshot);
  const double speedup = parallel.seconds > 0.0
                             ? serial.seconds / parallel.seconds
                             : 0.0;
  const double efficiency =
      effective > 0 ? speedup / static_cast<double>(effective) : 0.0;

  std::printf("\nstats bit-identical (serial == parallel): %s\n",
              stats_identical ? "yes" : "NO");
  std::printf("obs snapshots bit-identical:              %s "
              "(campaign.runs %llu of %zu)\n",
              obs_identical ? "yes" : "NO",
              static_cast<unsigned long long>(recorded_runs), options.runs);
  std::printf("speedup %.2fx over serial at --jobs %zu; efficiency %.2f "
              "of %zu effective core(s)\n",
              speedup, jobs, efficiency, effective);

  // cmp(1)-able stats for the tier-1 scaling gate.
  const std::string stats_out = cli.get("stats-out");
  if (!stats_out.empty()) {
    for (const auto& [suffix, leg] :
         {std::pair<const char*, const ScaleLeg*>{"serial", &serial},
          {"parallel", &parallel}}) {
      std::string path = stats_out + "." + suffix + ".json";
      std::ofstream os(path);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      os << pipeline::stats_json(leg->stats);
    }
    std::printf("stats written to %s.{serial,parallel}.json\n",
                stats_out.c_str());
  }

  std::ofstream os(cli.get("json"));
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", cli.get("json").c_str());
    return 1;
  }
  os << "{\n  \"mode\": \"scale\",\n  \"case\": \"" << case_name
     << "\",\n  \"runs\": " << options.runs << ",\n  \"reps\": " << reps
     << ",\n  \"intensity\": " << config.intensity
     << ",\n  \"jobs\": " << jobs
     << ",\n  \"hardware_threads\": " << hw
     << ",\n  \"effective_jobs\": " << effective
     << ",\n  \"serial_seconds\": " << serial.seconds
     << ",\n  \"parallel_seconds\": " << parallel.seconds
     << ",\n  \"speedup\": " << speedup
     << ",\n  \"efficiency\": " << efficiency
     << ",\n  \"stats_identical\": "
     << (stats_identical ? "true" : "false")
     << ",\n  \"obs_identical\": " << (obs_identical ? "true" : "false")
     << ",\n  \"serial_phases\": ";
  serial.timed.phases.write_json(os);
  os << ",\n  \"parallel_phases\": ";
  parallel.timed.phases.write_json(os);
  os << ",\n  \"triggered\": " << serial.stats.triggered
     << ",\n  \"failed\": " << serial.stats.failed
     << ",\n  \"timed_out\": " << serial.stats.timed_out << "\n}\n";
  std::printf("timing written to %s\n", cli.get("json").c_str());

  if (!stats_identical || !obs_identical) return 1;
  if (min_efficiency > 0.0 && efficiency < min_efficiency) {
    std::fprintf(stderr,
                 "FAIL: efficiency %.2f below --min-efficiency %.2f\n",
                 efficiency, min_efficiency);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("runs", "seeds per case", "20");
  cli.add_flag("top-k", "detection cut-off", "5");
  cli.add_flag("first-seed", "first seed", "1");
  bench::add_jobs_flag(cli, "campaign worker threads");
  cli.add_flag("reps", "timed repetitions per leg (median reported)", "3");
  cli.add_flag("warmup", "untimed warmup seeds before timing, 0 = none",
               "4");
  cli.add_flag("scale",
               "scale mode: run ONE chaos campaign of this many seeds "
               "through serial and parallel legs (0 = off)", "0");
  cli.add_flag("faults", "scale mode: fault intensity", "0.5");
  cli.add_flag("cycle-budget",
               "scale mode: watchdog event budget per run, 0 = unlimited",
               "50000000");
  cli.add_flag("min-efficiency",
               "scale mode: fail below this speedup / effective-cores "
               "ratio (0 = report only)", "0");
  cli.add_flag("stats-out",
               "scale mode: write cmp-able stats_json to "
               "PREFIX.{serial,parallel}.json", "");
  cli.add_flag("json", "timing output file", "BENCH_campaign.json");
  cli.add_flag("journal", "durable mode: run journal path (DESIGN.md §13)",
               "");
  cli.add_switch("resume", "durable mode: skip seeds already journaled");
  cli.add_flag("retries", "durable mode: bounded retries per failed seed",
               "0");
  cli.add_flag("kill-after",
               "durable mode: SIGKILL self after N journal appends "
               "(crash-resume smoke)", "0");
  cli.add_flag("case",
               "case study to run: I, II, III, or all (durable mode needs "
               "a single case)", "all");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  const std::string case_name = cli.get("case");
  if (!bench::check_case(case_name, {"I", "II", "III", "all"})) return 2;

  // Every flag is read before the mode is chosen, so a bad value is a
  // usage error in every mode, not only in the one that uses it.
  pipeline::CampaignOptions options;
  options.runs = static_cast<std::size_t>(cli.get_positive_int("runs"));
  options.k = static_cast<std::size_t>(cli.get_positive_int("top-k"));
  options.first_seed = static_cast<std::uint64_t>(cli.get_int("first-seed"));
  pipeline::CampaignOptions durable = options;
  durable.journal_path = cli.get("journal");
  durable.resume = cli.get_switch("resume");
  durable.max_retries =
      static_cast<std::size_t>(cli.get_nonneg_int("retries"));
  durable.harness_faults.kill_after_appends =
      static_cast<std::uint64_t>(cli.get_nonneg_int("kill-after"));
  std::size_t jobs = bench::parse_jobs(cli);
  const auto reps = static_cast<std::size_t>(cli.get_positive_int("reps"));
  const auto warmup = static_cast<std::size_t>(cli.get_nonneg_int("warmup"));
  const auto scale = static_cast<std::size_t>(cli.get_nonneg_int("scale"));
  pipeline::CaseRunnerConfig chaos;
  chaos.intensity = cli.get_nonneg_double("faults");
  chaos.event_budget =
      static_cast<std::uint64_t>(cli.get_nonneg_int("cycle-budget"));
  chaos.trace_round_trip = chaos.intensity > 0.0;
  const double min_efficiency = cli.get_nonneg_double("min-efficiency");

  if (!durable.journal_path.empty()) return run_durable(cli, durable, jobs);
  // The timed legs' phase tables read the registry's timers.
  obs::Registry::global().set_enabled(true);
  if (scale > 0) {
    options.runs = scale;
    return run_scale(cli, options, chaos, jobs, reps, min_efficiency);
  }

  bench::section("Extension E2: randomized campaigns (trigger vs detect)");
  std::printf("jobs: %zu, %zu timed rep(s) per leg (median), warmup %zu "
              "seeds\n\n",
              jobs, reps, warmup);
  std::vector<CaseTiming> timings;
  const bool all = case_name == "all";

  if (all || case_name == "I")
    timings.push_back(run_both("case I (D=20ms, 10s)",
                               "case I  (D=20ms, 10s): ", "I", options, jobs,
                               reps, warmup));

  if (all || case_name == "II")
    timings.push_back(run_both("case II (20s)", "case II (20s):         ",
                               "II", options, jobs, reps, warmup));

  if (all || case_name == "III")
    timings.push_back(run_both("case III (9 nodes, 15s)",
                               "case III (9 nodes, 15s):", "III", options,
                               jobs, reps, warmup));

  double serial_total = 0.0, parallel_total = 0.0;
  bool all_identical = true;
  for (const CaseTiming& t : timings) {
    serial_total += t.serial.seconds();
    parallel_total += t.parallel.seconds();
    all_identical = all_identical && t.identical;
  }
  std::printf(
      "\nwall-clock medians: serial %.2fs, --jobs %zu %.2fs (speedup "
      "%.2fx); stats %s\n",
      serial_total, jobs, parallel_total,
      parallel_total > 0.0 ? serial_total / parallel_total : 0.0,
      all_identical ? "identical" : "DIVERGED");

  if (write_json(cli.get("json"), jobs, timings))
    std::printf("timing written to %s\n", cli.get("json").c_str());

  std::printf(
      "\nTrigger rate is a property of the workload (the bug's transience);"
      "\ndetection rate is the tool's contribution once a trace contains "
      "the symptom.\n");
  return all_identical ? 0 : 1;
}

// Figure 5(a) — Case study I: data pollution in a single-hop data
// collection WSN (paper §VI-B).
//
// Five testing runs with sampling period D = 20, 40, 60, 80, 100 ms, 10 s
// each. The ADC event-handling intervals of all runs are pooled (~1100
// samples, the paper reports 1099), featured as instruction counters, and
// ranked by the one-class SVM. The paper's result: the top-ranked
// instances (all from run 1, e.g. [1, 76], [1, 176], ...) contain the
// data-pollution symptoms.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_flag("run-seconds", "virtual seconds per testing run", "10");
  cli.add_flag("rows", "ranking rows to print from the top", "7");
  cli.add_switch("fixed", "run the repaired (double-buffered) variant");
  cli.add_switch("csv", "also dump the full ranking as CSV");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  apps::Case1Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.run_seconds = cli.get_duration("run-seconds", sim::kCyclesPerSecond);
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.osc.mutation = apps::OscMutation::None;

  bench::section("Case study I: data pollution (Figure 5a)");
  std::printf("testing runs: D = 20, 40, 60, 80, 100 ms; %g s each; seed %llu%s\n",
              config.run_seconds,
              static_cast<unsigned long long>(config.seed),
              fixed ? "; FIXED variant" : "");

  apps::Case1Result result = apps::run_case1(config);

  // In-text quantities (§VI-B): samples per run and trace sizes.
  util::Table runs_table({"run", "D (ms)", "ADC intervals", "packets sent",
                          "sink received", "pollutions (truth)",
                          "lifecycle items", "instr executed"});
  for (std::size_t r = 0; r < result.runs.size(); ++r) {
    const auto& run = result.runs[r];
    runs_table.add_row(
        {util::cell(r + 1), util::cell(run.sample_period_ms, 0),
         util::cell(run.readings), util::cell(run.packets_sent),
         util::cell(run.sink_received), util::cell(run.pollutions),
         util::cell(run.sensor_trace.lifecycle.size()),
         util::cell(run.sensor_trace.executed())});
  }
  std::fputs(runs_table.render().c_str(), stdout);

  const apps::Analysis analyzed = apps::analysis_of(result);
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line);

  bench::section("Ranking (ascending score; index = [run, instance])");
  std::fputs(format_ranking_table(report, /*with_run=*/true,
                                  /*with_node=*/false,
                                  static_cast<std::size_t>(
                                      cli.get_nonneg_int("rows")),
                                  2)
                 .c_str(),
             stdout);

  bench::section("Detection quality");
  bench::print_quality(report);
  std::printf("total pollutions (ground truth):    %llu\n",
              static_cast<unsigned long long>(result.total_pollutions()));

  if (cli.get_switch("csv")) {
    util::Table csv({"rank", "run", "instance", "score", "bug"});
    for (std::size_t pos = 0; pos < report.ranking.size(); ++pos) {
      const auto& e = report.ranking[pos];
      const auto& s = report.samples[e.sample_index];
      csv.add_row({util::cell(pos + 1), util::cell(s.run + 1),
                   util::cell(s.interval.seq_in_type + 1),
                   util::cell(e.score, 6), s.has_bug ? "1" : "0"});
    }
    std::fputs(csv.to_csv().c_str(), stdout);
  }
  return 0;
}

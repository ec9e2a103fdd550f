// Figure 5(b) — Case study II: packet loss in a multi-hop data forwarding
// WSN (paper §VI-C).
//
// Three nodes: 0 (sink) <- 1 (relay) <- 2 (source). The source injects
// packets with randomized spacing for 20 s; the relay's SPI packet-arrival
// event procedure forwards each packet and ACTIVELY DROPS it when the
// radio's busy flag is set. The paper reports 195 intervals, of which
// exactly 3 contain the bug symptom — ranked as the top three.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "pipeline/inspect.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "3");
  cli.add_flag("run-seconds", "virtual run length", "20");
  cli.add_flag("mean-interval-ms", "mean packet spacing at the source",
               "100");
  cli.add_flag("rows", "ranking rows to print from the top", "7");
  cli.add_switch("fixed", "run the repaired (queue-and-pump) variant");
  cli.add_switch("csv", "also dump the full ranking as CSV");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  apps::Case2Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.run_seconds = cli.get_duration("run-seconds", sim::kCyclesPerSecond);
  config.mean_interval_ms = cli.get_duration("mean-interval-ms",
                                             sim::kCyclesPerSecond, 1e3);
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.relay_mutation = apps::RelayMutation::None;

  bench::section("Case study II: busy-flag packet drop (Figure 5b)");
  std::printf(
      "3-node chain 0 (sink) - 1 (relay) - 2 (source); %g s; mean spacing "
      "%g ms; seed %llu%s\n",
      config.run_seconds, config.mean_interval_ms,
      static_cast<unsigned long long>(config.seed),
      fixed ? "; FIXED variant" : "");

  apps::Case2Result result = apps::run_case2(config);

  util::Table stats({"source sent", "relay arrivals", "forwarded",
                     "actively dropped (busy)", "sink received"});
  stats.add_row({util::cell(result.source_sent),
                 util::cell(result.relay_received),
                 util::cell(result.relay_forwarded),
                 util::cell(result.relay_dropped_busy),
                 util::cell(result.sink_received)});
  std::fputs(stats.render().c_str(), stdout);

  const apps::Analysis analyzed = apps::analysis_of(result);
  pipeline::AnalysisOptions options;
  options.keep_features = true;  // for the rank-1 inspection rendering
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line, options);

  bench::section("Ranking (ascending score; index = packet arrival #)");
  std::fputs(format_ranking_table(report, /*with_run=*/false,
                                  /*with_node=*/false,
                                  static_cast<std::size_t>(
                                      cli.get_nonneg_int("rows")),
                                  2)
                 .c_str(),
             stdout);

  bench::section("Detection quality");
  bench::print_quality(report);

  bench::section("Manual inspection of the top-ranked interval");
  std::fputs(pipeline::render_interval_detail(result.relay_trace, report,
                                              /*rank_position=*/0,
                                              /*max_timeline_rows=*/14)
                 .c_str(),
             stdout);

  if (cli.get_switch("csv")) {
    util::Table csv({"rank", "instance", "score", "bug"});
    for (std::size_t pos = 0; pos < report.ranking.size(); ++pos) {
      const auto& e = report.ranking[pos];
      const auto& s = report.samples[e.sample_index];
      csv.add_row({util::cell(pos + 1),
                   util::cell(s.interval.seq_in_type + 1),
                   util::cell(e.score, 6), s.has_bug ? "1" : "0"});
    }
    std::fputs(csv.to_csv().c_str(), stdout);
  }
  return 0;
}

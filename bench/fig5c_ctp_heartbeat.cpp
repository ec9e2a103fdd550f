// Figure 5(c) — Case study III: unhandled failure caused by two
// co-existing WSN protocols (paper §VI-D).
//
// Nine nodes (3x3 grid, node 0 = CTP root); four randomly-selected source
// nodes report readings over CTP during random event intervals; every node
// broadcasts a heartbeat each 500 ms. When CTP's sendTask calls the radio
// while the chip is busy with a heartbeat/beacon, the returned FAIL is
// unhandled: the `sending` mark is never reset and CTP hangs. The paper
// pools 95 report-timer intervals from the 4 sources and finds the bug
// symptom at rank 4 (after three false alarms), indexed [node, instance].
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_flag("run-seconds", "virtual run length", "15");
  cli.add_flag("rows", "ranking rows to print from the top", "7");
  cli.add_switch("fixed", "run the repaired (FAIL-handled) variant");
  cli.add_switch("csv", "also dump the full ranking as CSV");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  apps::Case3Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.run_seconds = cli.get_duration("run-seconds", sim::kCyclesPerSecond);
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.app.mutation = apps::CtpMutation::None;

  bench::section("Case study III: CTP + heartbeat contention (Figure 5c)");
  std::printf("9 nodes (3x3 grid), root = 0; %g s; seed %llu%s\n",
              config.run_seconds,
              static_cast<unsigned long long>(config.seed),
              fixed ? "; FIXED variant" : "");

  apps::Case3Result result = apps::run_case3(config);

  std::printf("sources: ");
  for (auto s : result.sources) std::printf("%u ", s);
  std::printf("\n");

  util::Table stats({"node", "role", "reports", "heartbeats", "send FAILs",
                     "CTP hung (truth)"});
  for (const auto& s : result.stats) {
    std::string role = s.id == 0 ? "root" : (s.is_source ? "source" : "relay");
    stats.add_row({util::cell(std::size_t(s.id)), role,
                   util::cell(s.reports), util::cell(s.heartbeats_sent),
                   util::cell(s.send_fails), s.hung ? "YES" : ""});
  }
  std::fputs(stats.render().c_str(), stdout);
  std::printf("packets delivered to root: %llu\n",
              static_cast<unsigned long long>(result.delivered_to_root));

  const apps::Analysis analyzed = apps::analysis_of(result);
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line);

  bench::section("Ranking (ascending score; index = [node, instance])");
  std::fputs(format_ranking_table(report, /*with_run=*/false,
                                  /*with_node=*/true,
                                  static_cast<std::size_t>(
                                      cli.get_nonneg_int("rows")),
                                  2)
                 .c_str(),
             stdout);

  bench::section("Detection quality");
  bench::print_quality(report);
  std::printf("hung nodes (ground truth):          %zu\n",
              result.hung_nodes());

  // A hang whose failing sendTask was posted by the SPI event procedure
  // (forwarding pump) manifests in SPI intervals, not report-timer ones;
  // the paper's workflow anatomizes each event type in turn, so do the
  // same for the radio event type across ALL nodes.
  bench::section(
      "Second event type: SPI (radio) intervals across all nodes");
  std::vector<pipeline::TaggedTrace> all_traces;
  for (const auto& t : result.traces) all_traces.push_back({&t, 0});
  pipeline::AnalysisReport spi_report =
      pipeline::analyze(all_traces, os::irq::kRadioSpi);
  bench::print_quality(spi_report);

  if (cli.get_switch("csv")) {
    util::Table csv({"rank", "node", "instance", "score", "bug"});
    for (std::size_t pos = 0; pos < report.ranking.size(); ++pos) {
      const auto& e = report.ranking[pos];
      const auto& s = report.samples[e.sample_index];
      csv.add_row({util::cell(pos + 1), util::cell(std::size_t(s.node_id)),
                   util::cell(s.interval.seq_in_type + 1),
                   util::cell(e.score, 6), s.has_bug ? "1" : "0"});
    }
    std::fputs(csv.to_csv().c_str(), stdout);
  }
  return 0;
}

// Extension E3 — Dustminer-style baseline comparison (paper §II).
//
// Dustminer mines discriminative function-level event patterns between a
// labelled good-behaviour log and a labelled bad-behaviour log. Two
// results fall out of running it on our case studies:
//   1. WITH perfect (ground-truth) labels it names the right code on
//      case I — but on case II it finds nothing, because the drop path is
//      inside one function and function-level sequences cannot see it
//      (the same granularity argument as ablation A2);
//   2. its accuracy decays as labels get noisier, quantifying the cost of
//      the manual labelling Sentomist does not need.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "core/anatomizer.hpp"
#include "ml/dustminer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace sent;

namespace {

struct LabeledCase {
  std::vector<std::vector<std::uint32_t>> sequences;
  std::vector<bool> truth;  // ground-truth bad labels
  std::vector<std::string> names;
};

/// The case's analyzed trace at `seed`, cut into code-object sequences
/// per interval and labelled from its bug markers.
LabeledCase build_case(const apps::Scenario& scenario, std::uint64_t seed) {
  const apps::Simulation sim = apps::simulate(scenario, seed);
  const trace::NodeTrace& t = *sim.analyzed.traces.front().trace;
  core::Anatomizer anatomizer(t);
  auto intervals = anatomizer.intervals_for(sim.analyzed.line);
  LabeledCase c;
  c.sequences = ml::code_object_sequences(t, intervals, &c.names);
  for (const auto& interval : intervals) {
    bool bad = false;
    for (const auto& bug : t.bugs)
      bad |= bug.cycle >= interval.start_cycle &&
             bug.cycle <= interval.end_cycle;
    c.truth.push_back(bad);
  }
  return c;
}

void mine_and_print(const std::string& title, const LabeledCase& c,
                    const std::vector<bool>& labels) {
  bench::section(title);
  std::size_t bad = 0;
  for (bool b : labels) bad += b;
  if (bad == 0 || bad == labels.size()) {
    std::printf("(degenerate labels; Dustminer cannot run)\n");
    return;
  }
  ml::Dustminer miner;
  auto patterns = miner.mine(c.sequences, labels, c.names);
  if (patterns.empty()) {
    std::printf(
        "no discriminative function-level pattern found — the symptom is\n"
        "invisible at this granularity (instruction counters are needed).\n");
    return;
  }
  util::Table table({"pattern", "support(bad)", "support(good)", "side"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, patterns.size());
       ++i) {
    const auto& p = patterns[i];
    table.add_row({p.to_string(), util::cell(p.support_bad, 2),
                   util::cell(p.support_good, 2),
                   p.more_frequent_in_bad ? "bad" : "good"});
  }
  std::fputs(table.render().c_str(), stdout);
}

std::vector<bool> corrupt_labels(const std::vector<bool>& truth,
                                 double flip_to_bad_fraction,
                                 util::Rng& rng) {
  // Mislabel some normal intervals as bad — what imperfect manual
  // inspection of a transient bug produces.
  std::vector<bool> labels = truth;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (!labels[i] && rng.chance(flip_to_bad_fraction)) labels[i] = true;
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_flag("case", "case study to mine: I, II or all", "all");
  if (!cli.parse(argc, argv)) return 1;
  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string which = cli.get("case");
  if (!bench::check_case(which, {"I", "II", "all"})) return 2;
  util::Rng rng(seed);

  if (which == "I" || which == "all") {
    apps::Case1Config case1_config;
    case1_config.sample_periods_ms = {20};
    const LabeledCase case1 = build_case(case1_config, seed);
    mine_and_print("E3 / case I, ground-truth labels (idealized best case)",
                   case1, case1.truth);
    mine_and_print("E3 / case I, 5% of good intervals mislabelled bad",
                   case1, corrupt_labels(case1.truth, 0.05, rng));
    mine_and_print("E3 / case I, 20% of good intervals mislabelled bad",
                   case1, corrupt_labels(case1.truth, 0.20, rng));
  }

  if (which == "II" || which == "all") {
    const LabeledCase case2 = build_case(apps::Case2Config{}, 3);
    mine_and_print(
        "E3 / case II, ground-truth labels (function granularity fails)",
        case2, case2.truth);
  }

  std::printf(
      "\nDustminer requires labelled good/bad intervals; Sentomist ranks\n"
      "the same intervals with no labels at all (see fig5a/fig5b).\n");
  return 0;
}

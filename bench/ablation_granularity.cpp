// Ablation A3 — anatomization granularity (paper §V-A).
//
// The paper's central structural claim is that the EVENT-HANDLING INTERVAL
// is the right unit of analysis. This bench compares three ways of
// carving the same case-I traces into samples:
//   1. event-handling intervals (Definition 2, the paper's choice);
//   2. handler-only spans (int .. reti, ignoring the posted tasks);
//   3. fixed-size time windows (no semantic alignment at all).
// Each sample set is featured as instruction counters and ranked by the
// same one-class SVM; the buggy windows' ranks show how much the semantic
// partition matters.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "core/detector.hpp"
#include "core/features.hpp"
#include "core/int_reti.hpp"
#include "ml/ocsvm.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

struct Graded {
  std::size_t samples = 0;
  std::size_t buggy = 0;
  std::size_t first_rank = 0;
  double precision5 = 0.0;
};

// Rank custom interval windows built from (possibly several) traces.
Graded grade(const std::vector<const trace::NodeTrace*>& traces,
             const std::vector<std::vector<core::EventInterval>>& windows) {
  core::FeatureMatrix matrix;
  std::vector<bool> has_bug;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    core::FeatureMatrix part =
        core::instruction_counters(*traces[t], windows[t]);
    core::append_rows(matrix, part);
    for (const auto& w : windows[t]) {
      bool bug = false;
      for (const auto& marker : traces[t]->bugs)
        bug |= marker.cycle >= w.start_cycle && marker.cycle <= w.end_cycle;
      has_bug.push_back(bug);
    }
  }
  ml::OneClassSvm svm;
  std::vector<double> scores = svm.score(matrix.values);
  auto ranked = core::rank_ascending(scores);

  Graded g;
  g.samples = has_bug.size();
  for (bool b : has_bug) g.buggy += b;
  std::size_t hits5 = 0;
  for (std::size_t pos = 0; pos < ranked.size(); ++pos) {
    if (has_bug[ranked[pos].index]) {
      if (g.first_rank == 0) g.first_rank = pos + 1;
      if (pos < 5) ++hits5;
    }
  }
  g.precision5 = double(hits5) / 5.0;
  return g;
}

std::vector<core::EventInterval> event_handling(
    const trace::NodeTrace& t, trace::IrqLine line) {
  core::Anatomizer anatomizer(t);
  return anatomizer.intervals_for(line);
}

std::vector<core::EventInterval> handler_only(const trace::NodeTrace& t,
                                              trace::IrqLine line) {
  std::vector<core::EventInterval> out;
  const auto& seq = t.lifecycle;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].kind != trace::LifecycleKind::Int || seq[i].arg != line)
      continue;
    core::EventInterval w;
    w.irq = line;
    w.start_index = i;
    w.start_cycle = seq[i].cycle;
    auto s = core::match_int_reti(seq, i);
    if (s) {
      w.end_index = s->end;
      w.end_cycle = seq[s->end].cycle;
    } else {
      w.end_index = seq.size() - 1;
      w.end_cycle = t.run_end;
      w.truncated = true;
    }
    w.seq_in_type = out.size();
    out.push_back(w);
  }
  return out;
}

std::vector<core::EventInterval> fixed_windows(const trace::NodeTrace& t,
                                               sim::Cycle width) {
  std::vector<core::EventInterval> out;
  for (sim::Cycle start = 0; start < t.run_end; start += width) {
    core::EventInterval w;
    w.start_cycle = start;
    w.end_cycle = std::min(start + width - 1, t.run_end);
    w.seq_in_type = out.size();
    out.push_back(w);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_flag("window-ms", "fixed-window width in ms", "20");
  if (!cli.parse(argc, argv)) return 1;

  apps::Case1Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  apps::Case1Result r = apps::run_case1(config);

  std::vector<const trace::NodeTrace*> traces;
  for (const auto& run : r.runs) traces.push_back(&run.sensor_trace);

  bench::section("Ablation A3: anatomization granularity (case I)");
  util::Table table({"granularity", "samples", "buggy windows",
                     "first bug rank", "precision@5"});

  auto add = [&](const std::string& name,
                 const std::vector<std::vector<core::EventInterval>>& w) {
    Graded g = grade(traces, w);
    table.add_row({name, util::cell(g.samples), util::cell(g.buggy),
                   util::cell(g.first_rank), util::cell(g.precision5, 3)});
  };

  {
    std::vector<std::vector<core::EventInterval>> w;
    for (auto* t : traces) w.push_back(event_handling(*t, os::irq::kAdc));
    add("event-handling interval (paper)", w);
  }
  {
    std::vector<std::vector<core::EventInterval>> w;
    for (auto* t : traces) w.push_back(handler_only(*t, os::irq::kAdc));
    add("handler-only (int..reti)", w);
  }
  {
    sim::Cycle width = sim::cycles_from_millis(
        cli.get_duration("window-ms", sim::kCyclesPerSecond, 1e3));
    std::vector<std::vector<core::EventInterval>> w;
    for (auto* t : traces) w.push_back(fixed_windows(*t, width));
    add("fixed windows", w);
  }

  std::fputs(table.render().c_str(), stdout);
  return 0;
}

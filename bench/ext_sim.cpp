// Extension E6 — interpreter-core throughput: virtual MIPS, events/sec and
// ns/event for the bytecode dispatch engine versus the retained reference
// (closure) engine, measured on the three Fig-5 case studies.
//
// Each case runs under BOTH DispatchModes on the same seed. The timed
// region covers only the simulation (run_caseN); the Sentomist analysis
// runs afterwards so the numbers isolate the interpreter + event queue.
// Every run's traces are serialized and compared byte-for-byte across the
// two engines, and the Fig-5 outlier rankings must match exactly — the
// speedup claim is only meaningful if the substrates are observationally
// identical (DESIGN.md §12).
//
// Results land in BENCH_sim.json. --min-speedup / --min-mips turn the
// binary into a regression gate: the tier-1 script runs it with the floors
// recorded there and fails the build if the bytecode core regresses.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "pipeline/sentomist.hpp"
#include "sim/dispatch.hpp"
#include "trace/serialize.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

/// Everything one simulation run produces that the comparison needs.
struct Outcome {
  std::vector<trace::NodeTrace> traces;
  trace::IrqLine line = 0;  ///< event type the Fig-5 analysis targets
  std::uint64_t events = 0;
};

using CaseRunner = Outcome (*)(std::uint64_t seed);

Outcome run_fig5a(std::uint64_t seed) {
  apps::Case1Config config;
  config.seed = seed;
  config.sample_periods_ms = {20};  // the vulnerable rate
  config.run_seconds = 10.0;
  config.osc.maintenance_heavy_prob = 1.0;
  config.osc.heavy_iterations = 50000;
  config.osc.heavy_iteration_cost = 40;
  apps::Case1Result r = apps::run_case1(config);
  Outcome out;
  out.traces.push_back(std::move(r.runs[0].sensor_trace));
  out.line = os::irq::kAdc;
  out.events = r.events_executed;
  return out;
}

Outcome run_fig5b(std::uint64_t seed) {
  apps::Case2Config config;
  config.seed = seed;
  // Bench variant of the Fig-5b workload: large sensor reports. The relay
  // checksums one byte per loop iteration, so the payload range sets the
  // instruction density of the run (the busy-drop bug itself is
  // payload-agnostic).
  config.min_payload_bytes = 1024;
  config.max_payload_bytes = 2048;
  config.mean_interval_ms = 80.0;
  apps::Case2Result r = apps::run_case2(config);
  Outcome out;
  out.traces.push_back(std::move(r.relay_trace));
  out.line = os::irq::kRadioSpi;
  out.events = r.events_executed;
  return out;
}

Outcome run_fig5c(std::uint64_t seed) {
  apps::Case3Config config;
  config.seed = seed;
  // Bench variant of the Fig-5c workload: every non-root node reports at a
  // high rate, so the anatomized report handler (sample + encode loop)
  // dominates the run rather than radio airtime.
  config.num_sources = 8;
  config.app.report_period = sim::cycles_from_millis(8);
  config.app.report_stagger = config.app.report_period / 9;
  config.app.mean_event_on = sim::cycles_from_millis(10000);
  config.app.mean_event_off = sim::cycles_from_millis(500);
  config.app.encode_words = 8;
  config.app.heartbeat_period = sim::cycles_from_millis(3000);
  config.app.beacon_period = sim::cycles_from_millis(4000);
  config.app.heartbeat_padding = 8;
  apps::Case3Result r = apps::run_case3(config);
  Outcome out;
  for (net::NodeId src : r.sources)
    out.traces.push_back(std::move(r.traces[src]));
  out.line = r.report_line;
  out.events = r.events_executed;
  return out;
}

/// Serialize every trace into one buffer: byte equality of this string is
/// the bit-identity check (the format round-trips every recorded field).
std::string serialize_traces(const std::vector<trace::NodeTrace>& traces) {
  std::ostringstream os;
  for (const auto& t : traces) trace::save_trace(t, os);
  return os.str();
}

/// Canonical form of a Fig-5 ranking: sample order plus exact scores.
std::string ranking_signature(const pipeline::AnalysisReport& report) {
  std::ostringstream os;
  for (const auto& e : report.ranking) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu:%.17g;", e.sample_index, e.score);
    os << buf;
  }
  return os.str();
}

std::uint64_t total_instrs(const std::vector<trace::NodeTrace>& traces) {
  std::uint64_t n = 0;
  for (const auto& t : traces) n += t.instrs.size();
  return n;
}

/// One engine's measurement on one case.
struct ModeResult {
  double wall_seconds = 0.0;  ///< best over --reps
  std::uint64_t instrs = 0;
  std::uint64_t events = 0;
  std::string trace_blob;
  std::string ranking;

  double vmips() const {
    return wall_seconds > 0.0
               ? static_cast<double>(instrs) / wall_seconds / 1e6
               : 0.0;
  }
  double events_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events) / wall_seconds
               : 0.0;
  }
  /// Wall nanoseconds per executed event: unlike vMIPS it also charges
  /// the steps that execute no instruction (interrupt entry, task start,
  /// frame retirement) and the device events.
  double ns_per_event() const {
    return events > 0 ? wall_seconds * 1e9 / static_cast<double>(events)
                      : 0.0;
  }
};

ModeResult run_mode(CaseRunner runner, sim::DispatchMode mode,
                    std::uint64_t seed, int reps) {
  sim::set_dispatch_mode(mode);
  ModeResult result;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    Outcome out = runner(seed);
    double wall = bench::seconds_since(t0);
    if (rep == 0 || wall < result.wall_seconds) result.wall_seconds = wall;
    if (rep == 0) {
      result.instrs = total_instrs(out.traces);
      result.events = out.events;
      result.trace_blob = serialize_traces(out.traces);
      // Ranking comes from the untimed analysis pass on the first rep-0
      // trace. One node is enough for the cross-engine identity check —
      // the serialized blob already compares every trace byte-for-byte,
      // and analyzing all of a dense multi-node run would dwarf the
      // simulation itself (the detector trains on every interval).
      std::vector<pipeline::TaggedTrace> tagged{{&out.traces.front(), 0}};
      result.ranking = ranking_signature(pipeline::analyze(tagged, out.line));
    }
  }
  return result;
}

struct CaseComparison {
  std::string name;
  ModeResult reference;
  ModeResult bytecode;
  bool traces_identical = false;
  bool rankings_identical = false;

  double speedup() const {
    return bytecode.wall_seconds > 0.0
               ? reference.wall_seconds / bytecode.wall_seconds
               : 0.0;
  }
};

CaseComparison run_case(const std::string& name, CaseRunner runner,
                        std::uint64_t seed, int reps) {
  CaseComparison cmp;
  cmp.name = name;
  cmp.reference =
      run_mode(runner, sim::DispatchMode::Reference, seed, reps);
  cmp.bytecode = run_mode(runner, sim::DispatchMode::Bytecode, seed, reps);
  cmp.traces_identical =
      cmp.reference.trace_blob == cmp.bytecode.trace_blob &&
      !cmp.bytecode.trace_blob.empty();
  cmp.rankings_identical = cmp.reference.ranking == cmp.bytecode.ranking;

  std::printf("%-26s ref %7.2f vMIPS %6.1f ns/ev  bytecode %7.2f vMIPS "
              "%6.1f ns/ev  speedup %5.2fx  traces %s  ranking %s\n",
              name.c_str(), cmp.reference.vmips(),
              cmp.reference.ns_per_event(), cmp.bytecode.vmips(),
              cmp.bytecode.ns_per_event(), cmp.speedup(),
              cmp.traces_identical ? "identical" : "DIVERGED",
              cmp.rankings_identical ? "identical" : "DIVERGED");
  std::printf("%-26s ref %7.3fs %9.0f ev/s   bytecode %7.3fs %9.0f ev/s  "
              "(%llu instrs, %llu events)\n",
              "", cmp.reference.wall_seconds,
              cmp.reference.events_per_sec(), cmp.bytecode.wall_seconds,
              cmp.bytecode.events_per_sec(),
              static_cast<unsigned long long>(cmp.bytecode.instrs),
              static_cast<unsigned long long>(cmp.bytecode.events));
  return cmp;
}

bool write_json(const std::string& path, int reps,
                const std::vector<CaseComparison>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"reps\": " << reps << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseComparison& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\""
       << ", \"instrs\": " << c.bytecode.instrs
       << ", \"events\": " << c.bytecode.events << ",\n"
       << "     \"reference\": {\"wall_seconds\": "
       << c.reference.wall_seconds << ", \"vmips\": " << c.reference.vmips()
       << ", \"events_per_sec\": " << c.reference.events_per_sec()
       << ", \"ns_per_event\": " << c.reference.ns_per_event() << "},\n"
       << "     \"bytecode\": {\"wall_seconds\": " << c.bytecode.wall_seconds
       << ", \"vmips\": " << c.bytecode.vmips()
       << ", \"events_per_sec\": " << c.bytecode.events_per_sec()
       << ", \"ns_per_event\": " << c.bytecode.ns_per_event() << "},\n"
       << "     \"speedup\": " << c.speedup()
       << ", \"traces_identical\": "
       << (c.traces_identical ? "true" : "false")
       << ", \"rankings_identical\": "
       << (c.rankings_identical ? "true" : "false") << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "scenario seed", "1");
  cli.add_flag("reps", "timed repetitions per engine (best-of)", "3");
  cli.add_flag("json", "output file", "BENCH_sim.json");
  cli.add_flag("min-speedup",
               "fail unless every case's bytecode/reference speedup "
               "reaches this (0 = no floor)",
               "0");
  cli.add_flag("min-mips",
               "fail unless every case's bytecode vMIPS reaches this "
               "(0 = no floor)",
               "0");
  if (!cli.parse(argc, argv)) return 1;

  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  int reps = static_cast<int>(cli.get_int("reps"));
  double min_speedup = std::stod(cli.get("min-speedup"));
  double min_mips = std::stod(cli.get("min-mips"));

  bench::section("Extension E6: bytecode vs reference dispatch throughput");
  std::printf("seed %llu, best of %d reps per engine\n\n",
              static_cast<unsigned long long>(seed), reps);

  std::vector<CaseComparison> cases;
  cases.push_back(run_case("case I (D=20ms, 10s)", run_fig5a, seed, reps));
  cases.push_back(run_case("case II (20s)", run_fig5b, seed, reps));
  cases.push_back(run_case("case III (9 nodes, 15s)", run_fig5c, seed, reps));

  bool ok = true;
  for (const CaseComparison& c : cases) {
    if (!c.traces_identical || !c.rankings_identical) {
      std::printf("!! %s: engines are not observationally identical\n",
                  c.name.c_str());
      ok = false;
    }
    if (min_speedup > 0.0 && c.speedup() < min_speedup) {
      std::printf("!! %s: speedup %.2fx below floor %.2fx\n", c.name.c_str(),
                  c.speedup(), min_speedup);
      ok = false;
    }
    if (min_mips > 0.0 && c.bytecode.vmips() < min_mips) {
      std::printf("!! %s: bytecode %.2f vMIPS below floor %.2f\n",
                  c.name.c_str(), c.bytecode.vmips(), min_mips);
      ok = false;
    }
  }

  if (write_json(cli.get("json"), reps, cases))
    std::printf("\nresults written to %s\n", cli.get("json").c_str());
  return ok ? 0 : 1;
}

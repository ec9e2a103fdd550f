// Extension E6 — interpreter-core throughput: virtual MIPS, events/sec and
// ns/event for the simulator (bytecode interpreter, pooled event queue
// with step lanes), measured on the three Fig-5 case studies.
//
// The timed region covers only the simulation (apps::simulate), best of
// --reps runs on one seed. Each case runs through one apps::WorldArena, as a
// campaign worker does (DESIGN.md §15), so the event slab and the
// multi-megabyte instruction streams are recycled and the timed runs
// measure the simulator, not page faults of growing trace buffers.
// Bit-identity of the simulator's output is not checked here:
// tests/golden/sim_digests.txt pins it (DESIGN.md §12), and whether the
// fused typed-op loop still fires is pinned by the sim.fused_steps floor
// in tests/sim_digest_test.cpp.
//
// Results land in BENCH_sim.json. --min-mips turns the binary into a
// regression gate: the tier-1 script runs it with a floor well under the
// recorded numbers.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "bench_util.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

/// The three Fig-5 case studies in their bench variants. Their measured
/// nodes are the analyzed traces (case I's sensor, case II's relay, case
/// III's sources).
std::vector<std::pair<std::string, apps::Scenario>> bench_scenarios() {
  apps::Case1Config fig5a;
  fig5a.sample_periods_ms = {20};  // the vulnerable rate
  fig5a.run_seconds = 10.0;
  fig5a.osc.maintenance_heavy_prob = 1.0;
  fig5a.osc.heavy_iterations = 50000;
  fig5a.osc.heavy_iteration_cost = 40;

  // Bench variant of the Fig-5b workload: large sensor reports. The relay
  // checksums one byte per loop iteration, so the payload range sets the
  // instruction density of the run (the busy-drop bug itself is
  // payload-agnostic).
  apps::Case2Config fig5b;
  fig5b.min_payload_bytes = 1024;
  fig5b.max_payload_bytes = 2048;
  fig5b.mean_interval_ms = 80.0;

  // Bench variant of the Fig-5c workload: every non-root node reports at a
  // high rate, so the anatomized report handler (sample + encode loop)
  // dominates the run rather than radio airtime.
  apps::Case3Config fig5c;
  fig5c.num_sources = 8;
  fig5c.app.report_period = sim::cycles_from_millis(8);
  fig5c.app.report_stagger = fig5c.app.report_period / 9;
  fig5c.app.mean_event_on = sim::cycles_from_millis(10000);
  fig5c.app.mean_event_off = sim::cycles_from_millis(500);
  fig5c.app.encode_words = 8;
  fig5c.app.heartbeat_period = sim::cycles_from_millis(3000);
  fig5c.app.beacon_period = sim::cycles_from_millis(4000);
  fig5c.app.heartbeat_padding = 8;

  return {{"case I (D=20ms, 10s)", fig5a},
          {"case II (20s)", fig5b},
          {"case III (9 nodes, 15s)", fig5c}};
}

/// One case's measurement.
struct CaseResult {
  std::string name;
  double wall_seconds = 0.0;  ///< best over --reps
  std::uint64_t instrs = 0;
  std::uint64_t events = 0;

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

/// Untimed runs before the timed ones. The arena banks buffers LIFO and
/// nodes draw them in construction order, so a node may receive another
/// node's smaller buffer and regrow it; a buffer only grows, so after a
/// few runs every banked buffer fits whichever node draws it.
constexpr int kWarmupRuns = 4;

CaseResult run_case(const std::string& name, const apps::Scenario& scenario,
                    std::uint64_t seed, int reps) {
  CaseResult result;
  result.name = name;
  apps::WorldArena arena;
  for (int warmup = 0; warmup < kWarmupRuns; ++warmup) {
    apps::Simulation sim = apps::simulate(scenario, seed, &arena);
    arena.recycle_all(sim.traces);
  }
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    apps::Simulation sim = apps::simulate(scenario, seed, &arena);
    double wall = bench::seconds_since(t0);
    if (rep == 0 || wall < result.wall_seconds) result.wall_seconds = wall;
    if (rep == 0) {
      for (const trace::TaggedTrace& t : sim.analyzed.traces)
        result.instrs += t.trace->instrs.size();
      result.events = sim.events_executed;
    }
    arena.recycle_all(sim.traces);
  }
  std::printf("%-26s %7.2f vMIPS %6.1f ns/ev %9.0f ev/s  %7.3fs  "
              "(%llu instrs, %llu events)\n",
              name.c_str(), result.vmips(), result.ns_per_event(),
              result.events_per_sec(), result.wall_seconds,
              static_cast<unsigned long long>(result.instrs),
              static_cast<unsigned long long>(result.events));
  return result;
}

bool write_json(const std::string& path, int reps,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"reps\": " << reps << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\""
       << ", \"instrs\": " << c.instrs << ", \"events\": " << c.events
       << ", \"wall_seconds\": " << c.wall_seconds
       << ", \"vmips\": " << c.vmips()
       << ", \"events_per_sec\": " << c.events_per_sec()
       << ", \"ns_per_event\": " << c.ns_per_event() << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "scenario seed", "1");
  cli.add_flag("reps", "timed repetitions per case (best-of)", "3");
  cli.add_flag("json", "output file", "BENCH_sim.json");
  cli.add_flag("min-mips",
               "fail unless every case's vMIPS reaches this (0 = no floor)",
               "0");
  if (!cli.parse(argc, argv)) return 1;

  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  int reps = static_cast<int>(cli.get_positive_int("reps"));
  double min_mips = cli.get_nonneg_double("min-mips");

  bench::section("Extension E6: interpreter-core throughput");
  std::printf("seed %llu, best of %d reps per case\n\n",
              static_cast<unsigned long long>(seed), reps);

  std::vector<CaseResult> cases;
  for (const auto& [name, scenario] : bench_scenarios())
    cases.push_back(run_case(name, scenario, seed, reps));

  bool ok = true;
  for (const CaseResult& c : cases) {
    if (min_mips > 0.0 && c.vmips() < min_mips) {
      std::printf("!! %s: %.2f vMIPS below floor %.2f\n", c.name.c_str(),
                  c.vmips(), min_mips);
      ok = false;
    }
  }

  if (write_json(cli.get("json"), reps, cases))
    std::printf("\nresults written to %s\n", cli.get("json").c_str());
  return ok ? 0 : 1;
}

// sentbench: the repository benchmark (see perfbench/README.md).
//
//   sentbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Untraced (--trace 0) runs the program's own path in a closed loop for
// --seconds and prints every end-to-end metric. Traced (--trace 1) rebuilds
// each seeded run from the layers' public calls with a span around each
// call, checks it against the program's own path, and prints the per-layer
// metrics and a self-time table. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapter.hpp"
#include "digest.hpp"
#include "guard.hpp"
#include "stats.hpp"

namespace sentbench {
namespace {

/// Campaign worker threads; no workload runs more threads than this.
constexpr std::size_t kWorkers = 2;

/// --seed n draws the workload's inputs from seeds 1 + n * kSeedStride
/// onwards, so distinct --seed values never share a seeded run.
constexpr std::uint64_t kSeedStride = 1'000'000;

/// Set-up is repeated this many times per run and reported as a median.
constexpr int kSetupReps = 25;

/// Campaign warm-up: runs per worker that fill the worker arenas.
constexpr std::size_t kWarmRunsPerWorker = 2;

/// fleet-II: fleets per pass, device streams per fleet and virtual
/// seconds per device run. A pass covers several fleets so one seed's
/// figures do not hang on a single fleet's traces.
constexpr std::size_t kFleets = 4;
constexpr std::size_t kFleetStreams = 8;
constexpr double kFleetVirtualSeconds = 15.0;

/// fleet-II's detector pool. With two threads every refit forks and joins
/// across both vCPUs, so contention on either one stalls the tick: on a
/// shared host its figures swung up to 2x between runs (spread 0.32-0.41
/// over ten runs) and the second thread bought no throughput. Inline
/// detector math takes the fork/join out of every tick.
constexpr std::size_t kFleetDetectorThreads = 1;

/// A run measures at least this many passes (it may extend past --seconds
/// to get them, and until run_ms_p99 has 10 samples beyond it), but never
/// more than kMaxMeasureSeconds.
constexpr std::size_t kMinPasses = 8;
constexpr double kMaxMeasureSeconds = 120.0;

struct WorkloadSpec {
  const char* name;
  bool fleet;
  std::size_t window;  ///< campaign seeds per pass (campaigns only)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"chaos-II", false, 400},
    {"clean-III", false, 200},
    {"pooled-I", false, 100},
    {"fleet-II", true, 0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "sentbench: %s\nusage: sentbench --workload <name> "
               "[--seed <n>] [--seconds <s>] [--trace 0|1] "
               "[--out-dir <dir>]\nworkloads:",
               error.c_str());
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-' ||
          v > 1'000'000'000'000ull)
        usage("--seed expects an integer in [0, 1e12]");
      a.seed = v;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0)
        usage("--seconds expects a number in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A timing percentile taken pass by pass.
struct PassLatency {
  explicit PassLatency(double pct) : p(pct) {}

  double p;
  std::vector<double> per_pass;
  std::size_t n = 0;  ///< samples over all passes
  std::size_t min_beyond = 0;

  void add(const std::vector<double>& pass_ms) {
    const Percentile q = percentile(pass_ms, p);
    min_beyond = per_pass.empty() ? q.beyond : std::min(min_beyond, q.beyond);
    per_pass.push_back(q.value);
    n += q.n;
  }
};

/// Collects metrics and gate verdicts, prints them as they come and the
/// final JSON line at the end.
///
/// Closed-loop figures are taken per pass and reported as the quartile on
/// the slow side: the rate the program holds in three passes out of four,
/// and the per-pass latency percentile three passes out of four stay
/// under. On a shared host the fast passes are the ones co-tenants happen
/// to leave alone, and how many there are changes from run to run; the
/// slow side moves far less.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    std::printf("metric %-30s %.6g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
    metrics_.push_back({name, value, unit});
  }

  /// A per-pass rate (1/s), reported as its lower quartile over passes.
  void pass_rate(const std::string& name, const std::vector<double>& rates,
                 const std::string& note) {
    metric(name, quartiles(rates).q1, "1/s",
           "lower quartile of " + std::to_string(rates.size()) +
               " passes, " + note);
  }

  /// A per-pass latency percentile, reported as its upper quartile over
  /// passes, with the sample counts of the reporting rule: every pass's
  /// percentile needs 10 samples beyond it.
  void pass_latency(const std::string& name, const PassLatency& l) {
    char note[200];
    std::snprintf(note, sizeof note,
                  "upper quartile of %zu passes, n=%zu, beyond>=%zu per pass",
                  l.per_pass.size(), l.n, l.min_beyond);
    metric(name, quartiles(l.per_pass).q3, "ms", note);
    if (l.per_pass.empty() || l.min_beyond < kMinBeyond)
      gate("percentile " + name + " reportable", false);
  }

  void gate(const std::string& name, bool pass,
            const std::string& detail = "") {
    std::printf("gate %-40s %s%s%s\n", name.c_str(), pass ? "pass" : "FAIL",
                detail.empty() ? "" : "  ", detail.c_str());
    correct_ = correct_ && pass;
  }

  /// Operations attempted and failed (the result's `attempted` and
  /// `failed`); prints the failure share.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const char* what) {
    tally_.add(attempted, failed);
    std::printf("failed_share %.6g (failed %llu of %llu %s)\n",
                tally_.share(), static_cast<unsigned long long>(tally_.failed),
                static_cast<unsigned long long>(tally_.attempted), what);
  }
  double failed_share() const { return tally_.share(); }

  bool correct() const { return correct_; }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(tally_.attempted),
                static_cast<unsigned long long>(tally_.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  Tally tally_;
  bool correct_ = true;
};

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

std::uint64_t first_seed_of(const Args& a) { return 1 + a.seed * kSeedStride; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_digest(const Args& a, std::uint64_t digest) {
  std::printf("digest %s seed=%llu %016llx\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(digest));
}

std::uint64_t campaign_digest(const CampaignResult& c,
                              const std::vector<RunResult>& runs) {
  Fnv fnv;
  fnv.text(c.stats_json);
  for (const RunResult& r : runs) {
    fnv.u64(r.seed);
    fnv.u64(r.completed);
    fnv.u64(r.triggered);
    fnv.u64(r.first_bug_rank);
    fnv.u64(r.ranking_digest);
  }
  return fnv.h;
}

/// Writes `kind`-<workload>-seed<n>.<ext> under --out-dir and says where.
template <typename WriteFn>
void write_output(const Args& a, const std::string& kind,
                  const std::string& ext, WriteFn&& write) {
  std::filesystem::create_directories(a.out_dir);
  const std::string path = a.out_dir + "/" + kind + "-" + a.workload +
                           "-seed" + std::to_string(a.seed) + "." + ext;
  std::ofstream out(path);
  write(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("%s written to %s\n", kind.c_str(), path.c_str());
}

/// Spans stay in memory during the run and are written out at its end.
void write_spans(const Args& a, const SpanLog& log) {
  write_output(a, "spans", "jsonl",
               [&](std::ostream& out) { log.write_jsonl(out); });
}

/// run_ms_p99 swings by more than the largest allowed bound between runs
/// on a shared host, so it is a per-layer metric (no bound); untraced runs
/// print it for reading only.
double p99_of(const std::vector<double>& ms) {
  return percentile(ms, 99.0).value;
}

void print_unbounded_p99(const std::vector<double>& ms) {
  const Percentile q = percentile(ms, 99.0);
  std::printf("run_ms_p99 %.6g ms n=%zu beyond=%zu highest reportable=p%.1f "
              "(unbounded, not in the result line)\n",
              q.value, q.n, q.beyond, highest_reportable_percentile(q.n));
}

/// Whether a closed loop that started at t0 has measured enough.
bool measured_enough(std::int64_t t0, double seconds, bool samples_ok) {
  const double elapsed = seconds_since(t0);
  return elapsed >= kMaxMeasureSeconds || (elapsed >= seconds && samples_ok);
}

// ------------------------------------------------------- per-layer table

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
/// of them; a layer the workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"apps.ms_per_run", "ms"},
    {"apps.events_per_run", "count"},
    {"apps.events_per_s", "1/s"},
    {"apps.vmips", "MIPS"},
    {"trace.save_ms_per_run", "ms"},
    {"trace.load_ms_per_run", "ms"},
    {"fault.perturb_ms_per_run", "ms"},
    {"trace.bytes_per_run", "B"},
    {"trace.complete_share", "share"},
    {"core.anatomize_ms_per_run", "ms"},
    {"core.featurize_ms_per_run", "ms"},
    {"core.rank_ms_per_run", "ms"},
    {"core.intervals_per_run", "count"},
    {"ml.score_ms_per_run", "ms"},
    {"ml.rows_per_fit", "count"},
    {"ml.smo_iterations_per_fit", "count"},
    {"ml.support_vectors_per_fit", "count"},
    {"ml.fallback_share", "share"},
    {"pipeline.worker_busy_share", "share"},
    {"stream.offer_ms", "ms"},
    {"stream.tick_ms", "ms"},
    {"stream.finish_ms", "ms"},
    {"stream.report_ms", "ms"},
    {"stream.ticks", "count"},
    {"stream.full_share", "share"},
    {"stream.peak_buffered_bytes", "B"},
    {"residual_ms_per_run", "ms"},
    {"failed_share", "share"},
    {"tracing_overhead_ms_per_run", "ms"},
    {"run_ms_p99", "ms"},
};

void emit_layer_metrics(Report& rep,
                        const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    rep.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

const char* const kLayers[] = {"apps", "trace", "fault", "core", "ml",
                               "stream", "pipeline"};

/// Prints layer self times per run and the residual; returns the per-run
/// self time of each layer (ms) keyed by layer, "run" being the residual.
std::map<std::string, double> print_layer_table(const std::string& workload,
                                                const SelfTimes& st,
                                                double runs,
                                                const char* total_label) {
  std::map<std::string, double> per_run;
  for (const auto& [layer, ns] : st.layer_ns) per_run[layer] = ns / 1e6 / runs;
  const double total = st.total_ns / 1e6 / runs;
  std::printf("\nper-layer self time, %s (%.0f runs)\n", workload.c_str(),
              runs);
  std::printf("  %-10s %12s %8s\n", "layer", "ms/run", "share");
  double sum = 0.0;
  auto row = [&](const char* label, double ms) {
    std::printf("  %-10s %12.4f %7.1f%%\n", label, ms,
                100.0 * ratio(ms, total));
    sum += ms;
  };
  for (const char* layer : kLayers) row(layer, per_run[layer]);
  row("residual", per_run["run"]);
  std::printf("  %-10s %12.4f %7.1f%%   (%s)\n", "sum", sum,
              100.0 * ratio(sum, total), total_label);
  std::printf("  %-10s %12.4f\n", "wall", total);
  return per_run;
}

// -------------------------------------------------------------- campaigns

/// Sets a campaign up `reps` times and returns the last one. With a
/// non-null `setup_s`, each set-up is timed into it and warms up on the
/// next seeds of the workload's window: warm-up time depends on the seeds
/// (chaos-II set-ups of one --seed repeat within 3%, those of different
/// --seed values differ by up to 15%), so the median covers the window
/// rather than its first few seeds.
std::unique_ptr<Campaign> set_up_campaign(const Args& a,
                                          const WorkloadSpec& w,
                                          std::vector<double>* setup_s,
                                          int reps) {
  const std::size_t warm_runs = kWarmRunsPerWorker * kWorkers;
  std::unique_ptr<Campaign> campaign;
  std::vector<double> scratch;
  for (int rep = 0; rep < reps; ++rep) {
    const std::size_t offset =
        setup_s ? setup_s->size() * warm_runs % w.window : 0;
    campaign.reset();
    const std::int64_t t0 = now_ns();
    campaign = std::make_unique<Campaign>(a.workload, kWorkers);
    campaign->run(first_seed_of(a) + offset, warm_runs, scratch, nullptr);
    if (setup_s) setup_s->push_back(seconds_since(t0));
  }
  return campaign;
}

void campaign_untraced(const Args& a, const WorkloadSpec& w, Report& rep) {
  const std::uint64_t first = first_seed_of(a);
  std::vector<double> setup_s;
  std::unique_ptr<Campaign> campaign =
      set_up_campaign(a, w, &setup_s, kSetupReps);

  std::vector<double> call_ms, pass_s;
  PassLatency p50(50.0), p90(90.0);
  std::vector<RunResult> results;
  CampaignResult reference;
  std::size_t passes = 0, runs = 0, failed = 0, retried = 0;
  bool repeat_identical = true;
  const std::int64_t t0 = now_ns();
  do {
    const std::size_t before = call_ms.size();
    CampaignResult r = campaign->run(first, w.window, call_ms,
                                     passes == 0 ? &results : nullptr);
    const std::vector<double> pass(call_ms.begin() + before, call_ms.end());
    p50.add(pass);
    p90.add(pass);
    if (passes == 0) reference = r;
    repeat_identical = repeat_identical && r.stats_json == reference.stats_json;
    pass_s.push_back(r.wall_s);
    runs += r.runs;
    failed += r.failed;
    retried += r.retried;
    ++passes;
  } while (!measured_enough(t0, a.seconds,
                            passes >= kMinPasses &&
                                call_ms.size() >= samples_needed(99.0)));

  const std::uint64_t records = campaign->simulated_records(results);
  std::vector<double> run_rate, record_rate;
  double wall_s = 0.0;
  for (double s : pass_s) {
    run_rate.push_back(ratio(w.window, s));
    record_rate.push_back(ratio(records, s));
    wall_s += s;
  }
  std::printf("measured %zu passes of %zu seeds from %llu in %.3f s\n",
              passes, w.window, static_cast<unsigned long long>(first),
              wall_s);

  rep.tally(runs, failed, "runs attempted");
  std::printf("retried %zu attempts\n", retried);
  rep.pass_rate("runs_per_s", run_rate,
                "mean " + std::to_string(ratio(runs, wall_s)));
  rep.pass_latency("run_ms_p50", p50);
  rep.pass_rate("records_per_s", record_rate,
                "records/pass=" + std::to_string(records));
  // Every runner call ends in a scoring flush (its ranked report), so the
  // campaign's scoring-step latency is the runner call's.
  rep.pass_latency("tick_ms_p50", p50);
  rep.pass_latency("tick_ms_p90", p90);
  rep.metric("detect_rate",
             ratio(static_cast<double>(reference.detected),
                   static_cast<double>(reference.triggered)),
             "share",
             "detected=" + std::to_string(reference.detected) +
                 " triggered=" + std::to_string(reference.triggered) +
                 " runs=" + std::to_string(reference.runs));
  rep.metric("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()));
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  print_unbounded_p99(call_ms);
  double call_s = 0.0;
  for (double ms : call_ms) call_s += ms / 1e3;
  std::printf("worker_busy_share %.6g\n",
              worker_busy_share(call_s, wall_s, kWorkers));

  write_output(a, "stats", "json",
               [&](std::ostream& out) { out << reference.stats_json; });
  rep.gate("stats_json identical across passes", repeat_identical,
           std::to_string(passes) + " passes");
  rep.gate("campaign triggered runs", reference.triggered > 0);
  print_digest(a, campaign_digest(reference, results));
}

void campaign_traced(const Args& a, const WorkloadSpec& w, Report& rep) {
  const std::uint64_t first = first_seed_of(a);
  std::unique_ptr<Campaign> campaign = set_up_campaign(a, w, nullptr, 1);
  SpanLog log(kWorkers + 1);
  LayerCounts counts;
  std::vector<double> call_ms;
  CampaignResult reference;
  std::vector<RunResult> reference_runs;
  double untraced_s = 0.0, traced_s = 0.0;
  std::size_t pairs = 0, runs = 0, failed = 0, mismatched = 0;
  bool repeat_identical = true;
  const std::int64_t t0 = now_ns();
  do {
    std::vector<RunResult> program, rebuilt;
    CampaignResult u = campaign->run(first, w.window, call_ms, &program);
    CampaignResult t =
        campaign->run_traced(first, w.window, log, counts, rebuilt);
    if (pairs == 0) {
      reference = u;
      reference_runs = program;
    }
    repeat_identical = repeat_identical && u.stats_json == reference.stats_json;
    const std::size_t calls = std::max(program.size(), rebuilt.size());
    for (std::size_t i = 0; i < calls; ++i)
      mismatched += !(i < program.size() && i < rebuilt.size() &&
                      program[i] == rebuilt[i]);
    untraced_s += u.wall_s;
    traced_s += t.wall_s;
    runs += t.runs;
    failed += t.failed;
    ++pairs;
  } while (!measured_enough(t0, a.seconds, true));

  const SelfTimes st = self_times(log);
  const double n = static_cast<double>(runs);
  std::map<std::string, double> per_run = print_layer_table(
      a.workload, st, n, "traced wall x workers");
  auto span_ms = [&](const char* name) {
    auto it = st.span_ns.find(name);
    return it == st.span_ns.end() ? 0.0 : it->second / 1e6 / n;
  };
  double run_ns = 0.0, campaign_ns = 0.0;
  for (std::size_t lane = 0; lane < log.lanes(); ++lane) {
    for (const Span& s : log.lane(lane)) {
      const std::string name = s.name;
      if (name == "run") run_ns += s.duration_ns();
      if (name == "pipeline.run_campaign") campaign_ns += s.duration_ns();
    }
  }
  const double apps_s = per_run["apps"] * n / 1e3;
  const double workers = static_cast<double>(kWorkers);
  const double traced_ms = traced_s * 1e3 * workers / n;
  const double untraced_ms = untraced_s * 1e3 * workers / n;
  std::printf("tracing overhead: traced %.4f - untraced %.4f = %.4f ms/run "
              "(worker time, %zu pass pairs)\n",
              traced_ms, untraced_ms, traced_ms - untraced_ms, pairs);

  rep.tally(runs, failed, "runs attempted");
  const double fits = static_cast<double>(counts.fits);
  const double solved = static_cast<double>(counts.fits - counts.fallbacks);
  emit_layer_metrics(
      rep,
      {{"apps.ms_per_run", per_run["apps"]},
       {"apps.events_per_run", ratio(counts.events, n)},
       {"apps.events_per_s", ratio(counts.events, apps_s)},
       {"apps.vmips", ratio(counts.instructions, apps_s) / 1e6},
       {"trace.save_ms_per_run", span_ms("trace.save")},
       {"trace.load_ms_per_run", span_ms("trace.load")},
       {"fault.perturb_ms_per_run", span_ms("fault.perturb")},
       {"trace.bytes_per_run", ratio(counts.trace_bytes, n)},
       {"trace.complete_share", ratio(counts.complete_loads, counts.loads)},
       {"core.anatomize_ms_per_run", span_ms("core.anatomize")},
       {"core.featurize_ms_per_run", span_ms("core.featurize")},
       {"core.rank_ms_per_run", span_ms("core.rank")},
       {"core.intervals_per_run", ratio(counts.intervals, n)},
       {"ml.score_ms_per_run", span_ms("ml.score")},
       {"ml.rows_per_fit", ratio(counts.rows, fits)},
       {"ml.smo_iterations_per_fit", ratio(counts.smo_iterations, solved)},
       {"ml.support_vectors_per_fit", ratio(counts.support_vectors, solved)},
       {"ml.fallback_share", ratio(counts.fallbacks, fits)},
       {"pipeline.worker_busy_share",
        worker_busy_share(run_ns, campaign_ns, kWorkers)},
       {"residual_ms_per_run", per_run["run"]},
       {"failed_share", rep.failed_share()},
       {"tracing_overhead_ms_per_run", traced_ms - untraced_ms},
       {"run_ms_p99", p99_of(call_ms)}});

  write_spans(a, log);
  rep.gate("rebuilt run matches program runner", mismatched == 0,
           std::to_string(mismatched) + " mismatched call results over " +
               std::to_string(pairs) + " pass pairs");
  rep.gate("stats_json identical across passes", repeat_identical);
  print_digest(a, campaign_digest(reference, reference_runs));
}

// ------------------------------------------------------------------ fleet

std::vector<std::string> batch_reports(const Fleet& fleet) {
  std::vector<std::string> out;
  for (std::size_t f = 0; f < fleet.fleets(); ++f)
    out.push_back(fleet.batch_report(f));
  return out;
}

void fleet_untraced(const Args& a, Report& rep) {
  Fleet fleet(first_seed_of(a), kFleets, kFleetStreams, kFleetVirtualSeconds);
  std::vector<double> setup_s, tick_ms, round_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    fleet.set_up(kFleetDetectorThreads);
    setup_s.push_back(seconds_since(t0));
  }
  const std::vector<std::string> batch = batch_reports(fleet);

  std::vector<double> device_rate, record_rate;
  PassLatency round_p50(50.0), tick_p50(50.0), tick_p90(90.0);
  double wall_s = 0.0;
  std::uint64_t offered = 0, failed_frames = 0;
  std::size_t passes = 0, mismatched = 0;
  Fnv digest;
  const std::int64_t t0 = now_ns();
  do {
    const std::size_t ticks_before = tick_ms.size();
    const std::size_t rounds_before = round_ms.size();
    double pass_s = 0.0, records = 0.0;
    for (std::size_t f = 0; f < fleet.fleets(); ++f) {
      FleetSession s = fleet.session(f, tick_ms, round_ms, nullptr, a.seed);
      mismatched += s.report != batch[f];
      if (passes == 0) digest.text(s.report);
      pass_s += s.wall_s;
      offered += s.frames_offered;
      failed_frames += s.frames_failed;
      records += static_cast<double>(s.records);
    }
    const std::vector<double> ticks(tick_ms.begin() + ticks_before,
                                    tick_ms.end());
    const std::vector<double> rounds(round_ms.begin() + rounds_before,
                                     round_ms.end());
    tick_p50.add(ticks);
    tick_p90.add(ticks);
    round_p50.add(rounds);
    device_rate.push_back(
        ratio(static_cast<double>(fleet.fleets() * fleet.streams()), pass_s));
    record_rate.push_back(ratio(records, pass_s));
    wall_s += pass_s;
    ++passes;
  } while (!measured_enough(t0, a.seconds,
                            passes >= kMinPasses &&
                                round_ms.size() >= samples_needed(99.0)));
  const Fleet::Detection d = fleet.detection();
  std::printf("measured %zu passes over %zu fleets of %zu streams x %.1f "
              "virtual s in %.3f s\n",
              passes, fleet.fleets(), fleet.streams(), kFleetVirtualSeconds,
              wall_s);

  rep.tally(offered, failed_frames, "frames offered");
  rep.pass_rate("runs_per_s", device_rate,
                std::to_string(fleet.fleets() * fleet.streams()) +
                    " device runs a pass");
  // A fleet request is one lockstep round: a frame from every stream,
  // then the tick that scores what arrived.
  rep.pass_latency("run_ms_p50", round_p50);
  rep.pass_rate("records_per_s", record_rate, "records offered");
  rep.pass_latency("tick_ms_p50", tick_p50);
  rep.pass_latency("tick_ms_p90", tick_p90);
  rep.metric("detect_rate", ratio(d.detected, d.triggered), "share",
             "detected=" + std::to_string(d.detected) +
                 " triggered=" + std::to_string(d.triggered) +
                 " devices=" + std::to_string(d.devices));
  rep.metric("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()));
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  print_unbounded_p99(round_ms);

  rep.gate("final_report bit-identical to pipeline::analyze",
           mismatched == 0,
           std::to_string(passes * fleet.fleets()) + " sessions, " +
               std::to_string(mismatched) + " differ");
  rep.gate("fleet triggered devices", d.triggered > 0);
  print_digest(a, digest.h);
}

void fleet_traced(const Args& a, Report& rep) {
  const std::uint64_t first = first_seed_of(a);
  Fleet fleet(first, kFleets, kFleetStreams, kFleetVirtualSeconds);
  fleet.set_up(kFleetDetectorThreads);
  const std::vector<std::string> batch = batch_reports(fleet);

  SpanLog log(1);
  std::vector<double> tick_ms, round_ms, traced_tick_ms, traced_round_ms;
  double untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t offered = 0, failed_frames = 0, ticks = 0, samples = 0,
                full = 0, peak = 0;
  std::size_t sessions = 0, mismatched = 0;
  const std::int64_t t0 = now_ns();
  do {
    for (std::size_t f = 0; f < fleet.fleets(); ++f) {
      FleetSession u = fleet.session(f, tick_ms, round_ms, nullptr, 0);
      FleetSession t = fleet.session(f, traced_tick_ms, traced_round_ms,
                                     &log, first + f * fleet.streams());
      mismatched += (u.report != batch[f]) + (t.report != batch[f]);
      untraced_s += u.wall_s;
      traced_s += t.wall_s;
      offered += t.frames_offered;
      failed_frames += t.frames_failed;
      ticks += t.ticks;
      samples += t.samples;
      full += t.full_samples;
      peak = std::max(peak, t.peak_buffered_bytes);
      ++sessions;
    }
  } while (!measured_enough(t0, a.seconds, true));

  const SelfTimes st = self_times(log);
  const double n = static_cast<double>(sessions);
  std::map<std::string, double> per_run =
      print_layer_table(a.workload, st, n, "traced session wall");
  auto span_ms = [&](const char* name) {
    auto it = st.span_ns.find(name);
    return it == st.span_ns.end() ? 0.0 : it->second / 1e6 / n;
  };
  const double traced_ms = traced_s * 1e3 / n;
  const double untraced_ms = untraced_s * 1e3 / n;
  std::printf("tracing overhead: traced %.4f - untraced %.4f = %.4f "
              "ms/session (%zu session pairs)\n",
              traced_ms, untraced_ms, traced_ms - untraced_ms, sessions);

  rep.tally(offered, failed_frames, "frames offered");
  emit_layer_metrics(
      rep, {{"stream.offer_ms", span_ms("stream.offer")},
            {"stream.tick_ms", span_ms("stream.tick")},
            {"stream.finish_ms", span_ms("stream.finish_all")},
            {"stream.report_ms", span_ms("stream.final_report")},
            {"stream.ticks", ratio(ticks, n)},
            {"stream.full_share", ratio(full, samples)},
            {"stream.peak_buffered_bytes", static_cast<double>(peak)},
            {"residual_ms_per_run", per_run["run"]},
            {"failed_share", rep.failed_share()},
            {"tracing_overhead_ms_per_run", traced_ms - untraced_ms},
            {"run_ms_p99", p99_of(round_ms)}});

  write_spans(a, log);
  rep.gate("final_report bit-identical to pipeline::analyze",
           mismatched == 0,
           std::to_string(2 * sessions) + " sessions, " +
               std::to_string(mismatched) + " differ");
  Fnv digest;
  for (const std::string& report : batch) digest.text(report);
  print_digest(a, digest.h);
}

}  // namespace
}  // namespace sentbench

int main(int argc, char** argv) {
  using namespace sentbench;
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (!spec) usage("unknown workload " + args.workload);

  const BuildInfo build = build_info();
  const std::size_t hardware = hardware_threads();
  std::printf("sentbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build compiler=\"%s\" type=%s flags=\"%s\" "
              "hardware_threads=%zu workers=%zu\n",
              build.compiler.c_str(), build.build_type.c_str(),
              build.flags.c_str(), hardware, kWorkers);
  const std::vector<std::string> refused =
      guard_violations(build, hardware, kWorkers);
  for (const std::string& why : refused)
    std::fprintf(stderr, "sentbench: refusing to run: %s\n", why.c_str());
  if (!refused.empty()) return 3;

  Report report;
  try {
    if (spec->fleet) {
      if (args.trace) fleet_traced(args, report);
      else fleet_untraced(args, report);
    } else {
      if (args.trace) campaign_traced(args, *spec, report);
      else campaign_untraced(args, *spec, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sentbench: %s\n", e.what());
    return 1;
  }
  report.print_json();
  return report.correct() ? 0 : 1;
}

// Every call the benchmark makes into the program (see adapter.hpp).
#include "adapter.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "core/anatomizer.hpp"
#include "core/detector.hpp"
#include "core/features.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "ml/detectors.hpp"
#include "ml/error.hpp"
#include "ml/ocsvm.hpp"
#include "os/irq.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/sentomist.hpp"
#include "pipeline/worker_pool.hpp"
#include "stream/ingest.hpp"
#include "trace/framing.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "digest.hpp"

namespace sentbench {

using namespace sent;

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  events += o.events;
  instructions += o.instructions;
  trace_bytes += o.trace_bytes;
  loads += o.loads;
  complete_loads += o.complete_loads;
  intervals += o.intervals;
  fits += o.fits;
  rows += o.rows;
  smo_iterations += o.smo_iterations;
  support_vectors += o.support_vectors;
  fallbacks += o.fallbacks;
  return *this;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

RunResult result_of(std::uint64_t seed,
                    const pipeline::AnalysisReport& report) {
  RunResult r;
  r.seed = seed;
  r.completed = true;
  r.first_bug_rank = report.first_bug_rank();
  r.triggered = report.buggy_count() > 0;
  Fnv fnv;
  for (const pipeline::RankedEntry& e : report.ranking) {
    fnv.u64(e.sample_index);
    fnv.f64(e.score);
  }
  r.ranking_digest = fnv.h;
  return r;
}

// Canonical text of a report: every field the batch-parity claim covers,
// floats in hex so equal text means bit-identical values.
std::string canonical(const pipeline::AnalysisReport& report) {
  std::string out;
  char buf[160];
  for (const pipeline::Sample& s : report.samples) {
    const core::EventInterval& i = s.interval;
    std::snprintf(buf, sizeof buf,
                  "s %u %zu %d %u %zu %zu %llu %llu %zu %zu %d", s.node_id,
                  s.run, s.has_bug ? 1 : 0,
                  static_cast<unsigned>(i.irq), i.start_index, i.end_index,
                  static_cast<unsigned long long>(i.start_cycle),
                  static_cast<unsigned long long>(i.end_cycle), i.task_count,
                  i.seq_in_type, i.truncated ? 1 : 0);
    out += buf;
    for (const std::string& kind : s.bug_kinds) out += " " + kind;
    out += '\n';
  }
  for (double v : report.scores) {
    std::snprintf(buf, sizeof buf, "v %a\n", v);
    out += buf;
  }
  for (const pipeline::RankedEntry& e : report.ranking) {
    std::snprintf(buf, sizeof buf, "r %zu %a\n", e.sample_index, e.score);
    out += buf;
  }
  out += "d " + report.detector_name + " " +
         std::to_string(report.feature_dim) + " " +
         (report.degraded ? "degraded " + report.degradation : "ok") + "\n";
  return out;
}

std::uint64_t records_of(const trace::NodeTrace& t) {
  return t.lifecycle.size() + t.instrs.size() + t.bugs.size();
}

// ------------------------------------------------------------ workloads

enum class Kind { ChaosII, CleanIII, PooledI };

Kind kind_of(const std::string& workload) {
  if (workload == "chaos-II") return Kind::ChaosII;
  if (workload == "clean-III") return Kind::CleanIII;
  if (workload == "pooled-I") return Kind::PooledI;
  throw std::invalid_argument("not a campaign workload: " + workload);
}

// chaos-II: the ext_campaign --scale leg.
//
// Its injected trace truncation leaves no complete interval in about one
// run in a thousand, and the runner throws for that run. The campaign runs
// under the program's bounded retry policy (DESIGN.md section 13): such a
// seed is attempted again at a seed retry_seed_offset away, and only a
// seed that fails all 1 + kChaosRetries attempts counts as failed. Without
// retries, how many failed runs a timed run met depended on how many
// passes fitted into it.
constexpr std::size_t kChaosRetries = 2;

pipeline::CaseRunnerConfig chaos_config() {
  pipeline::CaseRunnerConfig c;
  c.intensity = 0.5;
  c.event_budget = 50'000'000;
  c.trace_round_trip = true;
  return c;
}

apps::Case2Config chaos_case2(std::uint64_t seed) {
  const pipeline::CaseRunnerConfig cfg = chaos_config();
  apps::Case2Config c;
  c.seed = seed;
  c.faults = fault::FaultPlan::at_intensity(cfg.intensity);
  c.event_budget = cfg.event_budget;
  return c;
}

apps::Case3Config clean_case3(std::uint64_t seed) {
  apps::Case3Config c;
  c.seed = seed;
  return c;
}

// pooled-I: the Fig. 5(a) configuration (five sample periods, 10 s each),
// all five traces ranked together.
apps::Case1Config pooled_case1(std::uint64_t seed) {
  apps::Case1Config c;
  c.seed = seed;
  return c;
}

std::vector<pipeline::TaggedTrace> case1_traces(const apps::Case1Result& r) {
  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    traces.push_back({&r.runs[i].sensor_trace, i});
  return traces;
}

/// The program's pooled-I runner: a worker-local arena, run_case1, and
/// pipeline::analyze over the five traces.
pipeline::ScenarioRunnerFactory pooled_case1_factory() {
  return [](std::size_t) -> pipeline::ScenarioRunner {
    auto arena = std::make_shared<apps::WorldArena>();
    return [arena](std::uint64_t seed) {
      apps::Case1Result r = apps::run_case1(pooled_case1(seed), arena.get());
      pipeline::AnalysisReport report =
          pipeline::analyze(case1_traces(r), os::irq::kAdc);
      for (apps::Case1Run& run : r.runs)
        arena->recycle(std::move(run.sensor_trace));
      return report;
    };
  };
}

pipeline::ScenarioRunnerFactory program_factory(Kind kind) {
  switch (kind) {
    case Kind::ChaosII:
      return pipeline::make_case_runner_factory("II", chaos_config());
    case Kind::CleanIII:
      return pipeline::make_case_runner_factory("III", {});
    case Kind::PooledI:
      return pooled_case1_factory();
  }
  throw std::logic_error("unreachable");
}

// ------------------------------------------------------- traced rebuild

/// One worker's rebuilt runner: the program runner's steps, each a public
/// layer call inside a span.
struct RebuiltRunner {
  Kind kind;
  SpanLog* log;
  std::size_t lane;
  SpanRef campaign;
  LayerCounts counts;
  apps::WorldArena arena;

  RebuiltRunner(Kind k, SpanLog* l, std::size_t ln, SpanRef c)
      : kind(k), log(l), lane(ln), campaign(c) {}

  /// pipeline::analyze, call by call (anatomize, featurize, score with
  /// the k-NN fallback, normalize + rank).
  pipeline::AnalysisReport analyze(
      const std::vector<pipeline::TaggedTrace>& traces, trace::IrqLine line,
      std::uint64_t seed) {
    pipeline::AnalysisReport report;
    core::FeatureMatrix matrix;
    for (const pipeline::TaggedTrace& tagged : traces) {
      const trace::NodeTrace& t = *tagged.trace;
      std::vector<core::EventInterval> intervals;
      {
        ScopedSpan s(log, lane, "core.anatomize", seed);
        core::Anatomizer anatomizer(t);
        intervals = anatomizer.intervals_for(line);
      }
      counts.intervals += intervals.size();
      if (intervals.empty()) continue;
      {
        ScopedSpan s(log, lane, "core.featurize", seed);
        core::append_rows(matrix, core::instruction_counters(t, intervals));
      }
      for (const core::EventInterval& interval : intervals) {
        pipeline::Sample sample;
        sample.node_id = t.node_id;
        sample.run = tagged.run;
        sample.interval = interval;
        for (const trace::BugMarker& bug : t.bugs) {
          if (bug.cycle >= interval.start_cycle &&
              bug.cycle <= interval.end_cycle) {
            sample.has_bug = true;
            sample.bug_kinds.push_back(bug.kind);
          }
        }
        report.samples.push_back(std::move(sample));
      }
    }
    if (report.samples.empty())
      throw std::runtime_error("no event-handling intervals");

    ++counts.fits;
    counts.rows += matrix.size();
    report.feature_dim = matrix.dim();
    {
      ScopedSpan s(log, lane, "ml.score", seed);
      ml::OneClassSvm svm;
      report.detector_name = svm.name();
      try {
        report.scores = svm.score(matrix.values);
        counts.smo_iterations += svm.iterations_used();
        counts.support_vectors += svm.support_vector_count();
      } catch (const ml::TrainingError& e) {
        ++counts.fallbacks;
        ml::KnnDetector fallback;
        report.scores = fallback.score(matrix.values);
        report.detector_name = fallback.name() + " (fallback)";
        report.degraded = true;
        report.degradation = e.what();
      }
    }
    {
      ScopedSpan s(log, lane, "core.rank", seed);
      core::normalize_scores(report.scores);
      for (const core::RankedSample& r : core::rank_ascending(report.scores))
        report.ranking.push_back({r.index, r.score});
    }
    return report;
  }

  pipeline::AnalysisReport chaos_ii(std::uint64_t seed) {
    const apps::Case2Config c = chaos_case2(seed);
    apps::Case2Result r;
    {
      ScopedSpan s(log, lane, "apps.run_case2", seed);
      r = apps::run_case2(c, &arena);
    }
    counts.events += r.events_executed;
    counts.instructions += r.relay_trace.instrs.size();
    std::string text;
    {
      ScopedSpan s(log, lane, "trace.save", seed);
      std::ostringstream saved;
      trace::save_trace(r.relay_trace, saved);
      text = saved.str();
    }
    counts.trace_bytes += text.size();
    {
      ScopedSpan s(log, lane, "fault.perturb", seed);
      util::Rng rng = util::Rng(seed).substream("trace-faults");
      text = fault::FaultInjector::perturb_trace_text(std::move(text),
                                                      c.faults, rng);
    }
    trace::LenientLoadResult loaded;
    {
      ScopedSpan s(log, lane, "trace.load", seed);
      std::istringstream in(text);
      loaded = trace::load_trace_lenient(in);
    }
    ++counts.loads;
    counts.complete_loads += loaded.complete;
    pipeline::AnalysisReport report =
        analyze({{&loaded.trace, 0}}, os::irq::kRadioSpi, seed);
    arena.recycle(std::move(loaded.trace));
    arena.recycle(std::move(r.relay_trace));
    return report;
  }

  pipeline::AnalysisReport clean_iii(std::uint64_t seed) {
    apps::Case3Result r;
    {
      ScopedSpan s(log, lane, "apps.run_case3", seed);
      r = apps::run_case3(clean_case3(seed), &arena);
    }
    counts.events += r.events_executed;
    for (const trace::NodeTrace& t : r.traces)
      counts.instructions += t.instrs.size();
    std::vector<pipeline::TaggedTrace> traces;
    for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
    pipeline::AnalysisReport report = analyze(traces, r.report_line, seed);
    arena.recycle_all(r.traces);
    return report;
  }

  pipeline::AnalysisReport pooled_i(std::uint64_t seed) {
    apps::Case1Result r;
    {
      ScopedSpan s(log, lane, "apps.run_case1", seed);
      r = apps::run_case1(pooled_case1(seed), &arena);
    }
    counts.events += r.events_executed;
    for (const apps::Case1Run& run : r.runs)
      counts.instructions += run.sensor_trace.instrs.size();
    pipeline::AnalysisReport report =
        analyze(case1_traces(r), os::irq::kAdc, seed);
    for (apps::Case1Run& run : r.runs)
      arena.recycle(std::move(run.sensor_trace));
    return report;
  }

  pipeline::AnalysisReport operator()(std::uint64_t seed) {
    ScopedSpan run(log, lane, "run", seed, campaign);
    switch (kind) {
      case Kind::ChaosII: return chaos_ii(seed);
      case Kind::CleanIII: return clean_iii(seed);
      case Kind::PooledI: return pooled_i(seed);
    }
    throw std::logic_error("unreachable");
  }
};

/// Appends a runner call's wall time to its worker's lane on scope exit,
/// so calls that throw are timed too.
struct CallTimer {
  std::vector<double>& lane;
  Clock::time_point t0 = Clock::now();
  ~CallTimer() { lane.push_back(ms_since(t0)); }
};

CampaignResult result_of(const pipeline::CampaignStats& stats,
                         double wall_s) {
  CampaignResult out;
  out.stats_json = pipeline::stats_json(stats);
  out.runs = stats.runs;
  out.failed = stats.failed + stats.timed_out;
  out.retried = stats.retried;
  out.triggered = stats.triggered;
  out.detected = stats.detected_top_k;
  out.wall_s = wall_s;
  return out;
}

pipeline::CampaignOptions options_for(Kind kind, std::uint64_t first_seed,
                                      std::size_t runs,
                                      std::size_t workers) {
  pipeline::CampaignOptions options;
  options.first_seed = first_seed;
  options.runs = runs;
  options.k = kTopK;
  options.threads = workers;
  if (kind == Kind::ChaosII) options.max_retries = kChaosRetries;
  return options;
}

/// Per-worker runner-call results, merged into seed order. A call that
/// throws leaves its entry with completed == false.
struct CallResults {
  explicit CallResults(std::size_t workers) : lanes(workers) {}

  std::vector<std::vector<RunResult>> lanes;

  /// Runs one call on worker `w`'s lane and records how it ended.
  template <typename Call>
  pipeline::AnalysisReport record(std::size_t w, std::uint64_t seed,
                                  Call&& call) {
    const std::size_t slot = lanes[w].size();
    lanes[w].push_back({});
    lanes[w][slot].seed = seed;
    pipeline::AnalysisReport report = call();
    lanes[w][slot] = result_of(seed, report);
    return report;
  }

  void append_to(std::vector<RunResult>& out) const {
    const std::size_t first = out.size();
    for (const std::vector<RunResult>& lane : lanes)
      out.insert(out.end(), lane.begin(), lane.end());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.seed < b.seed;
              });
  }
};

}  // namespace

// ------------------------------------------------------------- Campaign

struct Campaign::Impl {
  Kind kind;
  std::size_t workers;
  pipeline::ScenarioRunnerFactory factory;
  /// One program runner per worker, built on first use and kept, so its
  /// arena stays warm across campaigns.
  std::vector<pipeline::ScenarioRunner> runners;
};

Campaign::Campaign(const std::string& workload, std::size_t workers)
    : impl_(std::make_unique<Impl>()) {
  impl_->kind = kind_of(workload);
  impl_->workers = workers;
  impl_->factory = program_factory(impl_->kind);
  impl_->runners.resize(workers);
}

Campaign::~Campaign() = default;

CampaignResult Campaign::run(std::uint64_t first_seed, std::size_t runs,
                             std::vector<double>& call_ms,
                             std::vector<RunResult>* results) {
  Impl& m = *impl_;
  std::vector<std::vector<double>> lanes(m.workers);
  CallResults calls(m.workers);
  // Invoked on worker `w`'s own thread; each worker touches only its own
  // runner and lanes.
  auto factory = [&](std::size_t w) -> pipeline::ScenarioRunner {
    if (!m.runners.at(w)) m.runners[w] = m.factory(w);
    return [&, w](std::uint64_t seed) {
      auto call = [&] {
        CallTimer timer{lanes[w]};
        return m.runners[w](seed);
      };
      return results ? calls.record(w, seed, call) : call();
    };
  };
  const Clock::time_point t0 = Clock::now();
  pipeline::CampaignStats stats = pipeline::run_campaign(
      factory, options_for(m.kind, first_seed, runs, m.workers));
  const double wall_s = ms_since(t0) / 1e3;
  for (std::vector<double>& lane : lanes)
    call_ms.insert(call_ms.end(), lane.begin(), lane.end());
  if (results) calls.append_to(*results);
  return result_of(stats, wall_s);
}

CampaignResult Campaign::run_traced(std::uint64_t first_seed,
                                    std::size_t runs, SpanLog& log,
                                    LayerCounts& counts,
                                    std::vector<RunResult>& results) {
  Impl& m = *impl_;
  std::vector<std::unique_ptr<RebuiltRunner>> rebuilt(m.workers);
  CallResults calls(m.workers);
  pipeline::CampaignStats stats;
  double wall_s = 0.0;
  {
    ScopedSpan campaign(&log, 0, "pipeline.run_campaign", first_seed, {},
                        static_cast<std::uint32_t>(m.workers));
    auto factory = [&](std::size_t w) -> pipeline::ScenarioRunner {
      rebuilt.at(w) =
          std::make_unique<RebuiltRunner>(m.kind, &log, w + 1, campaign.ref());
      RebuiltRunner* runner = rebuilt[w].get();
      return [&, w, runner](std::uint64_t seed) {
        return calls.record(w, seed, [&] { return (*runner)(seed); });
      };
    };
    const Clock::time_point t0 = Clock::now();
    stats = pipeline::run_campaign(
        factory, options_for(m.kind, first_seed, runs, m.workers));
    wall_s = ms_since(t0) / 1e3;
  }
  for (const std::unique_ptr<RebuiltRunner>& r : rebuilt)
    if (r) counts += r->counts;
  calls.append_to(results);
  return result_of(stats, wall_s);
}

std::uint64_t Campaign::simulated_records(
    const std::vector<RunResult>& calls) {
  apps::WorldArena arena;
  std::uint64_t records = 0;
  for (const RunResult& call : calls) {
    const std::uint64_t seed = call.seed;
    try {
      switch (impl_->kind) {
        case Kind::ChaosII: {
          apps::Case2Result r = apps::run_case2(chaos_case2(seed), &arena);
          records += records_of(r.relay_trace);
          arena.recycle(std::move(r.relay_trace));
          break;
        }
        case Kind::CleanIII: {
          apps::Case3Result r = apps::run_case3(clean_case3(seed), &arena);
          for (net::NodeId src : r.sources)
            records += records_of(r.traces[src]);
          arena.recycle_all(r.traces);
          break;
        }
        case Kind::PooledI: {
          apps::Case1Result r = apps::run_case1(pooled_case1(seed), &arena);
          for (apps::Case1Run& run : r.runs) {
            records += records_of(run.sensor_trace);
            arena.recycle(std::move(run.sensor_trace));
          }
          break;
        }
      }
    } catch (const std::exception&) {
      // A run the campaign counts as failed contributes no records.
    }
  }
  return records;
}

// ---------------------------------------------------------------- Fleet

struct Fleet::Impl {
  std::size_t streams = 0;
  /// runs[f][d]: device d of fleet f.
  std::vector<std::vector<apps::Case2Result>> runs;
  std::vector<std::vector<std::vector<std::vector<std::uint8_t>>>> frames;
  std::vector<std::uint64_t> records;  ///< per fleet
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<pipeline::AnalysisReport> last_report;  ///< per fleet

  pipeline::AnalysisOptions options() const {
    pipeline::AnalysisOptions o;
    o.pool = pool.get();
    return o;
  }

  stream::IngestConfig config(std::size_t fleet) const {
    stream::IngestConfig c;
    c.line = os::irq::kRadioSpi;
    c.instr_table = runs[fleet].front().relay_trace.instr_table;
    c.pool = pool.get();
    return c;
  }
};

Fleet::Fleet(std::uint64_t first_seed, std::size_t fleets,
             std::size_t streams, double virtual_seconds)
    : impl_(std::make_unique<Impl>()) {
  Impl& m = *impl_;
  m.streams = streams;
  m.runs.resize(fleets);
  m.records.resize(fleets);
  m.last_report.resize(fleets);
  for (std::size_t f = 0; f < fleets; ++f) {
    for (std::size_t d = 0; d < streams; ++d) {
      apps::Case2Config c;
      c.seed = first_seed + f * streams + d;
      c.run_seconds = virtual_seconds;
      m.runs[f].push_back(apps::run_case2(c));
      m.records[f] += records_of(m.runs[f].back().relay_trace);
    }
  }
}

Fleet::~Fleet() = default;

std::size_t Fleet::fleets() const { return impl_->runs.size(); }
std::size_t Fleet::streams() const { return impl_->streams; }

void Fleet::set_up(std::size_t workers) {
  Impl& m = *impl_;
  m.pool.reset();
  m.frames.assign(m.runs.size(), {});
  for (std::size_t f = 0; f < m.runs.size(); ++f)
    for (std::size_t d = 0; d < m.runs[f].size(); ++d)
      m.frames[f].push_back(trace::encode_trace(
          m.runs[f][d].relay_trace, static_cast<std::uint32_t>(d)));
  m.pool = std::make_unique<util::ThreadPool>(workers);
  for (std::size_t f = 0; f < m.runs.size(); ++f)
    stream::FleetIngest ingest(m.config(f));
}

FleetSession Fleet::session(std::size_t fleet, std::vector<double>& tick_ms,
                            std::vector<double>& round_ms, SpanLog* log,
                            std::uint64_t span_id) {
  Impl& m = *impl_;
  if (!m.pool) throw std::logic_error("Fleet::session before set_up");
  const std::vector<std::vector<std::vector<std::uint8_t>>>& frames =
      m.frames.at(fleet);
  stream::FleetIngest ingest(m.config(fleet));
  const pipeline::AnalysisOptions options = m.options();

  FleetSession out;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan session(log, 0, "run", span_id);
    // Lockstep over a clean transport, as bench/ext_fleet drives it: round
    // r offers frame r of every stream, then the service ticks; the last
    // round's offers are followed by finish_all() instead.
    for (std::size_t round = 0;; ++round) {
      const Clock::time_point r0 = Clock::now();
      bool any_left = false;
      for (std::size_t d = 0; d < frames.size(); ++d) {
        if (round < frames[d].size()) {
          stream::Admit admit;
          {
            ScopedSpan s(log, 0, "stream.offer", span_id);
            admit = ingest.offer(static_cast<std::uint32_t>(d),
                                 frames[d][round]);
          }
          ++out.frames_offered;
          out.frames_failed += admit != stream::Admit::Accepted;
        }
        any_left = any_left || round + 1 < frames[d].size();
      }
      if (!any_left) break;
      const Clock::time_point k0 = Clock::now();
      {
        ScopedSpan s(log, 0, "stream.tick", span_id);
        ingest.tick();
      }
      tick_ms.push_back(ms_since(k0));
      round_ms.push_back(ms_since(r0));
    }
    {
      ScopedSpan s(log, 0, "stream.finish_all", span_id);
      ingest.finish_all();
    }
    {
      ScopedSpan s(log, 0, "stream.final_report", span_id);
      m.last_report[fleet] = ingest.final_report(options);
    }
  }
  out.wall_s = ms_since(t0) / 1e3;

  out.records = m.records[fleet];
  out.ticks = ingest.now();
  out.samples = ingest.sample_count();
  for (stream::ScoreMode mode : ingest.sample_modes())
    out.full_samples += mode == stream::ScoreMode::Full;
  for (const stream::StreamStatus& st : ingest.status())
    out.frames_failed += st.counters.frames_quarantined;
  out.peak_buffered_bytes = ingest.peak_buffered_bytes();
  out.report = canonical(m.last_report[fleet]);
  return out;
}

std::string Fleet::batch_report(std::size_t fleet) const {
  const std::vector<apps::Case2Result>& runs = impl_->runs.at(fleet);
  std::vector<pipeline::TaggedTrace> tagged;
  for (std::size_t d = 0; d < runs.size(); ++d)
    tagged.push_back({&runs[d].relay_trace, d});
  return canonical(
      pipeline::analyze(tagged, os::irq::kRadioSpi, impl_->options()));
}

Fleet::Detection Fleet::detection() const {
  Detection out;
  for (const pipeline::AnalysisReport& report : impl_->last_report) {
    for (std::size_t device = 0; device < impl_->streams; ++device) {
      ++out.devices;
      std::size_t rank = 0, first_bug = 0;
      for (const pipeline::RankedEntry& e : report.ranking) {
        const pipeline::Sample& s = report.samples[e.sample_index];
        if (s.run != device) continue;
        ++rank;
        if (s.has_bug) {
          first_bug = rank;
          break;
        }
      }
      if (first_bug == 0) continue;
      ++out.triggered;
      out.detected += first_bug <= kTopK;
    }
  }
  return out;
}

}  // namespace sentbench

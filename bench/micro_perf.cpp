// Micro-benchmarks: throughput of the pieces the Sentomist pipeline is
// built from — the emulator, the lifecycle parser, the featurizer, and the
// one-class SVM.
//
// Besides the google-benchmark suite, this binary owns the ML data-plane
// benchmark (DESIGN.md §10): an (l, d) grid timing a per-element kernel
// build (one kernel_eval per entry) against the norm-cached blocked build,
// the OCSVM fit and compact-SV batch inference, written to BENCH_ml.json.
// The grid's i.i.d. rows are all distinct; one configuration repeats 33
// distinct rows to l = 1137 (d = 22), the shape of pooled Fig. 5(a)
// features, so the fit's distinct-row Gram is exercised too. Flags:
//   --quick          small grid, skip the google-benchmark suite (CI smoke)
//   --ml-json PATH   where to write BENCH_ml.json (default ./BENCH_ml.json)
// The process exits nonzero unless the blocked kernel build beats the
// per-element build by kMinKernelSpeedup on the largest i.i.d. entry.
// Numerical parity is checked in ctest (ml_test, ocsvm_reference_test).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/anatomizer.hpp"
#include "core/features.hpp"
#include "ml/kernel.hpp"
#include "ml/ocsvm.hpp"
#include "os/node.hpp"
#include "pipeline/campaign.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace sent;

namespace {

// ------------------------------------------------------- event queue

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule_at(rng.below(1 << 20), [&sink] { ++sink; });
    q.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------- emulator

void BM_MachineInterruptRate(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    os::Node node(0, q);
    std::uint64_t work = 0;
    mcu::CodeId handler = mcu::CodeBuilder("h", false)
                              .instr("a", [&] { ++work; })
                              .instr("b", [&] { ++work; })
                              .instr("c", [&] { ++work; })
                              .build(node.program());
    node.machine().register_handler(5, handler);
    trace::IrqLine line = node.timers().create("t");
    mcu::CodeId timer_handler =
        mcu::CodeBuilder("th", false)
            .instr("raise", [&] { node.machine().raise_irq(5); })
            .build(node.program());
    node.machine().register_handler(line, timer_handler);
    node.timers().start_periodic(line, 1000);
    q.run_until(sim::cycles_from_millis(100));
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_MachineInterruptRate);

// ----------------------------------------------------------- parsing

// A realistic trace to anatomize: case-I sensor node, one run.
const trace::NodeTrace& sample_trace() {
  static const trace::NodeTrace t = [] {
    apps::Case1Config config;
    config.seed = 5;
    config.sample_periods_ms = {20};
    config.run_seconds = 10.0;
    auto r = apps::run_case1(config);
    return r.runs[0].sensor_trace;
  }();
  return t;
}

void BM_AnatomizeTrace(benchmark::State& state) {
  const trace::NodeTrace& t = sample_trace();
  for (auto _ : state) {
    core::Anatomizer anatomizer(t);
    auto intervals = anatomizer.intervals_for(os::irq::kAdc);
    benchmark::DoNotOptimize(intervals.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(t.lifecycle.size()) * state.iterations());
}
BENCHMARK(BM_AnatomizeTrace);

void BM_InstructionCounters(benchmark::State& state) {
  const trace::NodeTrace& t = sample_trace();
  core::Anatomizer anatomizer(t);
  auto intervals = anatomizer.intervals_for(os::irq::kAdc);
  for (auto _ : state) {
    auto m = core::instruction_counters(t, intervals);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(intervals.size()) *
                          state.iterations());
}
BENCHMARK(BM_InstructionCounters);

// --------------------------------------------------------------- SVM

ml::Matrix random_matrix(std::size_t l, std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Matrix x(l, d);
  double* p = x.data();
  for (std::size_t i = 0, n = l * d; i < n; ++i) p[i] = rng.normal();
  return x;
}

/// l rows that repeat `distinct` random rows (each at least once) in
/// shuffled order; distinct == 0 means l i.i.d. rows.
ml::Matrix repeated_matrix(std::size_t l, std::size_t d, std::size_t distinct,
                           std::uint64_t seed) {
  if (distinct == 0) return random_matrix(l, d, seed);
  ml::Matrix rows = random_matrix(distinct, d, seed);
  util::Rng rng(seed + 1);
  std::vector<std::size_t> pick;
  for (std::size_t i = 0; i < l; ++i)
    pick.push_back(i < distinct ? i : rng.below(distinct));
  rng.shuffle(pick);
  ml::Matrix x(0, d);
  for (std::size_t k : pick) x.append_row(rows.row(k));
  return x;
}

void BM_OcsvmFitScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::Matrix rows = random_matrix(n, 20, 2);
  for (auto _ : state) {
    ml::OneClassSvm svm;
    auto scores = svm.score(rows);
    benchmark::DoNotOptimize(scores[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_OcsvmFitScore)->Arg(200)->Arg(1000);

// Kernel-matrix build fanned across a pool: Arg is the pool's thread
// count, so comparing Arg(1) vs Arg(N) rows shows the parallel speedup
// directly. The pool is built once, outside the timed loop.
void BM_OcsvmKernelParallel(benchmark::State& state) {
  ml::Matrix rows = random_matrix(600, 40, 2);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ml::OcsvmParams params;
  params.pool = &pool;
  params.max_iter = 1;  // isolate the kernel build, not the SMO loop
  for (auto _ : state) {
    ml::OneClassSvm svm(params);
    svm.fit(rows);
    benchmark::DoNotOptimize(svm.rho());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(600 * 600) *
                          state.iterations());
}
BENCHMARK(BM_OcsvmKernelParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

// ------------------------------------------------------ whole pipeline

// A small case-II campaign with Arg worker threads; Arg(1) is the serial
// baseline for the multi-core fan-out speedup.
void BM_CampaignParallel(benchmark::State& state) {
  pipeline::CampaignOptions options;
  options.first_seed = 1;
  options.runs = 4;
  options.k = 5;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pipeline::CampaignStats stats = pipeline::run_campaign(
        [](std::uint64_t seed) {
          apps::Case2Config config;
          config.seed = seed;
          config.run_seconds = 5.0;
          auto r = apps::run_case2(config);
          return pipeline::analyze({{&r.relay_trace, 0}},
                                   os::irq::kRadioSpi);
        },
        options);
    benchmark::DoNotOptimize(stats.triggered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(options.runs) *
                          state.iterations());
}
BENCHMARK(BM_CampaignParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_Case2EndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    apps::Case2Config config;
    config.seed = 3;
    config.run_seconds = 5.0;
    auto r = apps::run_case2(config);
    benchmark::DoNotOptimize(r.relay_received);
  }
}
BENCHMARK(BM_Case2EndToEnd)->Unit(benchmark::kMillisecond);

// --------------------------------------------- ML data-plane benchmark

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of fn(), in milliseconds.
template <typename Fn>
double time_best_ms(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

struct MlShape {
  std::size_t l = 0, d = 0;
  std::size_t distinct = 0;  ///< 0: i.i.d. rows
};

struct MlGridResult {
  std::size_t l = 0, d = 0, distinct_rows = 0;
  double kernel_ref_ms = 0, kernel_opt_ms = 0;
  double fit_ms = 0;
  std::size_t iters = 0;
  std::size_t sv_count = 0;
  double decision_ms = 0;
};

/// The blocked build must be at least this much faster than the
/// per-element one on the largest i.i.d. grid entry. It measures 5-6x on a
/// 4-core x86 host; a per-element loop in its place reads 0.8-1.3x,
/// which a bare "faster" test lets through in most runs.
constexpr double kMinKernelSpeedup = 2.0;

/// The yardstick for the blocked build: one kernel_eval per upper-triangle
/// entry, mirrored, inline.
void per_element_gram(const ml::KernelSpec& spec, double gamma,
                      const ml::Matrix& x, std::vector<double>& out) {
  const std::size_t l = x.rows();
  out.resize(l * l);
  for (std::size_t i = 0; i < l; ++i)
    for (std::size_t j = i; j < l; ++j)
      out[i * l + j] = out[j * l + i] =
          ml::kernel_eval(spec, gamma, x.row(i), x.row(j));
}

MlGridResult run_ml_config(MlShape shape) {
  const std::size_t l = shape.l, d = shape.d;
  MlGridResult res;
  res.l = l;
  res.d = d;
  res.distinct_rows = shape.distinct == 0 ? l : shape.distinct;
  ml::Matrix x = repeated_matrix(l, d, shape.distinct, 0xfeed + l + d);
  ml::KernelSpec spec;  // RBF
  double gamma = ml::resolve_gamma(d);
  const std::size_t reps = l >= 1000 ? 2 : 3;

  // Untimed warm-up: sizes both output buffers and faults their pages in,
  // so the timed reps measure the build itself rather than the first-touch
  // cost of a fresh l*l allocation.
  std::vector<double> k_ref, k_opt;
  per_element_gram(spec, gamma, x, k_ref);
  ml::build_kernel_matrix(spec, gamma, x, nullptr, k_opt);
  res.kernel_ref_ms =
      time_best_ms(reps, [&] { per_element_gram(spec, gamma, x, k_ref); });
  res.kernel_opt_ms = time_best_ms(reps, [&] {
    ml::build_kernel_matrix(spec, gamma, x, nullptr, k_opt);
  });

  ml::OcsvmParams params;
  params.nu = 0.1;
  ml::OneClassSvm svm(params);
  res.fit_ms = time_best_ms(1, [&] { svm.fit(x); });
  res.iters = svm.iterations_used();
  res.sv_count = svm.support_vector_count();
  res.decision_ms = time_best_ms(reps, [&] { svm.decision_batch(x); });
  return res;
}

int run_ml_bench(bool quick, const std::string& json_path) {
  std::vector<MlShape> grid = {{300, 32}, {600, 64}};
  if (!quick) {
    grid.push_back({1000, 64});
    grid.push_back({2000, 64});
  }
  grid.push_back({1137, 22, 33});

  std::printf("ML data plane: per-element vs blocked kernel build (%s grid)\n",
              quick ? "quick" : "full");
  std::vector<MlGridResult> results;
  for (MlShape shape : grid) {
    MlGridResult r = run_ml_config(shape);
    std::printf(
        "l=%4zu d=%3zu distinct=%4zu  kernel %8.2f -> %8.2f ms (x%.2f)  "
        "fit %8.2f ms  iters %6zu  sv %4zu  batch %7.2f ms\n",
        r.l, r.d, r.distinct_rows, r.kernel_ref_ms, r.kernel_opt_ms,
        r.kernel_ref_ms / std::max(r.kernel_opt_ms, 1e-9), r.fit_ms, r.iters,
        r.sv_count, r.decision_ms);
    results.push_back(r);
  }

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  os << "{\n  \"bench\": \"ml_data_plane\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"grid\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MlGridResult& r = results[i];
    os << "    {\"l\": " << r.l << ", \"d\": " << r.d
       << ", \"distinct_rows\": " << r.distinct_rows
       << ", \"kernel_ref_ms\": " << r.kernel_ref_ms
       << ", \"kernel_opt_ms\": " << r.kernel_opt_ms << ", \"kernel_speedup\": "
       << r.kernel_ref_ms / std::max(r.kernel_opt_ms, 1e-9)
       << ",\n     \"fit_opt_ms\": " << r.fit_ms
       << ", \"iters_opt\": " << r.iters << ", \"sv_count\": " << r.sv_count
       << ", \"decision_batch_opt_ms\": " << r.decision_ms << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.close();
  std::printf("wrote %s\n", json_path.c_str());

  // The largest i.i.d. grid entry (the one before the repeated-rows entry)
  // must show the blocked build winning by the floor's margin.
  const MlGridResult& last = results[results.size() - 2];
  if (last.kernel_ref_ms < kMinKernelSpeedup * last.kernel_opt_ms) {
    std::fprintf(stderr,
                 "blocked kernel build (%.2f ms) is not %.1fx faster than "
                 "the per-element build (%.2f ms) at l=%zu d=%zu\n",
                 last.kernel_opt_ms, kMinKernelSpeedup, last.kernel_ref_ms,
                 last.l, last.d);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string ml_json = "BENCH_ml.json";
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--ml-json") == 0 && i + 1 < argc) {
      ml_json = argv[++i];
    } else {
      fwd.push_back(argv[i]);
    }
  }

  int rc = run_ml_bench(quick, ml_json);
  if (rc != 0 || quick) return rc;

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

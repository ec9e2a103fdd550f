// Extension E6 — resilient streaming fleet ingest (DESIGN.md §14).
//
// Drives N concurrent seeded case-II device streams through the
// stream::FleetIngest service, twice:
//
//   clean — every frame arrives intact and in order. The final report must
//           be BIT-IDENTICAL to pipeline::analyze over the same traces
//           (the batch≡streaming equivalence claim, also enforced by
//           tests/stream_parity_test.cpp);
//   chaos — the same frames pass through fault::perturb_frames first, so
//           the *ingest itself* sees corruption, truncation, loss,
//           duplicates, reordering and producer stalls. The service must
//           survive (quarantine, gap-skips, degradation — never a crash),
//           stay within the retained-memory bound, and produce identical
//           results at --jobs 1 and --jobs N.
//
// Throughput, the peak retained-bytes proxy, and the quarantine /
// degradation counters land in BENCH_fleet.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "fault/stream_chaos.hpp"
#include "obs_flags.hpp"
#include "stream/ingest.hpp"
#include "trace/framing.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace sent;

namespace {

struct Feed {
  std::uint32_t device = 0;
  std::vector<fault::ChaosFrame> attempts;  ///< sorted by send_tick
  std::size_t next = 0;
};

/// Offer every attempt whose send tick has come, advancing the service
/// clock until all feeds drain; backpressured frames retry next tick.
void drive(stream::FleetIngest& ingest, std::vector<Feed>& feeds) {
  for (;;) {
    bool any_left = false;
    for (Feed& feed : feeds) {
      while (feed.next < feed.attempts.size() &&
             feed.attempts[feed.next].send_tick <= ingest.now()) {
        stream::Admit admit =
            ingest.offer(feed.device, feed.attempts[feed.next].bytes);
        if (admit == stream::Admit::Backpressure) break;
        if (admit == stream::Admit::Rejected) {  // stream went terminal
          feed.next = feed.attempts.size();
          break;
        }
        ++feed.next;
      }
      any_left = any_left || feed.next < feed.attempts.size();
    }
    if (!any_left) break;
    ingest.tick();
  }
  ingest.finish_all();
}

bool reports_identical(const pipeline::AnalysisReport& a,
                       const pipeline::AnalysisReport& b) {
  if (a.samples.size() != b.samples.size()) return false;
  if (a.scores != b.scores) return false;
  if (a.ranking.size() != b.ranking.size()) return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].sample_index != b.ranking[i].sample_index ||
        a.ranking[i].score != b.ranking[i].score)
      return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const pipeline::Sample& x = a.samples[i];
    const pipeline::Sample& y = b.samples[i];
    if (x.node_id != y.node_id || x.run != y.run ||
        x.has_bug != y.has_bug || x.bug_kinds != y.bug_kinds)
      return false;
    const core::EventInterval& p = x.interval;
    const core::EventInterval& q = y.interval;
    if (p.irq != q.irq || p.start_index != q.start_index ||
        p.end_index != q.end_index || p.start_cycle != q.start_cycle ||
        p.end_cycle != q.end_cycle || p.task_count != q.task_count ||
        p.seq_in_type != q.seq_in_type || p.truncated != q.truncated)
      return false;
  }
  return true;
}

struct ChaosOutcome {
  std::vector<stream::BoardEntry> board;
  std::vector<stream::StreamCounters> counters;
  std::vector<stream::ScoreMode> modes;
  std::size_t samples = 0;
  std::size_t peak_buffered = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t gap_skips = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t scored_full = 0;
  std::uint64_t scored_cached = 0;
  std::uint64_t scored_featurize_only = 0;
  std::size_t poisoned_streams = 0;

  bool operator==(const ChaosOutcome& other) const {
    if (board.size() != other.board.size()) return false;
    for (std::size_t i = 0; i < board.size(); ++i) {
      if (board[i].score != other.board[i].score ||
          board[i].device != other.board[i].device ||
          board[i].label != other.board[i].label ||
          board[i].mode != other.board[i].mode)
        return false;
    }
    return counters == other.counters && modes == other.modes &&
           samples == other.samples &&
           peak_buffered == other.peak_buffered &&
           quarantined == other.quarantined &&
           gap_skips == other.gap_skips &&
           backpressure == other.backpressure &&
           scored_full == other.scored_full &&
           scored_cached == other.scored_cached &&
           scored_featurize_only == other.scored_featurize_only &&
           poisoned_streams == other.poisoned_streams;
  }
};

ChaosOutcome run_chaos_fleet(
    const std::vector<std::vector<std::vector<std::uint8_t>>>& frames,
    const stream::IngestConfig& base, double intensity, std::uint64_t seed,
    util::ThreadPool* pool) {
  stream::IngestConfig config = base;
  config.pool = pool;
  // Tight ladder thresholds so the chaos storm actually climbs it.
  config.rescore_backlog = 8;
  config.cached_backlog = 24;
  config.featurize_only_backlog = 64;

  stream::FleetIngest ingest(config);
  fault::StreamChaosPlan plan = fault::StreamChaosPlan::at_intensity(intensity);
  std::vector<Feed> feeds;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Feed feed;
    feed.device = static_cast<std::uint32_t>(i);
    util::Rng rng =
        util::Rng(seed).substream("fleet-chaos-" + std::to_string(i));
    feed.attempts = fault::perturb_frames(frames[i], plan, rng);
    feeds.push_back(std::move(feed));
  }
  drive(ingest, feeds);

  ChaosOutcome out;
  out.board = ingest.board();
  out.modes = ingest.sample_modes();
  out.samples = ingest.sample_count();
  out.peak_buffered = ingest.peak_buffered_bytes();
  for (const stream::StreamStatus& st : ingest.status()) {
    out.counters.push_back(st.counters);
    out.quarantined += st.counters.frames_quarantined;
    out.gap_skips += st.counters.gap_skips;
    out.backpressure += st.counters.backpressure_signals;
    out.poisoned_streams += st.poisoned;
  }
  for (stream::ScoreMode mode : out.modes) {
    out.scored_full += mode == stream::ScoreMode::Full;
    out.scored_cached += mode == stream::ScoreMode::Cached;
    out.scored_featurize_only += mode == stream::ScoreMode::FeaturizeOnly;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("streams", "concurrent device streams", "6");
  cli.add_flag("first-seed", "seed of the first stream's run", "1");
  cli.add_flag("run-seconds", "simulated seconds per device run", "2.0");
  cli.add_flag("chaos", "ingest-chaos intensity (0 = clean transport)", "1");
  bench::add_jobs_flag(cli, "detector worker threads");
  cli.add_flag("json", "output file", "BENCH_fleet.json");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  const auto streams = static_cast<std::size_t>(cli.get_positive_int("streams"));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed"));
  const double run_seconds =
      cli.get_duration("run-seconds", sim::kCyclesPerSecond);
  const double chaos = cli.get_nonneg_double("chaos");
  std::size_t jobs = bench::parse_jobs(cli);

  bench::section("Extension E6: streaming fleet ingest");
  std::printf("%zu case-II streams, run %.1fs each, chaos intensity %g, "
              "--jobs %zu\n\n",
              streams, run_seconds, chaos, jobs);

  // ---- record the fleet and slice every trace into frames ----------------
  std::vector<apps::Case2Result> results;
  results.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    apps::Case2Config config;
    config.seed = first_seed + i;
    config.run_seconds = run_seconds;
    results.push_back(apps::run_case2(config));
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  std::size_t total_frames = 0, total_bytes = 0;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < streams; ++i) {
    frames.push_back(trace::encode_trace(results[i].relay_trace,
                                         static_cast<std::uint32_t>(i)));
    total_frames += frames.back().size();
    for (const auto& f : frames.back()) total_bytes += f.size();
    total_events += results[i].relay_trace.lifecycle.size() +
                    results[i].relay_trace.instrs.size();
  }
  std::printf("encoded: %zu frames, %.2f MiB, %llu records\n", total_frames,
              static_cast<double>(total_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(total_events));

  util::ThreadPool pool(jobs);
  stream::IngestConfig base;
  base.line = os::irq::kRadioSpi;
  base.instr_table = results[0].relay_trace.instr_table;

  // ---- clean phase: batch parity -----------------------------------------
  pipeline::AnalysisOptions options;
  options.pool = &pool;

  auto t0 = std::chrono::steady_clock::now();
  stream::IngestConfig clean_config = base;
  clean_config.pool = &pool;
  stream::FleetIngest clean(clean_config);
  std::vector<Feed> clean_feeds;
  for (std::size_t i = 0; i < streams; ++i) {
    Feed feed;
    feed.device = static_cast<std::uint32_t>(i);
    feed.attempts.reserve(frames[i].size());
    for (std::size_t k = 0; k < frames[i].size(); ++k)
      feed.attempts.push_back(fault::ChaosFrame{frames[i][k], k});
    clean_feeds.push_back(std::move(feed));
  }
  drive(clean, clean_feeds);
  pipeline::AnalysisReport streamed = clean.final_report(options);
  const double clean_seconds = bench::seconds_since(t0);

  std::vector<pipeline::TaggedTrace> tagged;
  for (std::size_t i = 0; i < streams; ++i)
    tagged.push_back({&results[i].relay_trace, i});
  pipeline::AnalysisReport batch =
      pipeline::analyze(tagged, os::irq::kRadioSpi, options);

  const bool parity = reports_identical(streamed, batch);
  std::printf("clean ingest: %zu samples, %.2fs, batch parity: %s\n",
              streamed.samples.size(), clean_seconds,
              parity ? "bit-identical" : "DIVERGED");

  // ---- chaos phase: the transport itself is hostile ----------------------
  t0 = std::chrono::steady_clock::now();
  ChaosOutcome outcome =
      run_chaos_fleet(frames, base, chaos, first_seed, &pool);
  const double chaos_seconds = bench::seconds_since(t0);

  // Same storm, serial detector math: everything logical must match.
  util::ThreadPool serial_pool(1);
  ChaosOutcome serial =
      run_chaos_fleet(frames, base, chaos, first_seed, &serial_pool);
  const bool deterministic = outcome == serial;

  // Retained state must stay a small fraction of the stream volume — the
  // service holds windows, not traces.
  const std::size_t rss_bound = total_bytes / 4 + 256 * 1024;
  const bool rss_ok = outcome.peak_buffered <= rss_bound;

  std::printf("chaos ingest: %zu samples, %.2fs\n", outcome.samples,
              chaos_seconds);
  std::printf("  quarantined %llu frames, %llu gap skips, %llu "
              "backpressure signals, %zu poisoned streams\n",
              static_cast<unsigned long long>(outcome.quarantined),
              static_cast<unsigned long long>(outcome.gap_skips),
              static_cast<unsigned long long>(outcome.backpressure),
              outcome.poisoned_streams);
  std::printf("  scored: %llu full, %llu cached, %llu featurize-only\n",
              static_cast<unsigned long long>(outcome.scored_full),
              static_cast<unsigned long long>(outcome.scored_cached),
              static_cast<unsigned long long>(outcome.scored_featurize_only));
  std::printf("  peak retained bytes %zu (bound %zu): %s\n",
              outcome.peak_buffered, rss_bound, rss_ok ? "ok" : "EXCEEDED");
  std::printf("  --jobs 1 vs --jobs %zu: %s\n", jobs,
              deterministic ? "identical" : "DIVERGED");

  if (!outcome.board.empty()) {
    std::printf("\nlive outlier board (chaos run):\n");
    util::Table table({"rank", "device", "interval", "score", "mode"});
    for (std::size_t i = 0; i < outcome.board.size(); ++i) {
      const stream::BoardEntry& e = outcome.board[i];
      table.add_row({std::to_string(i + 1), std::to_string(e.device),
                     e.label, util::cell(e.score, 4),
                     stream::to_string(e.mode)});
    }
    std::printf("%s", table.render().c_str());
  }

  const double throughput =
      chaos_seconds > 0.0 ? static_cast<double>(total_frames) / chaos_seconds
                          : 0.0;
  std::ofstream os(cli.get("json"));
  if (os) {
    os << "{\n  \"streams\": " << streams << ",\n  \"jobs\": " << jobs
       << ",\n  \"chaos_intensity\": " << chaos
       << ",\n  \"frames\": " << total_frames
       << ",\n  \"encoded_bytes\": " << total_bytes
       << ",\n  \"records\": " << total_events
       << ",\n  \"clean_seconds\": " << clean_seconds
       << ",\n  \"chaos_seconds\": " << chaos_seconds
       << ",\n  \"frames_per_second\": " << throughput
       << ",\n  \"clean_parity\": " << (parity ? "true" : "false")
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"samples\": " << outcome.samples
       << ",\n  \"quarantined_frames\": " << outcome.quarantined
       << ",\n  \"gap_skips\": " << outcome.gap_skips
       << ",\n  \"backpressure_signals\": " << outcome.backpressure
       << ",\n  \"poisoned_streams\": " << outcome.poisoned_streams
       << ",\n  \"scored_full\": " << outcome.scored_full
       << ",\n  \"scored_cached\": " << outcome.scored_cached
       << ",\n  \"scored_featurize_only\": "
       << outcome.scored_featurize_only
       << ",\n  \"peak_buffered_bytes\": " << outcome.peak_buffered
       << ",\n  \"rss_bound_bytes\": " << rss_bound
       << ",\n  \"rss_bound_ok\": " << (rss_ok ? "true" : "false")
       << "\n}\n";
    std::printf("\nresults written to %s\n", cli.get("json").c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", cli.get("json").c_str());
  }

  return (parity && deterministic && rss_ok) ? 0 : 1;
}

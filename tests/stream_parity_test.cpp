// Batch ≡ streaming equivalence on the three Figure-5 golden workloads
// (DESIGN.md §14): every recorded trace, sliced into wire frames and pushed
// through stream::FleetIngest in order, must yield a final report
// BIT-IDENTICAL to pipeline::analyze over the same traces — same scores,
// same ranking, same interval anatomy. Plus the chaos determinism claim:
// a hostile ingest run produces identical outcomes and byte-identical obs
// snapshots at any --jobs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "fault/stream_chaos.hpp"
#include "obs/metrics.hpp"
#include "pipeline/sentomist.hpp"
#include "stream/ingest.hpp"
#include "trace/framing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sent;

/// Frame each trace as one device stream and feed everything in order,
/// interleaved round-robin across devices, ticking between rounds.
pipeline::AnalysisReport stream_traces(
    const std::vector<const trace::NodeTrace*>& traces, trace::IrqLine line,
    const pipeline::AnalysisOptions& options = {}) {
  stream::IngestConfig config;
  config.line = line;
  config.instr_table = traces.front()->instr_table;
  stream::FleetIngest ingest(config);

  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    frames.push_back(
        trace::encode_trace(*traces[i], static_cast<std::uint32_t>(i)));
    longest = std::max(longest, frames.back().size());
  }
  for (std::size_t k = 0; k < longest; ++k) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (k < frames[i].size()) {
        EXPECT_EQ(ingest.offer(static_cast<std::uint32_t>(i), frames[i][k]),
                  stream::Admit::Accepted);
      }
    }
    ingest.tick();
  }
  ingest.finish_all();
  return ingest.final_report(options);
}

/// Full structural + numeric identity. `compare_run` is off for case III,
/// where the batch harness deliberately tags every source with run 0 while
/// the fleet assigns distinct device registration indices.
void expect_reports_identical(const pipeline::AnalysisReport& streamed,
                              const pipeline::AnalysisReport& batch,
                              bool compare_run = true) {
  ASSERT_EQ(streamed.samples.size(), batch.samples.size());
  EXPECT_EQ(streamed.scores, batch.scores);
  ASSERT_EQ(streamed.ranking.size(), batch.ranking.size());
  for (std::size_t i = 0; i < streamed.ranking.size(); ++i) {
    EXPECT_EQ(streamed.ranking[i].sample_index, batch.ranking[i].sample_index)
        << "rank " << i;
    EXPECT_EQ(streamed.ranking[i].score, batch.ranking[i].score);
  }
  for (std::size_t i = 0; i < streamed.samples.size(); ++i) {
    const pipeline::Sample& s = streamed.samples[i];
    const pipeline::Sample& b = batch.samples[i];
    EXPECT_EQ(s.node_id, b.node_id) << "sample " << i;
    if (compare_run) {
      EXPECT_EQ(s.run, b.run) << "sample " << i;
    }
    EXPECT_EQ(s.has_bug, b.has_bug) << "sample " << i;
    EXPECT_EQ(s.bug_kinds, b.bug_kinds) << "sample " << i;
    const core::EventInterval& p = s.interval;
    const core::EventInterval& q = b.interval;
    EXPECT_EQ(p.irq, q.irq) << "sample " << i;
    EXPECT_EQ(p.start_index, q.start_index) << "sample " << i;
    EXPECT_EQ(p.end_index, q.end_index) << "sample " << i;
    EXPECT_EQ(p.start_cycle, q.start_cycle) << "sample " << i;
    EXPECT_EQ(p.end_cycle, q.end_cycle) << "sample " << i;
    EXPECT_EQ(p.task_count, q.task_count) << "sample " << i;
    EXPECT_EQ(p.seq_in_type, q.seq_in_type) << "sample " << i;
    EXPECT_EQ(p.truncated, q.truncated) << "sample " << i;
  }
}

TEST(StreamParity, CaseIDataPollution) {
  apps::Case1Config config;
  config.seed = 5;
  apps::Case1Result result = apps::run_case1(config);

  std::vector<const trace::NodeTrace*> traces;
  std::vector<pipeline::TaggedTrace> tagged;
  for (std::size_t r = 0; r < result.runs.size(); ++r) {
    traces.push_back(&result.runs[r].sensor_trace);
    tagged.push_back({&result.runs[r].sensor_trace, r});
  }
  expect_reports_identical(stream_traces(traces, os::irq::kAdc),
                           pipeline::analyze(tagged, os::irq::kAdc));
}

TEST(StreamParity, CaseIIPacketLoss) {
  apps::Case2Config config;
  config.seed = 3;
  apps::Case2Result result = apps::run_case2(config);

  expect_reports_identical(
      stream_traces({&result.relay_trace}, os::irq::kRadioSpi),
      pipeline::analyze({{&result.relay_trace, 0}}, os::irq::kRadioSpi));
}

TEST(StreamParity, CaseIIICtpHeartbeat) {
  apps::Case3Config config;
  config.seed = 5;
  apps::Case3Result result = apps::run_case3(config);

  std::vector<const trace::NodeTrace*> traces;
  std::vector<pipeline::TaggedTrace> tagged;
  for (net::NodeId src : result.sources) {
    traces.push_back(&result.traces[src]);
    tagged.push_back({&result.traces[src], 0});
  }
  expect_reports_identical(stream_traces(traces, result.report_line),
                           pipeline::analyze(tagged, result.report_line),
                           /*compare_run=*/false);
}

// The same chaos storm, replayed with serial and parallel detector math,
// must yield identical boards, counters, score modes, AND byte-identical
// deterministic obs snapshots. tier1.sh also reruns this test under TSan
// (filter '*Chaos*') to certify the shard merge.
TEST(StreamParity, ChaosIngestDeterministicAcrossJobs) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 1.0;
  apps::Case2Result result = apps::run_case2(config);

  const std::size_t kStreams = 3;
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
  for (std::size_t i = 0; i < kStreams; ++i)
    frames.push_back(trace::encode_trace(result.relay_trace,
                                         static_cast<std::uint32_t>(i)));

  struct Outcome {
    std::vector<stream::BoardEntry> board;
    std::vector<stream::StreamCounters> counters;
    std::vector<stream::ScoreMode> modes;
    std::size_t samples = 0;
    obs::Snapshot snapshot;
  };
  auto run = [&](std::size_t jobs) {
    obs::Registry& registry = obs::Registry::global();
    registry.reset();
    registry.set_enabled(true);

    util::ThreadPool pool(jobs);
    stream::IngestConfig ingest_config;
    ingest_config.line = os::irq::kRadioSpi;
    ingest_config.instr_table = result.relay_trace.instr_table;
    ingest_config.pool = &pool;
    ingest_config.rescore_backlog = 4;
    ingest_config.cached_backlog = 12;
    ingest_config.featurize_only_backlog = 32;
    stream::FleetIngest ingest(ingest_config);

    fault::StreamChaosPlan plan = fault::StreamChaosPlan::at_intensity(2.0);
    struct Feed {
      std::uint32_t device;
      std::vector<fault::ChaosFrame> attempts;
      std::size_t next = 0;
    };
    std::vector<Feed> feeds;
    for (std::size_t i = 0; i < kStreams; ++i) {
      util::Rng rng = util::Rng(config.seed)
                          .substream("fleet-chaos-" + std::to_string(i));
      feeds.push_back(
          {static_cast<std::uint32_t>(i),
           fault::perturb_frames(frames[i], plan, rng)});
    }
    for (;;) {
      bool any_left = false;
      for (Feed& feed : feeds) {
        while (feed.next < feed.attempts.size() &&
               feed.attempts[feed.next].send_tick <= ingest.now()) {
          stream::Admit admit =
              ingest.offer(feed.device, feed.attempts[feed.next].bytes);
          if (admit == stream::Admit::Backpressure) break;
          if (admit == stream::Admit::Rejected) {
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

    Outcome out;
    out.board = ingest.board();
    out.modes = ingest.sample_modes();
    out.samples = ingest.sample_count();
    for (const stream::StreamStatus& st : ingest.status())
      out.counters.push_back(st.counters);
    out.snapshot = registry.snapshot();
    registry.set_enabled(false);
    return out;
  };

  Outcome serial = run(1);
  Outcome parallel = run(4);

  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.modes, parallel.modes);
  ASSERT_EQ(serial.board.size(), parallel.board.size());
  for (std::size_t i = 0; i < serial.board.size(); ++i) {
    EXPECT_EQ(serial.board[i].score, parallel.board[i].score) << i;
    EXPECT_EQ(serial.board[i].device, parallel.board[i].device) << i;
    EXPECT_EQ(serial.board[i].label, parallel.board[i].label) << i;
    EXPECT_EQ(serial.board[i].mode, parallel.board[i].mode) << i;
  }
  EXPECT_TRUE(serial.snapshot.deterministic_equal(parallel.snapshot));

  // The storm genuinely exercised the robustness envelope, and the obs
  // layer saw it.
  EXPECT_GT(serial.snapshot.counter_value("stream.frames.quarantined"), 0u);
  EXPECT_GT(serial.snapshot.counter_value("stream.frames.accepted"), 0u);
  EXPECT_GT(serial.snapshot.counter_value("stream.samples"), 0u);
  std::uint64_t quarantined = 0;
  for (const stream::StreamCounters& c : serial.counters)
    quarantined += c.frames_quarantined;
  EXPECT_EQ(quarantined,
            serial.snapshot.counter_value("stream.frames.quarantined"));
}

}  // namespace

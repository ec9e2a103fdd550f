// Streaming-layer unit tests (DESIGN.md §14): the push-mode anatomizer's
// incremental emission, the frame codec's hostile-input behaviour (seeded
// byte-mutation / truncation fuzz battery), and the FleetIngest robustness
// envelope — backpressure, late/duplicate policy, stall and idle watchdogs,
// quarantine ledger bounds, the degradation ladder, and poisoned-stream
// salvage. tier1.sh reruns this binary under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/anatomizer.hpp"
#include "core/stream_anatomizer.hpp"
#include "lifecycle_notation.hpp"
#include "stream/ingest.hpp"
#include "trace/framing.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace {

using namespace sent;
using trace::LifecycleItem;
using trace::LifecycleKind;
using trace::NodeTrace;

NodeTrace make_trace(const std::string& compact, sim::Cycle run_end = 0) {
  NodeTrace t;
  t.lifecycle = trace::parse_compact(compact);
  t.run_end = run_end != 0
                  ? run_end
                  : (t.lifecycle.empty() ? 0 : t.lifecycle.back().cycle + 1);
  return t;
}

std::vector<trace::InstrMeta> tiny_table() {
  return {{"handler", "load", 1}, {"handler", "store", 1}};
}

trace::FrameEvent lifecycle_event(LifecycleKind kind, sim::Cycle cycle,
                                  std::uint32_t arg, sim::Cycle end = 0) {
  trace::FrameEvent ev;
  ev.kind = trace::FrameEvent::Kind::Lifecycle;
  ev.item = LifecycleItem{kind, cycle, arg, end};
  return ev;
}

trace::FrameEvent instr_event(sim::Cycle cycle, std::uint32_t id) {
  trace::FrameEvent ev;
  ev.kind = trace::FrameEvent::Kind::Instr;
  ev.instr = trace::InstrExec{cycle, id};
  return ev;
}

std::vector<std::uint8_t> events_frame(std::uint32_t device,
                                       std::uint64_t seq,
                                       std::vector<trace::FrameEvent> evs) {
  trace::Frame frame;
  frame.type = trace::FrameType::Events;
  frame.device = device;
  frame.seq = seq;
  frame.events = std::move(evs);
  return trace::encode_frame(frame);
}

std::vector<std::uint8_t> end_frame(std::uint32_t device, std::uint64_t seq,
                                    sim::Cycle run_end) {
  trace::Frame frame;
  frame.type = trace::FrameType::End;
  frame.device = device;
  frame.seq = seq;
  frame.run_end = run_end;
  return trace::encode_frame(frame);
}

/// One int(line)/reti handler instance with `instr0` id-0 and `instr1` id-1
/// executions inside its window; advances `cycle`.
void append_pair(std::vector<trace::FrameEvent>& evs, sim::Cycle& cycle,
                 trace::IrqLine line, std::size_t instr0,
                 std::size_t instr1) {
  evs.push_back(lifecycle_event(LifecycleKind::Int, cycle, line));
  ++cycle;
  for (std::size_t i = 0; i < instr0; ++i)
    evs.push_back(instr_event(cycle++, 0));
  for (std::size_t i = 0; i < instr1; ++i)
    evs.push_back(instr_event(cycle++, 1));
  evs.push_back(lifecycle_event(LifecycleKind::Reti, cycle, line));
  cycle += 2;
}

stream::IngestConfig tiny_config() {
  stream::IngestConfig config;
  config.line = 7;
  config.instr_table = tiny_table();
  return config;
}

// ---------------------------------------------------- push-mode anatomizer

/// Replay a compact trace through the streaming machine and compare the
/// full interval set against the batch anatomizer.
void expect_machine_matches_batch(const std::string& compact) {
  NodeTrace t = make_trace(compact);
  core::Anatomizer batch(t);
  std::vector<core::EventInterval> expected = batch.all_intervals();

  core::StreamAnatomizer machine;
  for (const LifecycleItem& item : t.lifecycle) machine.push(item);
  machine.finish(t.run_end);
  std::vector<core::EventInterval> got = machine.drain();
  std::sort(got.begin(), got.end(),
            [](const core::EventInterval& a, const core::EventInterval& b) {
              return a.start_index < b.start_index;
            });

  ASSERT_EQ(got.size(), expected.size()) << compact;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].irq, expected[i].irq) << compact << " #" << i;
    EXPECT_EQ(got[i].start_index, expected[i].start_index);
    EXPECT_EQ(got[i].end_index, expected[i].end_index);
    EXPECT_EQ(got[i].start_cycle, expected[i].start_cycle);
    EXPECT_EQ(got[i].end_cycle, expected[i].end_cycle);
    EXPECT_EQ(got[i].task_count, expected[i].task_count);
    EXPECT_EQ(got[i].seq_in_type, expected[i].seq_in_type);
    EXPECT_EQ(got[i].truncated, expected[i].truncated);
  }
}

TEST(StreamAnatomizer, MatchesBatchOnRepresentativeShapes) {
  expect_machine_matches_batch("int(5) reti");
  expect_machine_matches_batch("int(5) post(0) reti run(0)");
  expect_machine_matches_batch(
      "int(5) post(0) int(2) post(1) reti post(2) reti run(0) run(1) "
      "run(2)");
  expect_machine_matches_batch(
      "int(5) reti int(5) post(0) reti run(0) post(1) run(1) int(9) reti");
  expect_machine_matches_batch("int(5) post(0) reti");  // truncated task
  expect_machine_matches_batch("int(5) post(0)");       // truncated handler
}

TEST(StreamAnatomizer, EmitsAtBoundaryDetermination) {
  auto seq = trace::parse_compact("int(5) reti int(6) post(0) reti run(0)");
  core::StreamAnatomizer machine;
  machine.push(seq[0]);
  EXPECT_EQ(machine.ready_count(), 0u);
  machine.push(seq[1]);  // taskless handler closes at its reti
  EXPECT_EQ(machine.ready_count(), 1u);
  machine.push(seq[2]);
  machine.push(seq[3]);
  machine.push(seq[4]);
  EXPECT_EQ(machine.ready_count(), 1u);  // still owns an unconsumed task
  machine.push(seq[5]);
  // The last task's depth-0 region is only known closed at the next
  // boundary: finish() flushes it.
  machine.finish(seq.back().cycle + 1);
  EXPECT_EQ(machine.ready_count(), 2u);
  EXPECT_EQ(machine.open_instances(), 0u);
}

TEST(StreamAnatomizer, PoisonsOnMalformedInput) {
  core::StreamAnatomizer machine;
  machine.push(trace::parse_compact("int(5)")[0]);
  LifecycleItem bad{LifecycleKind::RunTask, 10, 0, 11};
  EXPECT_THROW(machine.push(bad), core::MalformedTrace);
  EXPECT_TRUE(machine.poisoned());
  // Feeding a poisoned machine is a caller bug, not more malformed input.
  EXPECT_THROW(machine.push(bad), util::PreconditionError);
}

// --------------------------------------------------------------- framing

NodeTrace synthetic_trace() {
  NodeTrace t;
  t.node_id = 42;
  t.lifecycle = trace::parse_compact(
      "int(5) post(0) reti run(0) int(7) reti int(5) post(1) reti run(1) "
      "int(7) reti int(5) reti");
  // Spread the items out and interleave instructions/bug markers.
  sim::Cycle cycle = 0;
  for (LifecycleItem& item : t.lifecycle) {
    item.cycle = cycle;
    if (item.kind == LifecycleKind::RunTask) item.end_cycle = cycle + 5;
    cycle += 10;
  }
  for (sim::Cycle c = 1; c < cycle; c += 3)
    t.instrs.push_back({c, static_cast<trace::InstrId>(c % 2)});
  t.bugs.push_back({15, "synthetic-bug"});
  t.bugs.push_back({95, "synthetic-bug"});
  t.instr_table = tiny_table();
  t.run_end = cycle + 1;
  return t;
}

TEST(Framing, RoundTripsATrace) {
  NodeTrace t = synthetic_trace();
  auto frames = trace::encode_trace(t, /*device=*/9, /*events_per_frame=*/8);
  ASSERT_GE(frames.size(), 3u);

  NodeTrace back;
  std::uint64_t expected_seq = 0;
  for (const auto& bytes : frames) {
    trace::FrameDecodeResult decoded = trace::decode_frame(bytes);
    ASSERT_TRUE(decoded.ok) << decoded.error;
    EXPECT_EQ(decoded.frame.device, 9u);
    EXPECT_EQ(decoded.frame.seq, expected_seq++);
    switch (decoded.frame.type) {
      case trace::FrameType::Hello:
        EXPECT_EQ(decoded.frame.node_id, 42u);
        EXPECT_EQ(decoded.frame.instr_table_size, t.instr_table.size());
        EXPECT_EQ(decoded.frame.instr_table_hash,
                  trace::instr_table_fingerprint(t.instr_table));
        break;
      case trace::FrameType::End:
        back.run_end = decoded.frame.run_end;
        break;
      case trace::FrameType::Events:
        for (const trace::FrameEvent& ev : decoded.frame.events) {
          switch (ev.kind) {
            case trace::FrameEvent::Kind::Lifecycle:
              back.lifecycle.push_back(ev.item);
              break;
            case trace::FrameEvent::Kind::Instr:
              back.instrs.push_back(ev.instr);
              break;
            case trace::FrameEvent::Kind::Bug:
              back.bugs.push_back(ev.bug);
              break;
          }
        }
        break;
    }
  }
  ASSERT_EQ(back.lifecycle.size(), t.lifecycle.size());
  for (std::size_t i = 0; i < t.lifecycle.size(); ++i) {
    EXPECT_EQ(back.lifecycle[i].kind, t.lifecycle[i].kind);
    EXPECT_EQ(back.lifecycle[i].cycle, t.lifecycle[i].cycle);
    EXPECT_EQ(back.lifecycle[i].arg, t.lifecycle[i].arg);
    EXPECT_EQ(back.lifecycle[i].end_cycle, t.lifecycle[i].end_cycle);
  }
  ASSERT_EQ(back.instrs.size(), t.instrs.size());
  for (std::size_t i = 0; i < t.instrs.size(); ++i) {
    EXPECT_EQ(back.instrs[i].cycle, t.instrs[i].cycle);
    EXPECT_EQ(back.instrs[i].instr, t.instrs[i].instr);
  }
  ASSERT_EQ(back.bugs.size(), t.bugs.size());
  for (std::size_t i = 0; i < t.bugs.size(); ++i) {
    EXPECT_EQ(back.bugs[i].cycle, t.bugs[i].cycle);
    EXPECT_EQ(back.bugs[i].kind, t.bugs[i].kind);
  }
  EXPECT_EQ(back.run_end, t.run_end);
}

// The satellite fuzz battery: every single-byte mutation and every
// truncation of a valid frame must be rejected cleanly — no throw, no
// out-of-bounds read (tier1.sh reruns this under ASan/UBSan), no bogus
// accept. The FNV-1a trailer guarantees a one-byte change never checksums.
TEST(Framing, FuzzMutationsAndTruncationsAreRejected) {
  NodeTrace t = synthetic_trace();
  auto frames = trace::encode_trace(t, 3, /*events_per_frame=*/8);
  util::Rng rng(0xF00DF00Du);

  for (int iteration = 0; iteration < 600; ++iteration) {
    const auto& original = frames[static_cast<std::size_t>(
        rng.below(frames.size()))];
    std::vector<std::uint8_t> bytes = original;
    if (rng.chance(0.5)) {
      std::size_t pos = static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    } else {
      bytes.resize(static_cast<std::size_t>(rng.below(bytes.size())));
    }
    trace::FrameDecodeResult decoded = trace::decode_frame(bytes);
    EXPECT_FALSE(decoded.ok) << "iteration " << iteration;
    EXPECT_FALSE(decoded.error.empty());
  }

  // Pure garbage of every small length.
  for (std::size_t len = 0; len < 64; ++len) {
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    trace::FrameDecodeResult decoded = trace::decode_frame(junk);
    EXPECT_FALSE(decoded.ok);
  }
}

// A fuzzed stream must be quarantined without perturbing its siblings: the
// clean stream's samples are bit-identical with and without the hostile
// neighbour.
TEST(Framing, FuzzedStreamLeavesSiblingBitIdentical) {
  NodeTrace t = synthetic_trace();
  auto clean_frames = trace::encode_trace(t, 0, 8);
  auto victim_frames = trace::encode_trace(t, 1, 8);
  util::Rng rng(0xBADC0DEu);
  for (auto& bytes : victim_frames) {
    std::size_t pos = static_cast<std::size_t>(rng.below(bytes.size()));
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }

  stream::IngestConfig config;
  config.line = 5;
  config.instr_table = t.instr_table;

  auto run = [&](bool with_victim) {
    stream::FleetIngest ingest(config);
    for (std::size_t i = 0; i < clean_frames.size(); ++i) {
      EXPECT_EQ(ingest.offer(0, clean_frames[i]), stream::Admit::Accepted);
      if (with_victim && i < victim_frames.size()) {
        EXPECT_EQ(ingest.offer(1, victim_frames[i]),
                  stream::Admit::Accepted);
      }
      ingest.tick();
    }
    ingest.finish_all();
    return ingest.final_report();
  };

  pipeline::AnalysisReport alone = run(false);
  pipeline::AnalysisReport with_victim = run(true);

  ASSERT_EQ(alone.samples.size(), with_victim.samples.size());
  EXPECT_EQ(alone.scores, with_victim.scores);
  for (std::size_t i = 0; i < alone.samples.size(); ++i) {
    EXPECT_EQ(alone.samples[i].run, 0u);  // every sample from the sibling
    EXPECT_EQ(alone.samples[i].interval.start_index,
              with_victim.samples[i].interval.start_index);
    EXPECT_EQ(alone.samples[i].interval.end_cycle,
              with_victim.samples[i].interval.end_cycle);
  }

  // And the victim really was quarantined, within its ledger bound.
  stream::FleetIngest ingest(config);
  for (const auto& bytes : victim_frames) ingest.offer(1, bytes);
  ingest.finish_all();
  stream::StreamStatus status = ingest.status()[0];
  EXPECT_EQ(status.counters.frames_quarantined, victim_frames.size());
  EXPECT_EQ(status.counters.frames_accepted, 0u);
  EXPECT_LE(status.ledger.size(), config.error_ledger_capacity);
}

// ----------------------------------------------------------- fleet ingest

TEST(FleetIngest, BackpressureWhenReorderWindowFull) {
  stream::IngestConfig config = tiny_config();
  config.reorder_window = 2;
  stream::FleetIngest ingest(config);

  std::vector<std::vector<std::uint8_t>> frames;
  sim::Cycle cycle = 0;
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    std::vector<trace::FrameEvent> evs;
    append_pair(evs, cycle, config.line, 1, 0);
    frames.push_back(events_frame(0, seq, std::move(evs)));
  }

  EXPECT_EQ(ingest.offer(0, frames[2]), stream::Admit::Accepted);  // parked
  EXPECT_EQ(ingest.offer(0, frames[3]), stream::Admit::Accepted);  // parked
  EXPECT_EQ(ingest.offer(0, frames[4]), stream::Admit::Backpressure);
  EXPECT_EQ(ingest.offer(0, frames[0]), stream::Admit::Accepted);
  EXPECT_EQ(ingest.offer(0, frames[1]), stream::Admit::Accepted);  // drains
  EXPECT_EQ(ingest.offer(0, frames[4]), stream::Admit::Accepted);

  stream::StreamStatus status = ingest.status()[0];
  EXPECT_EQ(status.counters.backpressure_signals, 1u);
  EXPECT_EQ(status.counters.frames_accepted, 5u);
  EXPECT_EQ(ingest.buffered_bytes(), status.buffered_bytes);
}

TEST(FleetIngest, LateAndDuplicateFramesAreDroppedDeterministically) {
  stream::FleetIngest ingest(tiny_config());
  sim::Cycle cycle = 0;
  std::vector<trace::FrameEvent> evs;
  append_pair(evs, cycle, 7, 1, 0);
  auto f0 = events_frame(0, 0, evs);
  auto f3 = events_frame(0, 3, evs);

  EXPECT_EQ(ingest.offer(0, f0), stream::Admit::Accepted);
  EXPECT_EQ(ingest.offer(0, f0), stream::Admit::Accepted);  // late
  EXPECT_EQ(ingest.offer(0, f3), stream::Admit::Accepted);  // parked
  EXPECT_EQ(ingest.offer(0, f3), stream::Admit::Accepted);  // duplicate

  stream::StreamCounters counters = ingest.status()[0].counters;
  EXPECT_EQ(counters.frames_late, 1u);
  EXPECT_EQ(counters.frames_duplicate, 1u);
  EXPECT_EQ(counters.frames_accepted, 1u);
}

TEST(FleetIngest, StallWatchdogSkipsABlockingGap) {
  stream::IngestConfig config = tiny_config();
  config.stall_deadline_ticks = 3;
  config.evict_after_idle_ticks = 1000;
  stream::FleetIngest ingest(config);

  sim::Cycle cycle = 0;
  std::vector<trace::FrameEvent> evs;
  append_pair(evs, cycle, config.line, 2, 1);
  // seq 0 never arrives; seq 1 parks behind the gap.
  EXPECT_EQ(ingest.offer(0, events_frame(0, 1, evs)),
            stream::Admit::Accepted);
  stream::StreamCounters counters = ingest.status()[0].counters;
  EXPECT_EQ(counters.frames_accepted, 0u);

  for (int i = 0; i < 10; ++i) ingest.tick();

  counters = ingest.status()[0].counters;
  EXPECT_EQ(counters.gap_skips, 1u);
  EXPECT_EQ(counters.frames_skipped, 1u);  // the lost seq 0
  EXPECT_EQ(counters.frames_accepted, 1u);
  EXPECT_EQ(ingest.status()[0].state, stream::StreamState::Live);
}

TEST(FleetIngest, IdleStreamIsEvictedWithTruncatedInterval) {
  stream::IngestConfig config = tiny_config();
  config.evict_after_idle_ticks = 2;
  stream::FleetIngest ingest(config);

  // An opened handler that never closes: the producer dies mid-interval.
  std::vector<trace::FrameEvent> evs;
  evs.push_back(lifecycle_event(LifecycleKind::Int, 10, config.line));
  evs.push_back(instr_event(11, 0));
  EXPECT_EQ(ingest.offer(0, events_frame(0, 0, std::move(evs))),
            stream::Admit::Accepted);

  for (int i = 0; i < 5; ++i) ingest.tick();

  EXPECT_EQ(ingest.status()[0].state, stream::StreamState::Evicted);
  EXPECT_TRUE(ingest.all_terminal());
  pipeline::AnalysisReport report = ingest.final_report();
  ASSERT_EQ(report.samples.size(), 1u);
  EXPECT_TRUE(report.samples[0].interval.truncated);
}

TEST(FleetIngest, QuarantineLedgerStaysBounded) {
  stream::IngestConfig config = tiny_config();
  config.error_ledger_capacity = 3;
  stream::FleetIngest ingest(config);

  for (int i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF,
                                      static_cast<std::uint8_t>(i)};
    EXPECT_EQ(ingest.offer(0, junk), stream::Admit::Accepted);
  }
  stream::StreamStatus status = ingest.status()[0];
  EXPECT_EQ(status.counters.frames_quarantined, 8u);
  EXPECT_EQ(status.ledger.size(), 3u);
  EXPECT_EQ(status.state, stream::StreamState::Live);

  // The stream still works after all that garbage.
  sim::Cycle cycle = 0;
  std::vector<trace::FrameEvent> evs;
  append_pair(evs, cycle, config.line, 1, 1);
  EXPECT_EQ(ingest.offer(0, events_frame(0, 0, std::move(evs))),
            stream::Admit::Accepted);
  EXPECT_EQ(ingest.status()[0].counters.frames_accepted, 1u);
}

TEST(FleetIngest, DegradationLadderShedsLoadByBacklog) {
  stream::IngestConfig config = tiny_config();
  config.rescore_backlog = 1;
  config.cached_backlog = 3;
  config.featurize_only_backlog = 6;
  stream::FleetIngest ingest(config);

  sim::Cycle cycle = 0;
  std::uint64_t seq = 0;
  auto burst = [&](std::size_t pairs) {
    std::vector<trace::FrameEvent> evs;
    for (std::size_t i = 0; i < pairs; ++i)
      append_pair(evs, cycle, config.line, i % 3 + 1, (i * 7) % 5);
    EXPECT_EQ(ingest.offer(0, events_frame(0, seq++, std::move(evs))),
              stream::Admit::Accepted);
    ingest.tick();
  };

  // Burst of K pairs featurizes K-1 samples immediately (the last waits for
  // the watermark to pass its end) plus whatever was pending.
  burst(3);  // 2 samples,  backlog 2 <= 3            -> Full
  burst(5);  // 5 samples,  backlog 5 in (3, 6]       -> Cached
  burst(9);  // 9 samples,  backlog 9 > 6             -> FeaturizeOnly
  EXPECT_EQ(ingest.offer(0, end_frame(0, seq, cycle + 1)),
            stream::Admit::Accepted);
  ingest.finish_all();  // final pending sample, small backlog -> Full again

  std::vector<stream::ScoreMode> modes = ingest.sample_modes();
  ASSERT_EQ(modes.size(), 17u);
  std::vector<stream::ScoreMode> expected;
  expected.insert(expected.end(), 2, stream::ScoreMode::Full);
  expected.insert(expected.end(), 5, stream::ScoreMode::Cached);
  expected.insert(expected.end(), 9, stream::ScoreMode::FeaturizeOnly);
  expected.push_back(stream::ScoreMode::Full);
  EXPECT_EQ(modes, expected);

  // The board only ranks scored samples, ascending, within top_k.
  const std::vector<stream::BoardEntry>& board = ingest.board();
  ASSERT_FALSE(board.empty());
  EXPECT_LE(board.size(), config.top_k);
  for (std::size_t i = 1; i < board.size(); ++i)
    EXPECT_LE(board[i - 1].score, board[i].score);
  for (const stream::BoardEntry& entry : board)
    EXPECT_NE(entry.mode, stream::ScoreMode::Unscored);
}

TEST(FleetIngest, PoisonedStreamKeepsSalvagedIntervals) {
  stream::FleetIngest ingest(tiny_config());

  std::vector<trace::FrameEvent> evs;
  evs.push_back(lifecycle_event(LifecycleKind::Int, 0, 7));
  evs.push_back(instr_event(1, 0));
  evs.push_back(lifecycle_event(LifecycleKind::Reti, 2, 7));
  evs.push_back(lifecycle_event(LifecycleKind::Reti, 3, 7));  // no handler
  EXPECT_EQ(ingest.offer(0, events_frame(0, 0, std::move(evs))),
            stream::Admit::Accepted);

  stream::StreamStatus status = ingest.status()[0];
  EXPECT_TRUE(status.poisoned);
  EXPECT_EQ(status.state, stream::StreamState::Live);
  ASSERT_FALSE(status.ledger.empty());
  EXPECT_NE(status.ledger.back().reason.find("poisoned"),
            std::string::npos);

  // Later frames no longer feed the analysis but don't crash the stream.
  std::vector<trace::FrameEvent> more;
  sim::Cycle cycle = 10;
  append_pair(more, cycle, 7, 1, 0);
  EXPECT_EQ(ingest.offer(0, events_frame(0, 1, std::move(more))),
            stream::Admit::Accepted);
  EXPECT_EQ(ingest.offer(0, end_frame(0, 2, cycle + 1)),
            stream::Admit::Accepted);

  pipeline::AnalysisReport report = ingest.final_report();
  ASSERT_EQ(report.samples.size(), 1u);  // the salvaged prefix
  EXPECT_EQ(report.samples[0].interval.start_cycle, 0u);
}

TEST(FleetIngest, HelloFingerprintMismatchIsCounted) {
  stream::FleetIngest ingest(tiny_config());

  trace::Frame hello;
  hello.type = trace::FrameType::Hello;
  hello.device = 0;
  hello.seq = 0;
  hello.node_id = 4;
  hello.instr_table_size = 99;  // wrong program image
  hello.instr_table_hash = 0xABCDEFu;
  EXPECT_EQ(ingest.offer(0, trace::encode_frame(hello)),
            stream::Admit::Accepted);

  stream::StreamStatus status = ingest.status()[0];
  EXPECT_EQ(status.counters.hello_mismatches, 1u);
  EXPECT_EQ(status.node_id, 4u);  // Hello still names the node
  EXPECT_EQ(status.state, stream::StreamState::Live);
}

TEST(FleetIngest, FramesAfterEndAreRejected) {
  stream::FleetIngest ingest(tiny_config());
  sim::Cycle cycle = 0;
  std::vector<trace::FrameEvent> evs;
  append_pair(evs, cycle, 7, 1, 0);
  auto frame = events_frame(0, 0, evs);
  EXPECT_EQ(ingest.offer(0, frame), stream::Admit::Accepted);
  EXPECT_EQ(ingest.offer(0, end_frame(0, 1, cycle + 1)),
            stream::Admit::Accepted);
  EXPECT_EQ(ingest.status()[0].state, stream::StreamState::Finished);
  EXPECT_EQ(ingest.offer(0, frame), stream::Admit::Rejected);
}

}  // namespace

// Resilient streaming fleet ingest (DESIGN.md §14).
//
// A FleetIngest accepts interleaved per-device frame streams (the wire
// format of trace/framing.hpp), drives one push-mode anatomizer per stream,
// featurizes intervals into instruction-counter rows (Definition 4) the
// moment their instruction windows are complete, and keeps a live top-K
// outlier board over incrementally re-scored samples. After every stream
// terminates, final_report() re-runs the exact batch scoring tail
// (pipeline::score_and_rank) over the accumulated rows, so a clean
// streamed fleet ranks BIT-IDENTICALLY to pipeline::analyze over the same
// traces (enforced by tests/stream_parity_test.cpp).
//
// The robustness envelope, per stream:
//
//   backpressure — out-of-order frames wait in a bounded reorder window;
//                  offer() returns Admit::Backpressure (frame NOT consumed)
//                  when it is full, so producers must pause, not the
//                  service grow;
//   late/dup     — frames whose seq is below the delivery watermark, and
//                  duplicates of buffered seqs, are dropped and counted
//                  (deterministic policy: first arrival wins);
//   quarantine   — frames that fail decode_frame go to a bounded per-stream
//                  error ledger; the stream itself survives. A lifecycle
//                  record that poisons the anatomizer (MalformedTrace)
//                  stops that stream's analysis but keeps its salvaged
//                  intervals;
//   watchdogs    — logical-tick driven: a gap blocking delivery longer than
//                  stall_deadline_ticks is skipped (lost frames counted);
//                  a stream idle longer than evict_after_idle_ticks is
//                  force-finalized as Evicted with truncated intervals;
//   degradation  — scoring sheds load by backlog: a small backlog re-scores
//                  everything with a fresh OCSVM (Full), a larger one only
//                  scores new rows against the last fitted model (Cached),
//                  an extreme one skips scoring entirely (FeaturizeOnly).
//                  The mode each sample was first scored under is recorded
//                  on the sample and in the obs counters.
//
// Time is LOGICAL (tick()), never wall-clock, and all counters are logical
// quantities, so a fleet drive is bit-identical at any --jobs: the thread
// pool only accelerates detector math, which is thread-count invariant.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/stream_anatomizer.hpp"
#include "pipeline/sentomist.hpp"
#include "trace/framing.hpp"

namespace sent::ml {
class OneClassSvm;
}

namespace sent::stream {

/// Outcome of offering one frame.
enum class Admit : std::uint8_t {
  Accepted,      ///< consumed (delivered, buffered, dropped or quarantined)
  Backpressure,  ///< reorder window full — NOT consumed, retry later
  Rejected,      ///< stream already terminal — NOT consumed
};

/// Rung of the degradation ladder a sample was first scored under.
enum class ScoreMode : std::uint8_t {
  Unscored = 0,
  Full = 1,           ///< fresh OCSVM over every sample
  Cached = 2,         ///< decision_batch against the last fitted model
  FeaturizeOnly = 3,  ///< overload: row kept, scoring skipped
};

const char* to_string(ScoreMode mode);

enum class StreamState : std::uint8_t { Live, Finished, Evicted };

struct QuarantineRecord {
  std::uint64_t tick = 0;  ///< service tick of the offence
  std::uint64_t seq = 0;   ///< frame seq when parseable, ~0 otherwise
  std::string reason;
};

struct IngestConfig {
  /// Event type under test (the analysis line).
  trace::IrqLine line = 0;
  /// The fleet's program image: one feature column per instruction, and
  /// Hello fingerprints are checked against it.
  std::vector<trace::InstrMeta> instr_table;

  std::size_t reorder_window = 32;  ///< out-of-order frames held per stream
  std::uint64_t stall_deadline_ticks = 64;
  std::uint64_t evict_after_idle_ticks = 1024;
  std::size_t error_ledger_capacity = 16;

  /// Degradation ladder: a flush triggers at rescore_backlog unscored
  /// samples; above cached_backlog it degrades to Cached, above
  /// featurize_only_backlog to FeaturizeOnly.
  std::size_t rescore_backlog = 8;
  std::size_t cached_backlog = 64;
  std::size_t featurize_only_backlog = 256;

  std::size_t top_k = 10;  ///< live outlier-board size

  /// Borrowed pool for detector math (scores are thread-count invariant).
  util::ThreadPool* pool = nullptr;
};

/// One row of the live outlier board (ascending score = most suspicious
/// first; raw decision values, not normalized).
struct BoardEntry {
  double score = 0.0;
  std::uint32_t device = 0;
  std::string label;
  ScoreMode mode = ScoreMode::Unscored;
};

/// Per-stream logical counters (all deterministic).
struct StreamCounters {
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_quarantined = 0;
  std::uint64_t frames_late = 0;       ///< seq below the delivery watermark
  std::uint64_t frames_duplicate = 0;  ///< duplicate of a buffered seq
  std::uint64_t frames_skipped = 0;    ///< lost to stall gap-skips/teardown
  std::uint64_t backpressure_signals = 0;
  std::uint64_t gap_skips = 0;
  std::uint64_t events = 0;
  std::uint64_t instr_dropped = 0;  ///< late or out-of-table instructions
  std::uint64_t hello_mismatches = 0;
  std::uint64_t intervals = 0;  ///< closed intervals of the analysis line
  std::uint64_t samples = 0;    ///< featurized intervals

  bool operator==(const StreamCounters&) const = default;
};

/// Introspection view of one stream.
struct StreamStatus {
  std::uint32_t device = 0;
  std::uint32_t node_id = 0;
  StreamState state = StreamState::Live;
  bool poisoned = false;  ///< analysis stopped by a MalformedTrace
  StreamCounters counters;
  std::vector<QuarantineRecord> ledger;  ///< most recent offences
  std::size_t buffered_bytes = 0;
};

class FleetIngest {
 public:
  explicit FleetIngest(IngestConfig config);
  ~FleetIngest();

  FleetIngest(const FleetIngest&) = delete;
  FleetIngest& operator=(const FleetIngest&) = delete;

  /// Offer one encoded frame from `device`. Creates the stream on first
  /// contact. Only Admit::Accepted consumes the frame.
  Admit offer(std::uint32_t device, std::span<const std::uint8_t> bytes);

  /// Advance logical time: run stall/idle watchdogs, then flush the scoring
  /// backlog through the degradation ladder if it is due.
  void tick();
  std::uint64_t now() const { return now_; }

  /// Orderly shutdown: finalize every live stream (truncating in-flight
  /// intervals at its delivery watermark) and run a last scoring flush.
  void finish_all();

  /// Live outlier board (rebuilt after every scoring flush).
  const std::vector<BoardEntry>& board() const { return board_; }

  /// Batch-equivalent final analysis. Requires every stream terminal
  /// (finish_all() or End frames / eviction). Samples are assembled per
  /// stream in registration order, each stream's sorted by interval start,
  /// matching pipeline::analyze over the same traces row for row (with the
  /// default instruction-counter features; options.features is not read).
  pipeline::AnalysisReport final_report(
      const pipeline::AnalysisOptions& options = {}) const;

  std::vector<StreamStatus> status() const;
  /// Scored/unscored samples with their first-score mode, arrival order.
  std::vector<ScoreMode> sample_modes() const;

  std::size_t stream_count() const { return sessions_.size(); }
  std::size_t sample_count() const { return samples_.size(); }
  bool all_terminal() const;

  /// Retained-state memory proxy: reorder windows + event buffers +
  /// machine state across streams (excludes the analysis output, which
  /// grows with the fleet's interval count by design).
  std::size_t buffered_bytes() const;
  std::size_t peak_buffered_bytes() const { return peak_buffered_bytes_; }

 private:
  struct Session;
  struct SampleSlot {
    pipeline::Sample sample;
    std::vector<double> row;
    double score = 0.0;
    ScoreMode mode = ScoreMode::Unscored;
  };

  Session& session_for(std::uint32_t device);
  void deliver(Session& s, trace::Frame frame);
  void deliver_ready(Session& s);
  void on_lifecycle(Session& s, const trace::LifecycleItem& item);
  void quarantine(Session& s, std::uint64_t seq, std::string reason);
  void collect_intervals(Session& s);
  void featurize_ready(Session& s, bool final_flush);
  void featurize_one(Session& s, const core::EventInterval& interval);
  void evict_buffers(Session& s);
  void finalize(Session& s, sim::Cycle run_end, StreamState state);
  void flush_scores(bool force);
  void rebuild_board();
  std::size_t session_bytes(const Session& s) const;

  IngestConfig config_;
  std::uint64_t table_fingerprint_ = 0;

  std::vector<std::unique_ptr<Session>> sessions_;  ///< registration order
  std::map<std::uint32_t, std::size_t> device_index_;

  std::vector<SampleSlot> samples_;  ///< arrival order (matrix-row order)
  std::size_t backlog_ = 0;          ///< unscored samples
  std::unique_ptr<ml::OneClassSvm> model_;  ///< last fully fitted detector

  std::vector<BoardEntry> board_;
  std::uint64_t now_ = 0;
  std::size_t peak_buffered_bytes_ = 0;
};

}  // namespace sent::stream

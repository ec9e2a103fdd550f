#include "stream/ingest.hpp"

#include <algorithm>

#include "ml/error.hpp"
#include "ml/ocsvm.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace sent::stream {

namespace {

// Streaming-layer introspection (DESIGN.md §14). Registered on first use
// like the pipeline metrics, so the set is identical whenever the ingest
// code runs and --jobs 1 / --jobs N snapshots stay byte-identical.
struct Metrics {
  obs::Counter streams_opened =
      obs::Registry::global().counter("stream.streams.opened");
  obs::Counter streams_finished =
      obs::Registry::global().counter("stream.streams.finished");
  obs::Counter streams_evicted =
      obs::Registry::global().counter("stream.streams.evicted");
  obs::Counter streams_poisoned =
      obs::Registry::global().counter("stream.streams.poisoned");
  obs::Counter frames_accepted =
      obs::Registry::global().counter("stream.frames.accepted");
  obs::Counter frames_quarantined =
      obs::Registry::global().counter("stream.frames.quarantined");
  obs::Counter frames_late =
      obs::Registry::global().counter("stream.frames.late");
  obs::Counter frames_duplicate =
      obs::Registry::global().counter("stream.frames.duplicate");
  obs::Counter frames_skipped =
      obs::Registry::global().counter("stream.frames.skipped");
  obs::Counter backpressure =
      obs::Registry::global().counter("stream.backpressure");
  obs::Counter gap_skips = obs::Registry::global().counter("stream.gap_skips");
  obs::Counter events = obs::Registry::global().counter("stream.events");
  obs::Counter instr_dropped =
      obs::Registry::global().counter("stream.instr_dropped");
  obs::Counter hello_mismatches =
      obs::Registry::global().counter("stream.hello_mismatches");
  obs::Counter intervals =
      obs::Registry::global().counter("stream.intervals");
  obs::Counter samples = obs::Registry::global().counter("stream.samples");
  obs::Counter flush_full =
      obs::Registry::global().counter("stream.flush.full");
  obs::Counter flush_cached =
      obs::Registry::global().counter("stream.flush.cached");
  obs::Counter flush_featurize_only =
      obs::Registry::global().counter("stream.flush.featurize_only");
  obs::Counter scored_full =
      obs::Registry::global().counter("stream.scored.full");
  obs::Counter scored_cached =
      obs::Registry::global().counter("stream.scored.cached");
  obs::Counter scored_featurize_only =
      obs::Registry::global().counter("stream.scored.featurize_only");
  obs::Gauge peak_buffered_bytes =
      obs::Registry::global().gauge("stream.peak_buffered_bytes");
  obs::Gauge peak_backlog =
      obs::Registry::global().gauge("stream.peak_backlog");
  obs::Gauge peak_streams =
      obs::Registry::global().gauge("stream.peak_streams");

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

}  // namespace

const char* to_string(ScoreMode mode) {
  switch (mode) {
    case ScoreMode::Unscored: return "unscored";
    case ScoreMode::Full: return "full";
    case ScoreMode::Cached: return "cached";
    case ScoreMode::FeaturizeOnly: return "featurize-only";
  }
  return "?";
}

struct FleetIngest::Session {
  std::uint32_t device = 0;
  std::uint32_t node_id = 0;  ///< from Hello; the device id until then
  std::size_t run = 0;        ///< registration index (the sample's run tag)
  StreamState state = StreamState::Live;
  bool poisoned = false;

  std::uint64_t next_seq = 0;
  struct Parked {
    trace::Frame frame;
    std::size_t bytes = 0;
  };
  std::map<std::uint64_t, Parked> window;
  std::size_t window_bytes = 0;
  std::uint64_t last_delivery_tick = 0;
  std::uint64_t last_activity_tick = 0;

  core::StreamAnatomizer machine;
  /// Retained suffixes of the instruction and bug-marker streams, evicted
  /// up to the earliest window any in-flight or pending interval can still
  /// need. Lifecycle items go straight into the machine.
  std::vector<trace::InstrExec> instrs;
  std::vector<trace::BugMarker> bugs;
  sim::Cycle watermark = 0;  ///< max delivered record cycle

  std::vector<core::EventInterval> pending;  ///< closed, window incomplete
  StreamCounters counters;
  std::deque<QuarantineRecord> ledger;
  std::vector<std::size_t> sample_slots;  ///< indices into samples_
};

FleetIngest::FleetIngest(IngestConfig config) : config_(std::move(config)) {
  SENT_REQUIRE(config_.reorder_window >= 1);
  SENT_REQUIRE_MSG(config_.cached_backlog <= config_.featurize_only_backlog,
                   "degradation ladder thresholds out of order");
  SENT_REQUIRE_MSG(!config_.instr_table.empty(),
                   "fleet ingest needs the program's instruction table");
  table_fingerprint_ = trace::instr_table_fingerprint(config_.instr_table);
  Metrics::get();  // register the metric set up front
}

FleetIngest::~FleetIngest() = default;

FleetIngest::Session& FleetIngest::session_for(std::uint32_t device) {
  auto it = device_index_.find(device);
  if (it != device_index_.end()) return *sessions_[it->second];
  auto session = std::make_unique<Session>();
  session->device = device;
  session->node_id = device;
  session->run = sessions_.size();
  session->last_delivery_tick = now_;
  session->last_activity_tick = now_;
  device_index_.emplace(device, sessions_.size());
  sessions_.push_back(std::move(session));
  Metrics::get().streams_opened.inc();
  Metrics::get().peak_streams.record(sessions_.size());
  return *sessions_.back();
}

void FleetIngest::quarantine(Session& s, std::uint64_t seq,
                             std::string reason) {
  ++s.counters.frames_quarantined;
  Metrics::get().frames_quarantined.inc();
  s.ledger.push_back(QuarantineRecord{now_, seq, std::move(reason)});
  while (s.ledger.size() > config_.error_ledger_capacity)
    s.ledger.pop_front();
}

Admit FleetIngest::offer(std::uint32_t device,
                         std::span<const std::uint8_t> bytes) {
  Session& s = session_for(device);
  if (s.state != StreamState::Live) return Admit::Rejected;
  s.last_activity_tick = now_;

  trace::FrameDecodeResult decoded = trace::decode_frame(bytes);
  if (!decoded.ok) {
    quarantine(s, bytes.size() >= 15 ? decoded.frame.seq : kNoSeq,
               std::move(decoded.error));
    return Admit::Accepted;
  }
  trace::Frame frame = std::move(decoded.frame);
  if (frame.device != device) {
    quarantine(s, frame.seq,
               "device id mismatch (frame says " +
                   std::to_string(frame.device) + ")");
    return Admit::Accepted;
  }

  if (frame.seq < s.next_seq) {
    // Late or already-delivered frame: first arrival won, deterministically.
    ++s.counters.frames_late;
    Metrics::get().frames_late.inc();
    return Admit::Accepted;
  }
  if (frame.seq == s.next_seq) {
    deliver(s, std::move(frame));
    deliver_ready(s);
    return Admit::Accepted;
  }
  // Gap: park the frame in the bounded reorder window.
  if (s.window.count(frame.seq)) {
    ++s.counters.frames_duplicate;
    Metrics::get().frames_duplicate.inc();
    return Admit::Accepted;
  }
  if (s.window.size() >= config_.reorder_window) {
    ++s.counters.backpressure_signals;
    Metrics::get().backpressure.inc();
    return Admit::Backpressure;
  }
  s.window_bytes += bytes.size();
  s.window.emplace(frame.seq,
                   Session::Parked{std::move(frame), bytes.size()});
  return Admit::Accepted;
}

void FleetIngest::deliver_ready(Session& s) {
  while (s.state == StreamState::Live) {
    auto it = s.window.find(s.next_seq);
    if (it == s.window.end()) break;
    trace::Frame frame = std::move(it->second.frame);
    s.window_bytes -= it->second.bytes;
    s.window.erase(it);
    deliver(s, std::move(frame));
  }
}

void FleetIngest::on_lifecycle(Session& s,
                               const trace::LifecycleItem& item) {
  if (s.poisoned) return;
  try {
    s.machine.push(item);
  } catch (const util::AssertionError& e) {
    // Concurrency-model violation mid-stream (frames lost to a gap skip
    // can cut a handler in half): analysis for this stream stops, the
    // salvaged prefix of intervals stays, the stream itself survives.
    s.poisoned = true;
    Metrics::get().streams_poisoned.inc();
    s.ledger.push_back(
        QuarantineRecord{now_, kNoSeq, std::string("analysis poisoned: ") +
                                           e.what()});
    while (s.ledger.size() > config_.error_ledger_capacity)
      s.ledger.pop_front();
  }
}

void FleetIngest::deliver(Session& s, trace::Frame frame) {
  ++s.counters.frames_accepted;
  Metrics::get().frames_accepted.inc();
  s.next_seq = frame.seq + 1;
  s.last_delivery_tick = now_;

  switch (frame.type) {
    case trace::FrameType::Hello:
      s.node_id = frame.node_id;
      if (frame.instr_table_size != config_.instr_table.size() ||
          frame.instr_table_hash != table_fingerprint_) {
        ++s.counters.hello_mismatches;
        Metrics::get().hello_mismatches.inc();
        s.ledger.push_back(QuarantineRecord{
            now_, frame.seq, "instruction-table fingerprint mismatch"});
        while (s.ledger.size() > config_.error_ledger_capacity)
          s.ledger.pop_front();
      }
      return;
    case trace::FrameType::End:
      finalize(s, frame.run_end, StreamState::Finished);
      return;
    case trace::FrameType::Events:
      break;
  }

  s.counters.events += frame.events.size();
  Metrics::get().events.inc(frame.events.size());
  for (const trace::FrameEvent& ev : frame.events) {
    switch (ev.kind) {
      case trace::FrameEvent::Kind::Lifecycle:
        on_lifecycle(s, ev.item);
        break;
      case trace::FrameEvent::Kind::Instr: {
        const bool late = ev.instr.cycle < s.watermark;
        const bool out_of_table = ev.instr.instr >= config_.instr_table.size();
        if (late || out_of_table) {
          ++s.counters.instr_dropped;
          Metrics::get().instr_dropped.inc();
          continue;  // keep the buffer sorted and indexes in range
        }
        s.instrs.push_back(ev.instr);
        break;
      }
      case trace::FrameEvent::Kind::Bug:
        s.bugs.push_back(ev.bug);
        break;
    }
    s.watermark = std::max(s.watermark, ev.cycle());
  }
  collect_intervals(s);
  featurize_ready(s, /*final_flush=*/false);
  evict_buffers(s);
}

void FleetIngest::collect_intervals(Session& s) {
  if (s.machine.ready_count() == 0) return;
  for (core::EventInterval& interval : s.machine.drain()) {
    if (interval.irq != config_.line) continue;
    ++s.counters.intervals;
    Metrics::get().intervals.inc();
    s.pending.push_back(interval);
  }
}

void FleetIngest::featurize_ready(Session& s, bool final_flush) {
  std::size_t kept = 0;
  for (core::EventInterval& interval : s.pending) {
    // Strictly-greater watermark gate: only once a record PAST the window
    // end has been delivered can no instruction at end_cycle still arrive.
    if (!final_flush && interval.end_cycle >= s.watermark) {
      s.pending[kept++] = interval;
      continue;
    }
    featurize_one(s, interval);
  }
  s.pending.resize(kept);
}

void FleetIngest::featurize_one(Session& s,
                                const core::EventInterval& interval) {
  SampleSlot slot;
  slot.sample.node_id = s.node_id;
  slot.sample.run = s.run;
  slot.sample.interval = interval;
  for (const trace::BugMarker& bug : s.bugs) {
    if (bug.cycle >= interval.start_cycle &&
        bug.cycle <= interval.end_cycle) {
      slot.sample.has_bug = true;
      slot.sample.bug_kinds.push_back(bug.kind);
    }
  }
  slot.row.assign(config_.instr_table.size(), 0.0);
  core::instruction_counter_row(s.instrs, interval, slot.row);
  s.sample_slots.push_back(samples_.size());
  samples_.push_back(std::move(slot));
  ++backlog_;
  ++s.counters.samples;
  Metrics::get().samples.inc();
}

void FleetIngest::evict_buffers(Session& s) {
  // Nothing before the earliest window any in-flight instance or pending
  // interval can still reference is ever needed again; future intervals
  // open at or after the watermark.
  sim::Cycle cycle_floor = s.watermark;
  if (auto c = s.machine.earliest_open_start_cycle())
    cycle_floor = std::min(cycle_floor, *c);
  for (const core::EventInterval& interval : s.pending)
    cycle_floor = std::min(cycle_floor, interval.start_cycle);

  auto instr_cut = std::lower_bound(
      s.instrs.begin(), s.instrs.end(), cycle_floor,
      [](const trace::InstrExec& e, sim::Cycle c) { return e.cycle < c; });
  s.instrs.erase(s.instrs.begin(), instr_cut);
  std::erase_if(s.bugs, [&](const trace::BugMarker& bug) {
    return bug.cycle < cycle_floor;
  });
}

void FleetIngest::finalize(Session& s, sim::Cycle run_end,
                           StreamState state) {
  if (s.state != StreamState::Live) return;
  // Frames still parked behind a gap are lost with the stream.
  if (!s.window.empty()) {
    s.counters.frames_skipped += s.window.size();
    Metrics::get().frames_skipped.inc(s.window.size());
    s.window.clear();
    s.window_bytes = 0;
  }
  if (!s.machine.finished()) {
    try {
      s.machine.finish(run_end);
    } catch (const util::AssertionError& e) {
      s.poisoned = true;
      Metrics::get().streams_poisoned.inc();
      s.ledger.push_back(QuarantineRecord{
          now_, kNoSeq, std::string("finalize poisoned: ") + e.what()});
      while (s.ledger.size() > config_.error_ledger_capacity)
        s.ledger.pop_front();
    }
  }
  collect_intervals(s);
  featurize_ready(s, /*final_flush=*/true);
  s.instrs.clear();
  s.instrs.shrink_to_fit();
  s.bugs.clear();
  s.state = state;
  if (state == StreamState::Evicted)
    Metrics::get().streams_evicted.inc();
  else
    Metrics::get().streams_finished.inc();
}

void FleetIngest::tick() {
  ++now_;
  for (auto& session : sessions_) {
    Session& s = *session;
    if (s.state != StreamState::Live) continue;
    // Stall watchdog: a gap that has blocked delivery past the deadline is
    // skipped — the missing frames are declared lost and the stream moves
    // on from the earliest parked frame.
    if (!s.window.empty() &&
        now_ - s.last_delivery_tick > config_.stall_deadline_ticks) {
      const std::uint64_t first = s.window.begin()->first;
      ++s.counters.gap_skips;
      Metrics::get().gap_skips.inc();
      s.counters.frames_skipped += first - s.next_seq;
      Metrics::get().frames_skipped.inc(first - s.next_seq);
      s.next_seq = first;
      deliver_ready(s);
    }
    // Idle watchdog: a stream whose producer went silent is evicted, its
    // in-flight intervals truncated at the last delivered cycle.
    if (s.state == StreamState::Live &&
        now_ - s.last_activity_tick > config_.evict_after_idle_ticks) {
      finalize(s, s.watermark, StreamState::Evicted);
    }
  }
  flush_scores(/*force=*/false);
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes());
  Metrics::get().peak_buffered_bytes.record(peak_buffered_bytes_);
}

void FleetIngest::finish_all() {
  for (auto& session : sessions_) {
    Session& s = *session;
    if (s.state == StreamState::Live)
      finalize(s, s.watermark, StreamState::Finished);
  }
  flush_scores(/*force=*/true);
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes());
  Metrics::get().peak_buffered_bytes.record(peak_buffered_bytes_);
}

void FleetIngest::flush_scores(bool force) {
  if (backlog_ == 0) return;
  if (!force && backlog_ < config_.rescore_backlog) return;
  Metrics::get().peak_backlog.record(backlog_);

  ScoreMode mode = ScoreMode::Full;
  if (backlog_ > config_.featurize_only_backlog) {
    mode = ScoreMode::FeaturizeOnly;
  } else if (backlog_ > config_.cached_backlog && model_ &&
             model_->fitted()) {
    mode = ScoreMode::Cached;
  }

  if (mode == ScoreMode::Full) {
    const std::size_t dim = samples_.front().row.size();
    ml::Matrix m(samples_.size(), dim);
    for (std::size_t i = 0; i < samples_.size(); ++i)
      std::copy(samples_[i].row.begin(), samples_[i].row.end(),
                m.row(i).begin());
    ml::OcsvmParams params;
    params.pool = config_.pool;
    auto svm = std::make_unique<ml::OneClassSvm>(params);
    std::vector<double> scores;
    try {
      scores = svm->score(m);
    } catch (const ml::TrainingError&) {
      // Degenerate feature matrix: shed this round instead of dying; the
      // final_report path reports its own degradation via the k-NN
      // fallback.
      mode = ScoreMode::FeaturizeOnly;
    }
    if (mode == ScoreMode::Full) {
      model_ = std::move(svm);
      for (std::size_t i = 0; i < samples_.size(); ++i) {
        samples_[i].score = scores[i];
        if (samples_[i].mode == ScoreMode::Unscored) {
          samples_[i].mode = ScoreMode::Full;
          Metrics::get().scored_full.inc();
        }
      }
      Metrics::get().flush_full.inc();
    }
  }

  if (mode == ScoreMode::Cached) {
    std::vector<std::size_t> fresh;
    for (std::size_t i = 0; i < samples_.size(); ++i)
      if (samples_[i].mode == ScoreMode::Unscored) fresh.push_back(i);
    const std::size_t dim = samples_.front().row.size();
    ml::Matrix m(fresh.size(), dim);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      std::copy(samples_[fresh[i]].row.begin(),
                samples_[fresh[i]].row.end(), m.row(i).begin());
    std::vector<double> scores = model_->decision_batch(m);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      samples_[fresh[i]].score = scores[i];
      samples_[fresh[i]].mode = ScoreMode::Cached;
      Metrics::get().scored_cached.inc();
    }
    Metrics::get().flush_cached.inc();
  }

  if (mode == ScoreMode::FeaturizeOnly) {
    for (SampleSlot& slot : samples_) {
      if (slot.mode == ScoreMode::Unscored) {
        slot.mode = ScoreMode::FeaturizeOnly;
        Metrics::get().scored_featurize_only.inc();
      }
    }
    Metrics::get().flush_featurize_only.inc();
  }

  backlog_ = 0;
  rebuild_board();
}

void FleetIngest::rebuild_board() {
  std::vector<std::size_t> scored;
  for (std::size_t i = 0; i < samples_.size(); ++i)
    if (samples_[i].mode == ScoreMode::Full ||
        samples_[i].mode == ScoreMode::Cached)
      scored.push_back(i);
  std::sort(scored.begin(), scored.end(),
            [this](std::size_t a, std::size_t b) {
              if (samples_[a].score != samples_[b].score)
                return samples_[a].score < samples_[b].score;
              return a < b;
            });
  if (scored.size() > config_.top_k) scored.resize(config_.top_k);
  board_.clear();
  for (std::size_t i : scored) {
    const SampleSlot& slot = samples_[i];
    board_.push_back(BoardEntry{slot.score,
                                sessions_[slot.sample.run]->device,
                                slot.sample.label(true, true), slot.mode});
  }
}

pipeline::AnalysisReport FleetIngest::final_report(
    const pipeline::AnalysisOptions& options) const {
  SENT_REQUIRE_MSG(all_terminal(),
                   "final_report() before every stream terminated");
  pipeline::AnalysisReport report;
  core::FeatureMatrix matrix;
  matrix.names = core::instruction_counter_names(config_.instr_table);
  matrix.values = ml::Matrix(0, matrix.names.size());
  for (const auto& session : sessions_) {
    std::vector<std::size_t> order = session->sample_slots;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                return samples_[a].sample.interval.start_index <
                       samples_[b].sample.interval.start_index;
              });
    for (std::size_t i : order) {
      const SampleSlot& slot = samples_[i];
      matrix.values.append_row(slot.row);
      report.samples.push_back(slot.sample);
    }
  }
  SENT_REQUIRE_MSG(!report.samples.empty(),
                   "no event-handling intervals for line "
                       << int(config_.line) << " in the ingested streams");
  pipeline::score_and_rank(report, std::move(matrix), options);
  return report;
}

std::vector<StreamStatus> FleetIngest::status() const {
  std::vector<StreamStatus> out;
  out.reserve(sessions_.size());
  for (const auto& session : sessions_) {
    StreamStatus st;
    st.device = session->device;
    st.node_id = session->node_id;
    st.state = session->state;
    st.poisoned = session->poisoned;
    st.counters = session->counters;
    st.ledger.assign(session->ledger.begin(), session->ledger.end());
    st.buffered_bytes = session_bytes(*session);
    out.push_back(std::move(st));
  }
  return out;
}

std::vector<ScoreMode> FleetIngest::sample_modes() const {
  std::vector<ScoreMode> modes;
  modes.reserve(samples_.size());
  for (const SampleSlot& slot : samples_) modes.push_back(slot.mode);
  return modes;
}

bool FleetIngest::all_terminal() const {
  for (const auto& session : sessions_)
    if (session->state == StreamState::Live) return false;
  return true;
}

std::size_t FleetIngest::session_bytes(const Session& s) const {
  return s.window_bytes + s.instrs.size() * sizeof(trace::InstrExec) +
         s.bugs.size() * (sizeof(trace::BugMarker) + 16) +
         s.pending.size() * sizeof(core::EventInterval) +
         s.machine.state_bytes();
}

std::size_t FleetIngest::buffered_bytes() const {
  std::size_t total = 0;
  for (const auto& session : sessions_) total += session_bytes(*session);
  return total;
}

}  // namespace sent::stream

// In-memory spans for the traced run.
//
// One lane per thread (lane 0 the driving thread, lane w+1 campaign worker
// w), so recording takes no lock: a lane is only ever appended to by the
// thread that owns it. Spans nest by stack discipline within a lane; a
// span may also name a parent in another lane (a campaign worker's run
// span points at the campaign span on lane 0). Everything stays in memory
// until write_jsonl() at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sentbench {

/// Index of a span within a SpanLog: lane and position in that lane.
struct SpanRef {
  std::int32_t lane = -1;
  std::int32_t index = -1;
  bool valid() const { return lane >= 0; }
  bool operator==(const SpanRef&) const = default;
};

struct Span {
  const char* name = "";   ///< static string, e.g. "trace.save"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanRef parent;
  std::uint64_t id = 0;    ///< shared by every span of one seeded run
  /// Lanes the span's children run on at once (a campaign fans its runs
  /// over `workers` lanes); its capacity is duration * parallelism.
  std::uint32_t parallelism = 1;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  explicit SpanLog(std::size_t lanes) : lanes_(lanes) {}

  std::size_t lanes() const { return lanes_.size(); }
  const std::vector<Span>& lane(std::size_t i) const {
    return lanes_.at(i).spans;
  }

  /// Open a span on `lane` at time `at`; its parent is the innermost open
  /// span of that lane, or `parent` when the lane has none open.
  SpanRef open(std::size_t lane, const char* name, std::uint64_t id,
               SpanRef parent = {}, std::uint32_t parallelism = 1,
               std::int64_t at = now_ns());
  /// Close `ref`, which must be the innermost open span of its lane.
  void close(SpanRef ref, std::int64_t at = now_ns());

  /// One JSON object per line: lane, index, name, id, start/end ns
  /// (relative to the earliest span), parent lane/index.
  void write_jsonl(std::ostream& out) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  std::vector<Lane> lanes_;
};

/// RAII span: opened on construction, closed on destruction (also when
/// the timed call throws). A null log records nothing, so one code path
/// serves the traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::size_t lane, const char* name,
             std::uint64_t id, SpanRef parent = {},
             std::uint32_t parallelism = 1)
      : log_(log),
        ref_(log ? log->open(lane, name, id, parent, parallelism)
                 : SpanRef{}) {}
  ~ScopedSpan() {
    if (log_) log_->close(ref_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRef ref() const { return ref_; }

 private:
  SpanLog* log_;
  SpanRef ref_;
};

}  // namespace sentbench

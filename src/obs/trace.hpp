// Phase scopes and the phase timeline (DESIGN.md §11).
//
// Span is the program's one RAII phase scope (one seeded run, one event
// loop, one anatomize pass, one Gram build). It measures its lifetime once
// and records it under its Phase's name twice over: as a registry timer
// when the Registry is enabled, and as a trace span in the global TraceLog
// when the log is enabled. With both off it reads no clock at all.
//
// Completed spans export in the Chrome `trace_event` JSON format — load
// the file in chrome://tracing or Perfetto to see where a campaign's wall
// clock went, per worker thread. Timers and spans are wall-clock data and
// therefore outside the determinism contract; both are off by default.
// Phase names must be string literals (the log stores the pointers, not
// copies); the part before the first '.' is the span's category.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace sent::obs {

/// One completed span ("X" complete event in trace_event terms).
struct TraceEvent {
  const char* name = "";
  std::uint32_t tid = 0;       ///< small sequential id per recording thread
  std::uint64_t ts_us = 0;     ///< start, microseconds since log epoch
  std::uint64_t dur_us = 0;
  std::uint64_t arg = 0;       ///< optional user payload (e.g. the seed)
  bool has_arg = false;
};

class TraceLog {
 public:
  static TraceLog& global();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void append(const TraceEvent& event);

  /// Render all events (sorted by start time, then thread) as Chrome
  /// trace_event JSON: {"traceEvents": [...]}.
  std::string to_chrome_json() const;

  /// Write to_chrome_json() to a file; false (with a message on stderr)
  /// when the file cannot be opened.
  bool write_chrome_json(const std::string& path) const;

  /// Microseconds from the log's epoch (set when first enabled) to a
  /// Registry::now_ns() reading.
  std::uint64_t us_since_epoch(std::uint64_t ns) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_ns_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// A named phase: its registry timer plus the name its trace spans carry.
/// Modules build their phases once, in their function-local Metrics block
/// (registration takes the registry lock, so never per scope).
struct Phase {
  explicit Phase(const char* name, Registry& registry = Registry::global())
      : name(name), timer(registry.timer(name)) {}

  const char* name;
  Histogram timer;
};

/// RAII phase scope over a Phase (see the file comment). Nesting works
/// naturally: inner scopes record shorter windows on the same thread.
class Span {
 public:
  explicit Span(const Phase& phase);
  Span(const Phase& phase, std::uint64_t arg);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const Phase& phase_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
  bool timed_ = false;   ///< registry was enabled at construction
  bool traced_ = false;  ///< trace log was enabled at construction
};

}  // namespace sent::obs

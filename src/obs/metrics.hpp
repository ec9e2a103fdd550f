// Run-introspection metrics (DESIGN.md §11).
//
// A Registry is a process-wide table of named counters, gauges (high-water
// marks), value histograms, and wall-clock timers. Recording is lock-free:
// every thread owns a private shard of relaxed atomics, so instrumented hot
// paths never contend and a `--jobs N` campaign records exactly the same
// logical totals as a serial one. snapshot() merges the shards (sum for
// counters, max for gauges, bucket-wise sum for histograms) and sorts by
// name, so two runs that perform the same logical work produce
// byte-identical JSON regardless of thread count.
//
// Determinism contract: counters, gauges, and histograms must only record
// LOGICAL quantities (events dispatched, SMO iterations, queue depths) —
// values that are a pure function of the workload. Wall-clock durations go
// through an obs::Span phase scope (obs/trace.hpp) into the separate
// `timers` section, which deterministic_equal() ignores and to_json() omits
// unless asked.
//
// Overhead budget: a disabled registry costs one relaxed atomic load per
// record call; an enabled one costs a thread-local lookup plus a handful of
// relaxed atomic adds. Instrumentation must stay out of per-element inner
// loops (record per event / per fit / per build, never per matrix cell).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sent::obs {

/// Histogram buckets are powers of two: value v lands in bucket
/// bit_width(v), i.e. bucket 0 holds v==0, bucket 1 holds v==1, bucket b
/// (b>=2) holds [2^(b-1), 2^b). 65 buckets cover the full uint64 range.
inline constexpr std::size_t kHistBuckets = 65;

/// Merged view of one histogram (or timer, in nanoseconds).
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  double mean() const;

  /// Linear interpolation inside the power-of-two bucket containing the
  /// p-th percentile (p in [0, 100]). Exact for values 0 and 1; within a
  /// factor of 2 of the true value otherwise (see obs_test).
  double percentile(double p) const;

  void merge(const HistogramData& other);

  bool operator==(const HistogramData&) const = default;
};

/// Point-in-time merged view of a Registry, sections sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;
  std::vector<std::pair<std::string, HistogramData>> timers;  ///< wall ns

  /// Render as JSON. The deterministic sections (counters / gauges /
  /// histograms) are always present; `timers` only when requested, since
  /// wall-clock data is excluded from the determinism contract.
  std::string to_json(bool include_timers = false) const;

  /// Equality over the deterministic sections only (timers ignored).
  bool deterministic_equal(const Snapshot& other) const;

  /// Value of a named counter, 0 when absent. Sections are sorted by name
  /// so lookup is a binary search; tests and smoke checks assert on it
  /// instead of re-parsing to_json().
  std::uint64_t counter_value(std::string_view name) const;
  /// Merged timer by name, nullptr when absent.
  const HistogramData* timer_data(std::string_view name) const;
};

class Registry;

/// Monotonic event count. Merge across shards: sum.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const;

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// High-water mark. Merge across shards: max. record() keeps the largest
/// value seen, which is thread-count invariant for per-run maxima.
class Gauge {
 public:
  Gauge() = default;
  void record(std::uint64_t v) const;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Distribution of logical values (or of wall nanoseconds when created via
/// Registry::timer). Merge across shards: bucket-wise sum.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const;

 private:
  friend class Registry;
  friend class Span;
  Histogram(Registry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem records into. Never
  /// destroyed before thread exit handlers need it (function-local static).
  static Registry& global();

  /// Recording is a no-op while disabled (the default for global()). The
  /// flag is a relaxed atomic so toggling is cheap and race-free.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Handle lookup / registration. The same name always yields a handle to
  /// the same metric; names must stay under one kind. Handles are cheap to
  /// copy and remain valid for the registry's lifetime. Modules cache them
  /// in a function-local static struct so the registered set is identical
  /// whenever the same code paths run (a prerequisite for byte-identical
  /// snapshots across thread counts).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);
  /// A histogram placed in the snapshot's `timers` section (wall ns).
  Histogram timer(std::string_view name);

  /// Merge all shards into a sorted snapshot. Safe to call while other
  /// threads record (relaxed reads; in-flight updates may or may not be
  /// visible, which only matters mid-workload).
  Snapshot snapshot() const;

  /// Zero every shard (counts recorded by exited threads included). For
  /// benches/tests that measure one workload at a time.
  void reset();

  /// Monotonic wall clock, nanoseconds (steady_clock). The only clock the
  /// program reads; obs::Span and TraceLog are its callers.
  static std::uint64_t now_ns();

  // Capacity of one shard, per kind. Exceeding these is a programming
  // error (SENT_REQUIRE); bump if the instrumentation surface outgrows it.
  static constexpr std::size_t kMaxCounters = 192;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 128;  ///< incl. timers

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct HistCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };

  /// One thread's private slice of every metric. Counters and gauges are
  /// flat atomic arrays; histogram cells are allocated on first record so
  /// idle shards stay ~2 KB.
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges{};
    std::array<std::atomic<HistCell*>, kMaxHistograms> hists{};
    ~Shard();
  };

  Shard* shard() const;
  HistCell& hist_cell(Shard& shard, std::uint32_t slot) const;
  std::uint32_t register_name(std::vector<std::string>& names,
                              std::string_view name, std::size_t limit,
                              const char* kind) const;

  const std::uint64_t id_;  ///< process-unique, never reused
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;  ///< guards names_ and shards_ vectors
  mutable std::vector<std::string> counter_names_;
  mutable std::vector<std::string> gauge_names_;
  mutable std::vector<std::string> hist_names_;
  mutable std::vector<bool> hist_is_timer_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sent::obs

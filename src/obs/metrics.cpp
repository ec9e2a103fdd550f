#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/assert.hpp"

namespace sent::obs {

namespace {

/// Bucket index for a value: bit_width(v), so bucket 0 is v==0, bucket 1
/// is v==1, bucket b >= 2 covers [2^(b-1), 2^b).
std::size_t bucket_index(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

/// Inclusive value range covered by a bucket.
std::pair<double, double> bucket_range(std::size_t b) {
  if (b == 0) return {0.0, 0.0};
  if (b == 1) return {1.0, 1.0};
  double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
  return {lo, 2.0 * lo - 1.0};
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur > v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Format a double compactly and reproducibly ("%.6g" is a pure function
/// of the value, and the value is a pure function of the merged buckets).
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_histogram_json(std::ostringstream& os, const HistogramData& h) {
  os << "{\"count\": " << h.count << ", \"sum\": " << h.sum
     << ", \"min\": " << h.min << ", \"max\": " << h.max
     << ", \"mean\": " << fmt_double(h.mean())
     << ", \"p50\": " << fmt_double(h.percentile(50))
     << ", \"p90\": " << fmt_double(h.percentile(90))
     << ", \"p99\": " << fmt_double(h.percentile(99)) << ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << b << ", " << h.buckets[b] << "]";
  }
  os << "]}";
}

}  // namespace

double HistogramData::mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramData::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 100.0) return static_cast<double>(max);
  // Rank of the percentile (1-based, nearest-rank), then interpolate
  // linearly across the containing bucket's value range.
  double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    std::uint64_t next = seen + buckets[b];
    if (rank <= static_cast<double>(next)) {
      auto [lo, hi] = bucket_range(b);
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(buckets[b]);
      double v = lo + frac * (hi - lo);
      return std::min(std::max(v, static_cast<double>(min)),
                      static_cast<double>(max));
    }
    seen = next;
  }
  return static_cast<double>(max);
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kHistBuckets; ++b)
    buckets[b] += other.buckets[b];
}

std::string Snapshot::to_json(bool include_timers) const {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i)
    os << (i ? "," : "") << "\n    \"" << counters[i].first
       << "\": " << counters[i].second;
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i)
    os << (i ? "," : "") << "\n    \"" << gauges[i].first
       << "\": " << gauges[i].second;
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << histograms[i].first << "\": ";
    append_histogram_json(os, histograms[i].second);
  }
  os << (histograms.empty() ? "" : "\n  ") << "}";
  if (include_timers) {
    os << ",\n  \"timers\": {";
    for (std::size_t i = 0; i < timers.size(); ++i) {
      os << (i ? "," : "") << "\n    \"" << timers[i].first << "\": ";
      append_histogram_json(os, timers[i].second);
    }
    os << (timers.empty() ? "" : "\n  ") << "}";
  }
  os << "\n}\n";
  return os.str();
}

bool Snapshot::deterministic_equal(const Snapshot& other) const {
  return counters == other.counters && gauges == other.gauges &&
         histograms == other.histograms;
}

namespace {

template <typename T>
const T* find_sorted(
    const std::vector<std::pair<std::string, T>>& section,
    std::string_view name) {
  auto it = std::lower_bound(
      section.begin(), section.end(), name,
      [](const std::pair<std::string, T>& entry, std::string_view n) {
        return entry.first < n;
      });
  if (it == section.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  const std::uint64_t* v = find_sorted(counters, name);
  return v ? *v : 0;
}

const HistogramData* Snapshot::timer_data(std::string_view name) const {
  return find_sorted(timers, name);
}

// ---------------------------------------------------------------------------

Registry::Shard::~Shard() {
  for (auto& slot : hists) delete slot.load(std::memory_order_relaxed);
}

namespace {
std::atomic<std::uint64_t> g_next_registry_id{1};
}  // namespace

Registry::Registry() : id_(g_next_registry_id.fetch_add(1)) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

std::uint64_t Registry::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Registry::register_name(std::vector<std::string>& names,
                                      std::string_view name,
                                      std::size_t limit,
                                      const char* kind) const {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  SENT_REQUIRE_MSG(names.size() < limit,
                   "obs registry out of " << kind << " slots registering "
                                          << name);
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counter(this,
                 register_name(counter_names_, name, kMaxCounters,
                               "counter"));
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Gauge(this, register_name(gauge_names_, name, kMaxGauges, "gauge"));
}

Histogram Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t slot =
      register_name(hist_names_, name, kMaxHistograms, "histogram");
  if (slot == hist_is_timer_.size()) hist_is_timer_.push_back(false);
  SENT_ASSERT(!hist_is_timer_.at(slot));
  return Histogram(this, slot);
}

Histogram Registry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t slot =
      register_name(hist_names_, name, kMaxHistograms, "histogram");
  if (slot == hist_is_timer_.size()) hist_is_timer_.push_back(true);
  SENT_ASSERT(hist_is_timer_.at(slot));
  return Histogram(this, slot);
}

Registry::Shard* Registry::shard() const {
  // Per-thread cache keyed by the registry's never-reused id, so a stale
  // entry for a destroyed registry can never alias a new one.
  struct CacheEntry {
    std::uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache)
    if (e.registry_id == id_) return e.shard;
  auto owned = std::make_unique<Shard>();
  Shard* raw = owned.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::move(owned));
  }
  cache.push_back(CacheEntry{id_, raw});
  return raw;
}

Registry::HistCell& Registry::hist_cell(Shard& shard,
                                        std::uint32_t slot) const {
  std::atomic<HistCell*>& cell = shard.hists[slot];
  HistCell* loaded = cell.load(std::memory_order_acquire);
  if (loaded) return *loaded;
  // Only the owning thread records into a shard, so this allocation is
  // uncontended; the CAS guards against hypothetical sharing anyway.
  auto* fresh = new HistCell();
  HistCell* expected = nullptr;
  if (cell.compare_exchange_strong(expected, fresh,
                                   std::memory_order_release,
                                   std::memory_order_acquire))
    return *fresh;
  delete fresh;
  return *expected;
}

Snapshot Registry::snapshot() const {
  // Copy the name tables and the shard pointer list under the lock, then
  // read the cells relaxed (recording threads may race; their updates are
  // independent relaxed atomics).
  std::vector<std::string> counter_names, gauge_names, hist_names;
  std::vector<bool> hist_is_timer;
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counter_names = counter_names_;
    gauge_names = gauge_names_;
    hist_names = hist_names_;
    hist_is_timer = hist_is_timer_;
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }

  Snapshot snap;
  snap.counters.reserve(counter_names.size());
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (Shard* s : shards)
      total += s->counters[i].load(std::memory_order_relaxed);
    snap.counters.emplace_back(counter_names[i], total);
  }
  for (std::size_t i = 0; i < gauge_names.size(); ++i) {
    std::uint64_t hwm = 0;
    for (Shard* s : shards)
      hwm = std::max(hwm, s->gauges[i].load(std::memory_order_relaxed));
    snap.gauges.emplace_back(gauge_names[i], hwm);
  }
  for (std::size_t i = 0; i < hist_names.size(); ++i) {
    HistogramData merged;
    for (Shard* s : shards) {
      HistCell* cell = s->hists[i].load(std::memory_order_acquire);
      if (!cell) continue;
      HistogramData part;
      part.count = cell->count.load(std::memory_order_relaxed);
      if (part.count == 0) continue;
      part.sum = cell->sum.load(std::memory_order_relaxed);
      part.min = cell->min.load(std::memory_order_relaxed);
      part.max = cell->max.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        part.buckets[b] = cell->buckets[b].load(std::memory_order_relaxed);
      merged.merge(part);
    }
    auto& section = hist_is_timer[i] ? snap.timers : snap.histograms;
    section.emplace_back(hist_names[i], merged);
  }

  auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  std::sort(snap.timers.begin(), snap.timers.end(), by_name);
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : shard->gauges) g.store(0, std::memory_order_relaxed);
    for (auto& slot : shard->hists) {
      HistCell* cell = slot.load(std::memory_order_acquire);
      if (!cell) continue;
      cell->count.store(0, std::memory_order_relaxed);
      cell->sum.store(0, std::memory_order_relaxed);
      cell->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
      cell->max.store(0, std::memory_order_relaxed);
      for (auto& b : cell->buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------

void Counter::inc(std::uint64_t n) const {
  if (!registry_ || !registry_->enabled()) return;
  registry_->shard()->counters[slot_].fetch_add(n,
                                                std::memory_order_relaxed);
}

void Gauge::record(std::uint64_t v) const {
  if (!registry_ || !registry_->enabled()) return;
  atomic_max(registry_->shard()->gauges[slot_], v);
}

void Histogram::record(std::uint64_t v) const {
  if (!registry_ || !registry_->enabled()) return;
  Registry::HistCell& cell =
      registry_->hist_cell(*registry_->shard(), slot_);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(v, std::memory_order_relaxed);
  atomic_min(cell.min, v);
  atomic_max(cell.max, v);
  cell.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace sent::obs

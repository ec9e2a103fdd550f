#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

namespace sent::obs {

namespace {

/// Sequential per-thread id (0 is reserved so exported tids start at 1).
std::uint32_t thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

}  // namespace

TraceLog& TraceLog::global() {
  static TraceLog log;
  return log;
}

void TraceLog::set_enabled(bool on) {
  if (on) {
    std::uint64_t expected = 0;
    epoch_ns_.compare_exchange_strong(expected, Registry::now_ns());
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t TraceLog::us_since_epoch(std::uint64_t ns) const {
  std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return ns > epoch ? (ns - epoch) / 1000 : 0;
}

void TraceLog::append(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::string TraceLog::to_chrome_json() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.dur_us > b.dur_us;  // enclosing span first
            });
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::string_view name = e.name;
    os << "  {\"name\": \"" << name << "\", \"cat\": \""
       << name.substr(0, name.find('.'))
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us;
    if (e.has_arg) os << ", \"args\": {\"v\": " << e.arg << "}";
    os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.str();
}

bool TraceLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
    return false;
  }
  out << to_chrome_json();
  return true;
}

Span::Span(const Phase& phase)
    : phase_(phase),
      timed_(phase.timer.registry_ && phase.timer.registry_->enabled()),
      traced_(TraceLog::global().enabled()) {
  if (timed_ || traced_) start_ns_ = Registry::now_ns();
}

Span::Span(const Phase& phase, std::uint64_t arg) : Span(phase) {
  arg_ = arg;
  has_arg_ = true;
}

Span::~Span() {
  if (!timed_ && !traced_) return;
  const std::uint64_t end_ns = Registry::now_ns();
  if (timed_) phase_.timer.record(end_ns - start_ns_);
  if (!traced_) return;
  TraceLog& log = TraceLog::global();
  TraceEvent event;
  event.name = phase_.name;
  event.tid = thread_tid();
  event.ts_us = log.us_since_epoch(start_ns_);
  event.dur_us = (end_ns - start_ns_) / 1000;
  event.arg = arg_;
  event.has_arg = has_arg_;
  log.append(event);
}

}  // namespace sent::obs

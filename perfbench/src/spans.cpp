#include "spans.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

namespace sentbench {

SpanRef SpanLog::open(std::size_t lane, const char* name, std::uint64_t id,
                      SpanRef parent, std::uint32_t parallelism,
                      std::int64_t at) {
  Lane& l = lanes_.at(lane);
  Span span;
  span.name = name;
  span.id = id;
  span.parallelism = parallelism;
  span.parent = l.open.empty()
                    ? parent
                    : SpanRef{static_cast<std::int32_t>(lane), l.open.back()};
  span.start_ns = at;
  l.spans.push_back(span);
  const auto index = static_cast<std::int32_t>(l.spans.size() - 1);
  l.open.push_back(index);
  return SpanRef{static_cast<std::int32_t>(lane), index};
}

void SpanLog::close(SpanRef ref, std::int64_t at) {
  // ScopedSpan closes in reverse order of opening, so the span is always
  // the innermost open one of its lane.
  Lane& l = lanes_[static_cast<std::size_t>(ref.lane)];
  l.open.pop_back();
  l.spans[static_cast<std::size_t>(ref.index)].end_ns = at;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans) origin = std::min(origin, s.start_ns);
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Span>& spans = lanes_[lane].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"lane\":" << lane << ",\"index\":" << i << ",\"name\":\""
          << s.name << "\",\"id\":" << s.id
          << ",\"start_ns\":" << s.start_ns - origin
          << ",\"end_ns\":" << s.end_ns - origin;
      if (s.parent.valid())
        out << ",\"parent\":[" << s.parent.lane << "," << s.parent.index
            << "]";
      out << "}\n";
    }
  }
}

}  // namespace sentbench

#include "core/anatomizer.hpp"

#include <algorithm>
#include <map>

#include "core/stream_anatomizer.hpp"

namespace sent::core {

using trace::LifecycleItem;
using trace::LifecycleKind;

Anatomizer::Anatomizer(const trace::NodeTrace& trace) : trace_(trace) {
  const auto& seq = trace_.lifecycle;
  // Whole-sequence validation first, so grammar violations surface with the
  // same diagnostics regardless of where the replay would trip over them.
  validate_lifecycle(seq);

  StreamAnatomizer machine;
  for (const auto& item : seq) machine.push(item);
  machine.finish(trace_.run_end);
  intervals_ = machine.drain();
  std::sort(intervals_.begin(), intervals_.end(),
            [](const EventInterval& a, const EventInterval& b) {
              return a.start_index < b.start_index;
            });
}

std::vector<EventInterval> Anatomizer::intervals_for(
    trace::IrqLine line) const {
  std::vector<EventInterval> out;
  const auto& seq = trace_.lifecycle;
  for (const EventInterval& interval : intervals_) {
    if (seq[interval.start_index].arg != line) continue;
    out.push_back(interval);
    out.back().seq_in_type = out.size() - 1;
  }
  return out;
}

std::vector<EventInterval> Anatomizer::all_intervals() const {
  std::vector<EventInterval> out = intervals_;
  std::map<trace::IrqLine, std::size_t> counters;
  for (EventInterval& interval : out)
    interval.seq_in_type = counters[interval.irq]++;
  return out;
}

std::vector<trace::IrqLine> Anatomizer::event_types() const {
  std::vector<trace::IrqLine> lines;
  for (const auto& item : trace_.lifecycle) {
    if (item.kind == LifecycleKind::Int) {
      auto line = static_cast<trace::IrqLine>(item.arg);
      if (std::find(lines.begin(), lines.end(), line) == lines.end())
        lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace sent::core

#include "core/coverage.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace sent::core {

std::uint64_t InterleavingCoverage::count(trace::IrqLine outer,
                                          trace::IrqLine inner) const {
  auto it = pairs.find({outer, inner});
  return it == pairs.end() ? 0 : it->second;
}

double InterleavingCoverage::ratio() const {
  if (event_types.empty()) return 0.0;
  double possible = static_cast<double>(event_types.size()) *
                    static_cast<double>(event_types.size());
  return static_cast<double>(pairs.size()) / possible;
}

void InterleavingCoverage::merge(const InterleavingCoverage& other) {
  for (const auto& [pair, count] : other.pairs) pairs[pair] += count;
  for (trace::IrqLine line : other.event_types) {
    if (std::find(event_types.begin(), event_types.end(), line) ==
        event_types.end())
      event_types.push_back(line);
  }
  std::sort(event_types.begin(), event_types.end());
}

std::string InterleavingCoverage::render() const {
  util::Table table({"outer interval type", "overlapped by", "count"});
  for (const auto& [pair, count] : pairs) {
    std::string inner = std::to_string(int(pair.inner));
    if (pair.inner == pair.outer) inner += " (self)";
    table.add_row({"int(" + std::to_string(int(pair.outer)) + ")",
                   "int(" + inner + ")", util::cell(count)});
  }
  std::ostringstream os;
  os << table.render();
  os << "coverage ratio: " << ratio() << " (" << pairs.size() << " of "
     << event_types.size() * event_types.size() << " ordered pairs)\n";
  return os.str();
}

InterleavingCoverage measure_interleaving(const trace::NodeTrace& trace) {
  Anatomizer anatomizer(trace);
  InterleavingCoverage cov;
  cov.event_types = anatomizer.event_types();

  // Index every int() item by cycle for window queries.
  struct IntItem {
    sim::Cycle cycle;
    trace::IrqLine line;
    std::size_t index;
  };
  std::vector<IntItem> ints;
  for (std::size_t i = 0; i < trace.lifecycle.size(); ++i) {
    const auto& item = trace.lifecycle[i];
    if (item.kind == trace::LifecycleKind::Int)
      ints.push_back({item.cycle, static_cast<trace::IrqLine>(item.arg), i});
  }

  for (const auto& interval : anatomizer.all_intervals()) {
    auto lo = std::lower_bound(ints.begin(), ints.end(),
                               interval.start_cycle,
                               [](const IntItem& it, sim::Cycle c) {
                                 return it.cycle < c;
                               });
    for (auto it = lo;
         it != ints.end() && it->cycle <= interval.end_cycle; ++it) {
      if (it->index == interval.start_index) continue;  // the opener
      ++cov.pairs[{interval.irq, it->line}];
    }
  }
  return cov;
}

}  // namespace sent::core

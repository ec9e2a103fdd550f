#include "core/features.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace sent::core {

namespace {

// Iterate the instruction executions falling inside [start, end] and call
// `fn(instr_id)` for each. The instruction stream is chronological, so a
// binary search bounds the scan.
template <typename Fn>
void for_instrs_in_window(std::span<const trace::InstrExec> instrs,
                          const EventInterval& interval, Fn&& fn) {
  auto lo = std::lower_bound(
      instrs.begin(), instrs.end(), interval.start_cycle,
      [](const trace::InstrExec& e, sim::Cycle c) { return e.cycle < c; });
  for (auto it = lo; it != instrs.end() && it->cycle <= interval.end_cycle;
       ++it) {
    fn(it->instr);
  }
}

const std::vector<std::string>& coarse_feature_names() {
  static const std::vector<std::string> names = {
      "duration_cycles", "instr_executed", "task_count", "posts_in_window",
      "ints_in_window"};
  return names;
}

/// Coarse scalar row over the whole trace's instruction and lifecycle
/// sequences.
void coarse_row(std::span<const trace::InstrExec> instrs,
                std::span<const trace::LifecycleItem> items,
                const EventInterval& interval, std::span<double> row) {
  double instr_executed = 0;
  for_instrs_in_window(instrs, interval,
                       [&](trace::InstrId) { instr_executed += 1.0; });
  double posts = 0, ints = 0;
  for (std::size_t i = interval.start_index;
       i <= interval.end_index && i < items.size(); ++i) {
    const auto& item = items[i];
    posts += item.kind == trace::LifecycleKind::PostTask;
    ints += item.kind == trace::LifecycleKind::Int;
  }
  row[0] = static_cast<double>(interval.duration());
  row[1] = instr_executed;
  row[2] = static_cast<double>(interval.task_count);
  row[3] = posts;
  row[4] = ints;
}

/// Static instruction -> code-object column mapping (columns in order of
/// first appearance in the table).
struct CodeObjectColumns {
  std::vector<std::string> names;
  std::vector<std::size_t> instr_to_column;

  static CodeObjectColumns build(const std::vector<trace::InstrMeta>& table);
};

CodeObjectColumns CodeObjectColumns::build(
    const std::vector<trace::InstrMeta>& table) {
  CodeObjectColumns columns;
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(table.size());
  columns.instr_to_column.resize(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::string& name = table[i].code_object;
    auto [it, inserted] = index.try_emplace(name, columns.names.size());
    if (inserted) columns.names.push_back(name);
    columns.instr_to_column[i] = it->second;
  }
  return columns;
}

void code_object_row(std::span<const trace::InstrExec> instrs,
                     const CodeObjectColumns& columns,
                     const EventInterval& interval, std::span<double> row) {
  for_instrs_in_window(instrs, interval, [&](trace::InstrId id) {
    SENT_ASSERT(id < columns.instr_to_column.size());
    row[columns.instr_to_column[id]] += 1.0;
  });
}

}  // namespace

std::vector<std::string> instruction_counter_names(
    const std::vector<trace::InstrMeta>& table) {
  std::vector<std::string> names;
  names.reserve(table.size());
  for (const auto& meta : table)
    names.push_back(meta.code_object + "/" + meta.name);
  return names;
}

void instruction_counter_row(std::span<const trace::InstrExec> instrs,
                             const EventInterval& interval,
                             std::span<double> row) {
  for_instrs_in_window(instrs, interval, [&](trace::InstrId id) {
    SENT_ASSERT(id < row.size());
    row[id] += 1.0;
  });
}

FeatureMatrix instruction_counters(
    const trace::NodeTrace& trace, std::span<const EventInterval> intervals) {
  SENT_REQUIRE_MSG(!trace.instr_table.empty(),
                   "trace has no instruction table");
  FeatureMatrix m;
  m.names = instruction_counter_names(trace.instr_table);

  // One flat allocation for the whole matrix; rows are zero-filled and
  // incremented in place (no per-interval scratch row).
  m.values = ml::Matrix(intervals.size(), trace.instr_table.size());
  for (std::size_t r = 0; r < intervals.size(); ++r)
    instruction_counter_row(trace.instrs, intervals[r], m.values.row(r));
  return m;
}

FeatureMatrix coarse_features(const trace::NodeTrace& trace,
                              std::span<const EventInterval> intervals) {
  FeatureMatrix m;
  m.names = coarse_feature_names();
  m.values = ml::Matrix(intervals.size(), m.names.size());
  for (std::size_t r = 0; r < intervals.size(); ++r)
    coarse_row(trace.instrs, trace.lifecycle, intervals[r], m.values.row(r));
  return m;
}

FeatureMatrix code_object_counters(
    const trace::NodeTrace& trace, std::span<const EventInterval> intervals) {
  SENT_REQUIRE_MSG(!trace.instr_table.empty(),
                   "trace has no instruction table");
  CodeObjectColumns columns = CodeObjectColumns::build(trace.instr_table);
  FeatureMatrix m;
  m.names = columns.names;
  m.values = ml::Matrix(intervals.size(), m.names.size());
  for (std::size_t r = 0; r < intervals.size(); ++r)
    code_object_row(trace.instrs, columns, intervals[r], m.values.row(r));
  return m;
}

void append_rows(FeatureMatrix& base, const FeatureMatrix& other) {
  if (base.names.empty() && base.empty()) {
    base = other;
    return;
  }
  SENT_REQUIRE_MSG(base.names == other.names,
                   "FeatureMatrix column layouts differ");
  base.values.append_rows(other.values);
}

}  // namespace sent::core

#include "trace/recorder.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sent::trace {

Recorder::Recorder(std::uint32_t node_id, NodeTrace recycled)
    : trace_(std::move(recycled)) {
  SENT_REQUIRE_MSG(trace_.lifecycle.empty() && trace_.instrs.empty() &&
                       trace_.bugs.empty() && trace_.instr_table.empty() &&
                       trace_.run_end == 0,
                   "recycled trace buffer is not blank");
  trace_.node_id = node_id;
}

void Recorder::on_post_task(sim::Cycle cycle, TaskId task) {
  trace_.lifecycle.push_back(
      {LifecycleKind::PostTask, cycle, task, /*end_cycle=*/0});
}

std::size_t Recorder::on_run_task(sim::Cycle cycle, TaskId task) {
  trace_.lifecycle.push_back(
      {LifecycleKind::RunTask, cycle, task, /*end_cycle=*/0});
  return trace_.lifecycle.size() - 1;
}

void Recorder::on_task_end(std::size_t run_item_index, sim::Cycle cycle) {
  SENT_REQUIRE(run_item_index < trace_.lifecycle.size());
  LifecycleItem& item = trace_.lifecycle[run_item_index];
  SENT_REQUIRE(item.kind == LifecycleKind::RunTask);
  SENT_ASSERT_MSG(item.end_cycle == 0, "task end recorded twice");
  item.end_cycle = cycle;
}

void Recorder::on_int(sim::Cycle cycle, IrqLine line) {
  trace_.lifecycle.push_back({LifecycleKind::Int, cycle, line, 0});
}

void Recorder::on_reti(sim::Cycle cycle, IrqLine line) {
  trace_.lifecycle.push_back({LifecycleKind::Reti, cycle, line, 0});
}

void Recorder::on_bug(sim::Cycle cycle, const std::string& kind) {
  trace_.bugs.push_back({cycle, kind});
}

void Recorder::set_instr_table(std::vector<InstrMeta> table) {
  trace_.instr_table = std::move(table);
}

NodeTrace Recorder::take(sim::Cycle run_end) {
  trace_.run_end = run_end;
  return std::move(trace_);
}

}  // namespace sent::trace

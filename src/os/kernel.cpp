#include "os/kernel.hpp"

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace sent::os {

namespace {

// Registered as one block on first use (DESIGN.md §11). The latency
// histogram is in virtual cycles — a logical quantity, so it stays inside
// the deterministic sections of the metrics snapshot.
struct Metrics {
  obs::Counter posted = obs::Registry::global().counter("os.tasks_posted");
  obs::Counter run = obs::Registry::global().counter("os.tasks_run");
  obs::Gauge queue_hwm = obs::Registry::global().gauge("os.task_queue_hwm");
  obs::Histogram post_to_run =
      obs::Registry::global().histogram("os.post_to_run_cycles");

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

}  // namespace

Kernel::Kernel(sim::EventQueue& queue, trace::Recorder& recorder,
               mcu::Machine& machine, const mcu::Program& program)
    : queue_time_(queue),
      recorder_(recorder),
      machine_(machine),
      program_(program) {
  machine_.set_task_provider(this);
}

trace::TaskId Kernel::register_task(mcu::CodeId code) {
  SENT_REQUIRE_MSG(program_.code(code).is_task,
                   "register_task on non-task code object "
                       << program_.code(code).name);
  task_codes_.push_back(code);
  return static_cast<trace::TaskId>(task_codes_.size() - 1);
}

void Kernel::post(trace::TaskId task) {
  SENT_REQUIRE(task < task_codes_.size());
  // Posts happen from inside an executing instruction, so "now" is that
  // instruction's start cycle.
  recorder_.on_post_task(queue_time_.now(), task);
  queue_.push_back(Pending{task, queue_time_.now()});
  Metrics::get().posted.inc();
  Metrics::get().queue_hwm.record(queue_.size());
  machine_.notify_task_posted();
}

std::pair<trace::TaskId, mcu::CodeId> Kernel::pop_task() {
  SENT_ASSERT(!queue_.empty());
  Pending pending = queue_.front();
  queue_.pop_front();
  Metrics::get().run.inc();
  Metrics::get().post_to_run.record(queue_time_.now() - pending.posted_at);
  return {pending.task, task_codes_[pending.task]};
}

}  // namespace sent::os

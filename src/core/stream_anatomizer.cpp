#include "core/stream_anatomizer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sent::core {

using trace::LifecycleItem;
using trace::LifecycleKind;

void StreamAnatomizer::push(const LifecycleItem& item) {
  SENT_REQUIRE_MSG(!finished_, "push() after finish()");
  SENT_REQUIRE_MSG(!poisoned_, "push() on a poisoned machine");
  const std::size_t index = index_;
  switch (item.kind) {
    case LifecycleKind::Int: on_int(item, index); break;
    case LifecycleKind::PostTask: on_post(item); break;
    case LifecycleKind::RunTask: on_run(item, index); break;
    case LifecycleKind::Reti: on_reti(item, index); break;
  }
  ++index_;
}

void StreamAnatomizer::on_int(const LifecycleItem& item, std::size_t index) {
  ++depth_;
  std::uint32_t idx = acquire_slot();
  Instance& inst = slab_[idx];
  inst.interval = EventInterval{};
  inst.interval.irq = static_cast<trace::IrqLine>(item.arg);
  inst.interval.start_index = index;
  inst.interval.start_cycle = item.cycle;
  inst.interval.seq_in_type = seq_in_type_[item.arg]++;
  inst.open_tasks = 0;
  inst.handler_open = true;
  inst.live = true;
  inst.end_index_candidate = 0;
  inst.end_cycle_candidate = 0;
  handler_stack_.push_back(idx);
}

void StreamAnatomizer::on_post(const LifecycleItem& item) {
  // Criterion 2 inside a handler, Criterion 3 inside a run region; a
  // depth-0 post before any runTask belongs to no instance.
  std::uint32_t owner =
      depth_ > 0 ? handler_stack_.back() : region_owner_;
  fifo_.emplace_back(owner, item.arg);
  if (owner != kNone) ++slab_[owner].open_tasks;
}

void StreamAnatomizer::on_run(const LifecycleItem& item, std::size_t index) {
  if (depth_ > 0) {
    poisoned_ = true;
    throw MalformedTrace("runTask inside an int-reti string at item " +
                         std::to_string(index));
  }
  // This runTask closes the previous run region before opening its own.
  if (region_owner_ != kNone) {
    std::uint32_t prev = region_owner_;
    region_owner_ = kNone;
    close_region_for(prev);
  }
  if (fifo_.empty()) {
    poisoned_ = true;
    throw MalformedTrace("more runTask than postTask items");
  }
  auto [owner, task_id] = fifo_.front();
  fifo_.pop_front();
  if (task_id != item.arg) {
    poisoned_ = true;
    SENT_ASSERT_MSG(false, "Criterion-1 pairing mismatch: postTask #"
                               << run_count_ << " posts task " << task_id
                               << " but runTask #" << run_count_
                               << " runs task " << item.arg);
  }
  ++run_count_;
  if (owner != kNone) {
    Instance& inst = slab_[owner];
    --inst.open_tasks;
    ++inst.interval.task_count;
    inst.end_index_candidate = index;
    inst.end_cycle_candidate = item.end_cycle;
    region_owner_ = owner;
  } else {
    region_owner_ = kNone;
  }
}

void StreamAnatomizer::on_reti(const LifecycleItem& item, std::size_t index) {
  if (depth_ == 0) {
    poisoned_ = true;
    throw MalformedTrace("reti with no open handler at item " +
                         std::to_string(index));
  }
  --depth_;
  std::uint32_t idx = handler_stack_.back();
  handler_stack_.pop_back();
  Instance& inst = slab_[idx];
  inst.handler_open = false;
  // A handler that posted nothing ends at its own reti (Figure 4 with an
  // empty P: loc stays at the string's end). Posted tasks cannot have run
  // yet — runTask items are illegal inside handlers — so open_tasks == 0
  // here means the instance is complete.
  if (inst.open_tasks == 0) emit(idx, index, item.cycle, false);
}

void StreamAnatomizer::close_region_for(std::uint32_t idx) {
  Instance& inst = slab_[idx];
  if (inst.handler_open || inst.open_tasks > 0) return;
  if (inst.end_cycle_candidate == 0) {
    // The instance's last task was still running when recording stopped;
    // the interval extends to the end of the recording (finish() stamps
    // the final end_index / end_cycle).
    inst.interval.truncated = true;
    return;
  }
  emit(idx, inst.end_index_candidate, inst.end_cycle_candidate, false);
}

void StreamAnatomizer::finish(sim::Cycle run_end) {
  SENT_REQUIRE_MSG(!finished_, "finish() called twice");
  finished_ = true;
  // Close the trailing run region exactly as a next runTask would have:
  // instances whose last task completed are emitted complete, not
  // truncated, matching the batch BFS (its loc is that task's item).
  if (!poisoned_ && region_owner_ != kNone) {
    std::uint32_t prev = region_owner_;
    region_owner_ = kNone;
    close_region_for(prev);
  }
  // Everything still live — open handlers, instances with unrun posts, and
  // instances whose last task never completed — is truncated: the batch
  // path extends all of these to the last item and run_end.
  const std::size_t last_index = index_ == 0 ? 0 : index_ - 1;
  std::vector<std::uint32_t> remaining;
  for (std::uint32_t idx = 0; idx < slab_.size(); ++idx)
    if (slab_[idx].live) remaining.push_back(idx);
  std::sort(remaining.begin(), remaining.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return slab_[a].interval.start_index <
                     slab_[b].interval.start_index;
            });
  for (std::uint32_t idx : remaining) emit(idx, last_index, run_end, true);
  handler_stack_.clear();
  fifo_.clear();
}

void StreamAnatomizer::emit(std::uint32_t idx, std::size_t end_index,
                            sim::Cycle end_cycle, bool truncated) {
  Instance& inst = slab_[idx];
  inst.interval.end_index = end_index;
  inst.interval.end_cycle = end_cycle;
  inst.interval.truncated = truncated;
  if (inst.interval.end_cycle < inst.interval.start_cycle) {
    poisoned_ = true;
    throw MalformedTrace("interval ends before it starts (start cycle " +
                         std::to_string(inst.interval.start_cycle) +
                         ", end cycle " +
                         std::to_string(inst.interval.end_cycle) + ")");
  }
  ready_.push_back(inst.interval);
  release(idx);
}

std::vector<EventInterval> StreamAnatomizer::drain() {
  std::vector<EventInterval> out = std::move(ready_);
  ready_.clear();
  return out;
}

std::uint32_t StreamAnatomizer::acquire_slot() {
  ++live_count_;
  if (!free_slots_.empty()) {
    std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void StreamAnatomizer::release(std::uint32_t idx) {
  slab_[idx].live = false;
  free_slots_.push_back(idx);
  --live_count_;
}

std::optional<sim::Cycle> StreamAnatomizer::earliest_open_start_cycle()
    const {
  std::optional<sim::Cycle> best;
  for (const Instance& inst : slab_)
    if (inst.live && (!best || inst.interval.start_cycle < *best))
      best = inst.interval.start_cycle;
  return best;
}

std::size_t StreamAnatomizer::state_bytes() const {
  return slab_.capacity() * sizeof(Instance) +
         fifo_.size() * sizeof(std::pair<std::uint32_t, std::uint32_t>) +
         ready_.capacity() * sizeof(EventInterval) +
         handler_stack_.capacity() * sizeof(std::uint32_t);
}

}  // namespace sent::core

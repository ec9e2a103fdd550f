#include "sim/event_queue.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace sent::sim {

namespace {

/// All sim metrics register together on first use, so any run that touches
/// the event queue exposes the full set (keeps snapshots comparable across
/// runs that never trip the watchdog, say). The event loop is one phase
/// scope, timed once per run_until drain. DESIGN.md §11.
struct Metrics {
  obs::Counter scheduled =
      obs::Registry::global().counter("sim.events_scheduled");
  obs::Counter executed =
      obs::Registry::global().counter("sim.events_executed");
  obs::Counter cancelled =
      obs::Registry::global().counter("sim.events_cancelled");
  obs::Counter watchdog_trips =
      obs::Registry::global().counter("sim.watchdog_trips");
  obs::Counter heap_pushes =
      obs::Registry::global().counter("sim.heap_pushes");
  obs::Counter lane_steps = obs::Registry::global().counter("sim.lane_steps");
  obs::Counter inline_steps =
      obs::Registry::global().counter("sim.inline_steps");
  obs::Counter fused_steps =
      obs::Registry::global().counter("sim.fused_steps");
  obs::Gauge queue_hwm = obs::Registry::global().gauge("sim.queue_hwm");
  obs::Phase run_until{"sim.run_until"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

constexpr std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr std::uint32_t gen_of(EventId id) {
  return static_cast<std::uint32_t>(id);
}

}  // namespace

EventQueue::~EventQueue() { flush_metrics(); }

void EventQueue::flush_metrics() {
  if (pending_scheduled_ == 0 && pending_executed_ == 0 &&
      pending_cancelled_ == 0 && pending_heap_pushes_ == 0 &&
      pending_lane_steps_ == 0 && pending_inline_steps_ == 0 &&
      pending_fused_steps_ == 0 && queue_hwm_ == 0) {
    return;
  }
  const Metrics& m = Metrics::get();
  if (pending_scheduled_ != 0) m.scheduled.inc(pending_scheduled_);
  if (pending_executed_ != 0) m.executed.inc(pending_executed_);
  if (pending_cancelled_ != 0) m.cancelled.inc(pending_cancelled_);
  if (pending_heap_pushes_ != 0) m.heap_pushes.inc(pending_heap_pushes_);
  if (pending_lane_steps_ != 0) m.lane_steps.inc(pending_lane_steps_);
  if (pending_inline_steps_ != 0) m.inline_steps.inc(pending_inline_steps_);
  if (pending_fused_steps_ != 0) m.fused_steps.inc(pending_fused_steps_);
  if (queue_hwm_ != 0) m.queue_hwm.record(queue_hwm_);
  pending_scheduled_ = pending_executed_ = pending_cancelled_ = 0;
  pending_heap_pushes_ = pending_lane_steps_ = pending_inline_steps_ = 0;
  pending_fused_steps_ = 0;
  queue_hwm_ = 0;
}

void EventQueue::reset() {
  SENT_REQUIRE_MSG(event_depth_ == 0 && drain_depth_ == 0,
                   "EventQueue::reset inside an event or drain");
  flush_metrics();  // a reset ends the run, same as destruction
  // Drain the heap with a pop loop so its underlying vector keeps its
  // capacity; destroying the Slot table releases every pending closure.
  while (!pool_heap_.empty()) pool_heap_.pop();
  slots_.clear();  // capacity retained: the slab regrows 0,1,2,... like new
  free_slots_.clear();
  next_seq_ = 1;
  for (LaneId lane = 0; lane < lane_cap_; ++lane)
    lane_tree_[lane_cap_ + lane] = LaneKey{kMaxCycle, kDisarmedSeq, lane};
  rebuild_lane_tree();
  deferred_.clear();
  deferred_inlined_ = deferred_spilled_ = 0;
  now_ = 0;
  live_ = 0;
  horizon_ = 0;
  executed_ = 0;
  watchdog_budget_ = 0;
  watchdog_armed_at_ = 0;
}

void EventQueue::on_scheduled() {
  ++live_;
  ++pending_scheduled_;
  if (live_ > queue_hwm_) queue_hwm_ = live_;
}

// ---- scheduling -----------------------------------------------------------

std::uint32_t EventQueue::alloc_slot(EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  // Advance the generation on (re)use; skip 0 so no EventId is ever 0.
  ++s.gen;
  if (s.gen == 0) s.gen = 1;
  s.live = true;
  s.cancelled = false;
  s.fn = std::move(fn);
  return slot;
}

EventId EventQueue::schedule_pooled(Cycle at, EventFn fn) {
  SENT_REQUIRE_MSG(at >= now_, "cannot schedule in the past: at=" << at
                                                                  << " now=" << now_);
  SENT_REQUIRE(static_cast<bool>(fn));
  const std::uint32_t slot = alloc_slot(std::move(fn));
  pool_heap_.push(PoolEntry{at, next_seq_++, slot});
  ++pending_heap_pushes_;
  on_scheduled();
  return (static_cast<EventId>(slot) << 32) | slots_[slot].gen;
}

// ---- step lanes -----------------------------------------------------------

LaneId EventQueue::open_lane(LaneFn fire, void* owner) {
  SENT_REQUIRE(fire != nullptr);
  LaneId lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    lane = static_cast<LaneId>(lane_owners_.size());
    lane_owners_.emplace_back();
  }
  if (lane >= lane_cap_) {
    // Double the leaves; the armed keys keep their lanes.
    const LaneId cap = lane_cap_ == 0 ? 1 : 2 * lane_cap_;
    std::vector<LaneKey> tree(2 * std::size_t{cap});
    for (LaneId l = 0; l < cap; ++l) {
      tree[cap + l] = l < lane_cap_ ? lane_tree_[lane_cap_ + l]
                                    : LaneKey{kMaxCycle, kDisarmedSeq, l};
    }
    lane_tree_ = std::move(tree);
    lane_cap_ = cap;
    rebuild_lane_tree();
  }
  lane_owners_[lane] = LaneOwner{fire, owner};
  return lane;
}

void EventQueue::close_lane(LaneId lane) {
  SENT_REQUIRE(lane < lane_owners_.size() &&
               lane_owners_[lane].fire != nullptr);
  if (lane_tree_[lane_cap_ + lane].seq != kDisarmedSeq) {
    disarm_lane(lane);
    --live_;
  }
  lane_owners_[lane] = LaneOwner{};
  free_lanes_.push_back(lane);
}

void EventQueue::disarm_lane(LaneId lane) {
  std::size_t node = lane_cap_ + lane;
  lane_tree_[node] = LaneKey{kMaxCycle, kDisarmedSeq, lane};
  // Ancestors this lane did not win are unaffected by its key growing.
  for (node >>= 1; node != 0 && lane_tree_[node].lane == lane; node >>= 1) {
    const LaneKey& left = lane_tree_[2 * node];
    const LaneKey& right = lane_tree_[2 * node + 1];
    lane_tree_[node] = right.before(left) ? right : left;
  }
  next_lane_ = lane_tree_[1];
}

void EventQueue::rebuild_lane_tree() {
  if (lane_cap_ == 0) return;  // no lane was ever opened
  for (std::size_t node = lane_cap_ - 1; node > 0; --node) {
    const LaneKey& left = lane_tree_[2 * node];
    const LaneKey& right = lane_tree_[2 * node + 1];
    lane_tree_[node] = right.before(left) ? right : left;
  }
  next_lane_ = lane_tree_[1];
}

// ---- cancellation ---------------------------------------------------------

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = gen_of(id);
  if (gen == 0 || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen || s.cancelled) return false;
  s.cancelled = true;
  s.fn.reset();  // release the capture now; the heap entry is skipped later
  --live_;
  ++pending_cancelled_;
  return true;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cancelled = false;
  s.fn.reset();
  free_slots_.push_back(slot);
}

// ---- execution ------------------------------------------------------------

void EventQueue::prune_heap() {
  // Cancelled entries neither advance time nor count against the watchdog
  // budget.
  while (!pool_heap_.empty() && slots_[pool_heap_.top().slot].cancelled) {
    release_slot(pool_heap_.top().slot);
    pool_heap_.pop();
  }
}

void EventQueue::check_watchdog() {
  if (watchdog_budget_ != 0 &&
      executed_ - watchdog_armed_at_ >= watchdog_budget_) {
    Metrics::get().watchdog_trips.inc();
    throw WatchdogTimeout(
        "simulation watchdog: event budget of " +
            std::to_string(watchdog_budget_) + " exhausted at cycle " +
            std::to_string(now_) + " (livelocked run?)",
        watchdog_budget_, executed_ - watchdog_armed_at_);
  }
}

bool EventQueue::step_pooled(Cycle until) {
  prune_heap();
  // The earliest armed lane goes first unless the heap head precedes it in
  // (at, seq) order; seqs are unique, so there is never a tie.
  const bool lane_first =
      next_lane_.seq != kDisarmedSeq &&
      (pool_heap_.empty() ||
       next_lane_.before({pool_heap_.top().at, pool_heap_.top().seq}));
  if (lane_first) {
    if (next_lane_.at > until) return false;
    // Charged before the lane is disarmed: on timeout the step stays
    // armed, exactly as a heap event stays queued.
    check_watchdog();
    fire_lane();
    return true;
  }
  if (pool_heap_.empty() || pool_heap_.top().at > until) return false;
  // Checked before the pop: on timeout the event stays queued, so the
  // queue is consistent if the caller catches and carries on.
  check_watchdog();
  const PoolEntry e = pool_heap_.top();
  pool_heap_.pop();
  SENT_ASSERT(e.at >= now_);
  now_ = e.at;
  --live_;
  ++executed_;
  ++pending_executed_;
  // Move the closure out and release the slot *before* invoking: the event
  // may schedule (reallocating slots_) or recursively step the queue.
  EventFn fn = std::move(slots_[e.slot].fn);
  release_slot(e.slot);
  ++event_depth_;
  try {
    fn();
    flush_deferred();  // run/enqueue wake-ups the closure parked
  } catch (...) {
    spill_deferred();
    --event_depth_;
    throw;
  }
  --event_depth_;
  return true;
}

void EventQueue::fire_lane() {
  // Copied out first: the step may open lanes (reallocating the table).
  const LaneOwner target = lane_owners_[next_lane_.lane];
  SENT_ASSERT(next_lane_.at >= now_);
  now_ = next_lane_.at;
  disarm_lane(next_lane_.lane);
  --live_;
  ++executed_;
  ++pending_executed_;
  ++pending_lane_steps_;
  ++event_depth_;
  try {
    target.fire(target.owner);
    flush_deferred();  // run/enqueue continuations the step parked
  } catch (...) {
    spill_deferred();
    --event_depth_;
    throw;
  }
  --event_depth_;
}

bool EventQueue::admit_inline(Cycle at, std::uint64_t seq) {
  if (drain_depth_ == 0 || at > horizon_) return false;
  if (watchdog_budget_ != 0 &&
      executed_ - watchdog_armed_at_ >= watchdog_budget_) {
    return false;
  }
  if (next_lane_.before({at, seq})) return false;
  prune_heap();
  if (!pool_heap_.empty()) {
    const PoolEntry& top = pool_heap_.top();
    if (top.at < at || (top.at == at && top.seq < seq)) return false;
  }
  SENT_ASSERT(at >= now_);
  now_ = at;
  --live_;  // counted live since the defer, exactly like a heap entry
  ++executed_;
  ++pending_executed_;  // scheduled was counted when the entry was deferred
  ++pending_inline_steps_;
  return true;
}

void EventQueue::enqueue_reserved(Deferred d) {
  const std::uint32_t slot = alloc_slot(std::move(d.fn));
  pool_heap_.push(PoolEntry{d.at, d.seq, slot});
  ++pending_heap_pushes_;
}

void EventQueue::flush_deferred() {
  while (!deferred_.empty()) {
    Deferred d = std::move(deferred_.front());
    deferred_.erase(deferred_.begin());
    // A sibling deferred entry that fires strictly earlier must win; at
    // equal cycles this entry's seq is smaller (it was deferred first), so
    // only `<` matters. The list is almost always a single entry.
    bool earliest = true;
    for (const Deferred& o : deferred_) {
      if (o.at < d.at) {
        earliest = false;
        break;
      }
    }
    if (earliest && admit_inline(d.at, d.seq)) {
      ++deferred_inlined_;
      d.fn();  // may defer further wake-ups; the loop picks them up
    } else {
      ++deferred_spilled_;
      enqueue_reserved(std::move(d));
    }
  }
}

void EventQueue::spill_deferred() {
  for (Deferred& d : deferred_) enqueue_reserved(std::move(d));
  deferred_.clear();
}

bool EventQueue::step() { return step_pooled(kMaxCycle); }

bool EventQueue::peek_next(Cycle& at) {
  prune_heap();
  if (pool_heap_.empty()) {
    at = next_lane_.at;
    return next_lane_.seq != kDisarmedSeq;
  }
  at = std::min(pool_heap_.top().at, next_lane_.at);
  return true;
}

bool EventQueue::inline_allowance(InlineAllowance& a) {
  if (drain_depth_ == 0 || !deferred_.empty()) return false;
  a.horizon = horizon_;
  a.next_event = kMaxCycle;
  peek_next(a.next_event);
  if (watchdog_budget_ == 0) {
    a.steps = ~std::uint64_t{0};
  } else {
    const std::uint64_t used = executed_ - watchdog_armed_at_;
    a.steps = used >= watchdog_budget_ ? 0 : watchdog_budget_ - used;
  }
  return true;
}

bool EventQueue::try_step_inline_slow(Cycle at) {
  // try_step_inline already checked the watchdog; only the cancelled heap
  // head is left to prune before the next live event is known.
  Cycle next = 0;
  if (peek_next(next) && next <= at) return false;
  SENT_ASSERT(at >= now_);
  now_ = at;
  ++executed_;
  ++pending_scheduled_;
  ++pending_executed_;
  ++pending_inline_steps_;
  return true;
}

/// Marks a drain (run_until/run_all) in progress so try_step_inline knows
/// the horizon events may run up to. Saves/restores on nesting and unwinds
/// correctly when a watchdog timeout propagates out of the drain.
struct DrainScope {
  EventQueue& queue;
  Cycle previous;
  DrainScope(EventQueue& q, Cycle horizon) : queue(q), previous(q.horizon_) {
    ++queue.drain_depth_;
    queue.horizon_ = horizon;
  }
  ~DrainScope() {
    queue.horizon_ = previous;
    --queue.drain_depth_;
  }
};

void EventQueue::run_until(Cycle until) {
  obs::Span span(Metrics::get().run_until);
  DrainScope scope(*this, until);
  while (step_pooled(until)) {
  }
}

void EventQueue::run_all() {
  DrainScope scope(*this, kMaxCycle);
  while (step()) {
  }
}

void EventQueue::set_watchdog_budget(std::uint64_t budget) {
  watchdog_budget_ = budget;
  watchdog_armed_at_ = executed_;
}

}  // namespace sent::sim

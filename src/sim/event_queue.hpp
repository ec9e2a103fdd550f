// Discrete-event simulation core.
//
// A single EventQueue drives every node, device, and channel in a
// simulation. Events at equal timestamps fire in scheduling (FIFO) order,
// which keeps multi-node runs fully deterministic.
//
// The engine is pooled (DESIGN.md §12): closures live in a slab of
// reusable slots (EventFn, inline storage: no allocation per event), the
// heap orders 24-byte POD entries, and cancellation flips a flag on the
// generation-tagged slot in O(1). Each machine steps through its own fixed
// lane beside the heap (DESIGN.md §12.4): a step is an (at, seq) pair
// written into the lane, and the drain fires whichever of the heap head
// and the earliest armed lane is first in (at, seq) order. Its firing
// order is pinned by the simulator digest fixture
// (tests/golden/sim_digests.txt).
#pragma once

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace sent::sim {

/// Handle identifying a scheduled event, usable for cancellation. Never 0,
/// so 0 works as a "nothing pending" sentinel. Ids encode (slot,
/// generation).
using EventId = std::uint64_t;

/// Thrown by step()/run_until() when the watchdog budget is exhausted: a
/// run processed more events than its budget allows, the discrete-event
/// signature of a livelock (injected faults can wedge protocol state
/// machines into cycles that burn events without making progress).
/// Campaigns classify a run that throws this as TimedOut.
class WatchdogTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;

  /// The queue's throw site carries the budget arithmetic so campaign
  /// triage can report it without re-running the seed: the armed budget
  /// and the events executed since arming at the moment the watchdog
  /// fired. Both are 0 when the exception was built without them (tests,
  /// external throwers).
  WatchdogTimeout(const std::string& msg, std::uint64_t budget,
                  std::uint64_t events_executed)
      : std::runtime_error(msg),
        budget_(budget),
        events_executed_(events_executed) {}

  std::uint64_t budget() const { return budget_; }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  std::uint64_t budget_ = 0;
  std::uint64_t events_executed_ = 0;
};

/// Index of a step lane (DESIGN.md §12.4).
using LaneId = std::uint32_t;
inline constexpr LaneId kNoLane = ~LaneId{0};

/// Permission for a machine to execute a run of queue-silent steps inline
/// (DESIGN.md §12). Valid as long as the holder performs no queue operation:
/// each fused step at time `at` requires at <= horizon, at < next_event and
/// steps > 0 (decremented per step), then commit_inline settles the clock
/// and the executed count in one batch.
struct InlineAllowance {
  Cycle horizon = 0;
  Cycle next_event = kMaxCycle;  ///< earliest live pending event
  std::uint64_t steps = 0;       ///< watchdog budget remaining
};

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time. Starts at 0; advances as events run.
  Cycle now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now). Returns a handle that
  /// can be passed to cancel().
  template <typename F>
  EventId schedule_at(Cycle at, F&& fn) {
    return schedule_pooled(at, EventFn(std::forward<F>(fn)));
  }

  /// Schedule `fn` after `delay` cycles from now.
  template <typename F>
  EventId schedule_after(Cycle delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a scheduled event in O(1). Cancelling an already-fired,
  /// already-cancelled, or unknown id is a no-op (returns false).
  bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Step lanes (DESIGN.md §12.4). A lane holds at most one pending step
  /// of its owner as a bare (at, seq) pair: arming it allocates no slot,
  /// builds no closure and leaves the heap alone. The drain fires a lane
  /// by calling fire(owner). An armed lane counts as one live, scheduled
  /// event, exactly like a heap entry.
  using LaneFn = void (*)(void* owner);
  LaneId open_lane(LaneFn fire, void* owner);
  /// Retire a lane; a step still armed in it is dropped unrun.
  void close_lane(LaneId lane);

  /// Arm `lane` (disarmed) to fire at `at` (>= now). The FIFO sequence
  /// number is reserved here, exactly where schedule_at would reserve it.
  void arm_lane(LaneId lane, Cycle at) {
    SENT_ASSERT(lane < lane_owners_.size() && at >= now_ &&
                lane_tree_[lane_cap_ + lane].seq == kDisarmedSeq);
    const LaneKey key{at, next_seq_++, lane};
    on_scheduled();
    std::size_t node = lane_cap_ + lane;
    lane_tree_[node] = key;
    // Climb while the new key wins. Its seq is the largest, so an equal
    // `at` already in front stops the climb.
    for (node >>= 1; node != 0 && key.before(lane_tree_[node]); node >>= 1)
      lane_tree_[node] = key;
    if (node == 0) next_lane_ = key;
  }

  /// Machine fast path (DESIGN.md §12): the caller has just finished an
  /// event and wants to run its continuation at `at` without a heap
  /// round-trip. Succeeds only when that is observationally identical to
  /// scheduling the continuation and draining normally: the queue is
  /// inside run_until/run_all, `at` is within the drain horizon, every
  /// pending event and armed lane fires strictly after `at` (earlier
  /// events must run first, and FIFO order among equal timestamps must be
  /// preserved), and the watchdog budget has room. On success the clock
  /// advances to `at` and the step counts as one scheduled + executed
  /// event, exactly as the enqueued continuation would have. Defined
  /// inline: this runs once per virtual instruction and is the dispatch
  /// loop's hottest guard.
  bool try_step_inline(Cycle at) {
    if (drain_depth_ == 0 || at > horizon_) return false;
    // A parked wake-up (schedule_or_inline) may precede this continuation
    // in FIFO order but is not in the heap yet; refuse until it flushes.
    if (!deferred_.empty()) return false;
    // A budget-exhausted machine leaves its continuation armed in its lane,
    // so the next drain iteration trips check_watchdog with the step still
    // pending — the same state a queued event leaves behind.
    if (watchdog_budget_ != 0 &&
        executed_ - watchdog_armed_at_ >= watchdog_budget_) {
      return false;
    }
    if (next_lane_.at <= at) return false;  // another machine steps first
    if (!pool_heap_.empty()) {
      const PoolEntry& top = pool_heap_.top();
      if (top.at <= at) {
        // A live earlier event blocks inlining; a cancelled head needs the
        // pruning loop before the answer is known.
        if (!slots_[top.slot].cancelled) return false;
        return try_step_inline_slow(at);
      }
    }
    now_ = at;
    ++executed_;
    ++pending_scheduled_;
    ++pending_executed_;
    ++pending_inline_steps_;
    return true;
  }

  /// Device continuation path (DESIGN.md §12.4): schedule `fn` at `at`,
  /// but when called from inside an event's closure, park it in a
  /// deferred list instead of the heap. After the closure finishes, the
  /// entry runs inline if that is observationally identical to draining
  /// it from the heap, and is enqueued otherwise. The entry reserves its
  /// FIFO sequence number HERE — at the moment the heap path would have —
  /// so events the closure schedules afterwards order identically either
  /// way. Deferred entries are not cancellable (no EventId is returned);
  /// use schedule_at/schedule_after for anything that may be cancelled.
  /// Machine steps and wake-ups use their lane instead.
  template <typename F>
  void schedule_or_inline(Cycle at, F&& fn) {
    if (event_depth_ == 0) {
      schedule_at(at, std::forward<F>(fn));
      return;
    }
    on_scheduled();  // the heap path counts the event live at raise time
    deferred_.push_back({at, next_seq_++, EventFn(std::forward<F>(fn))});
  }

  /// Batch variant of try_step_inline for the bytecode machine's fused
  /// typed-op loop: fills `a` with the window in which steps may run
  /// inline without consulting the queue again. False when inlining is
  /// impossible (not draining, or a deferred entry is parked). The
  /// allowance is invalidated by ANY queue operation — the caller must
  /// hold it only across steps that touch no queue state.
  bool inline_allowance(InlineAllowance& a);

  /// Settle a fused run: clock at `now`, `steps` events executed. Each
  /// step must have satisfied the allowance it was granted under.
  void commit_inline(Cycle now, std::uint64_t steps) {
    now_ = now;
    executed_ += steps;
    pending_scheduled_ += steps;
    pending_executed_ += steps;
    pending_inline_steps_ += steps;
    pending_fused_steps_ += steps;
  }

  /// Run events until the queue is empty or virtual time would exceed
  /// `until`. Events scheduled exactly at `until` do run. Time is left at
  /// min(until, last event time).
  void run_until(Cycle until);

  /// Run until the queue is empty.
  void run_all();

  /// Total events executed (for perf benches).
  std::uint64_t executed() const { return executed_; }

  /// How many deferred wake-ups ran in place vs. spilled to the heap. The
  /// sum is the number of schedule_or_inline calls made from inside event
  /// closures.
  std::uint64_t deferred_inlined() const { return deferred_inlined_; }
  std::uint64_t deferred_spilled() const { return deferred_spilled_; }

  /// Arm the watchdog: after `budget` further events, step() throws
  /// WatchdogTimeout. 0 disarms. Virtual time is already bounded by
  /// run_until; the event budget is what catches livelocked runs that
  /// schedule unboundedly many events in bounded virtual time.
  void set_watchdog_budget(std::uint64_t budget);
  std::uint64_t watchdog_budget() const { return watchdog_budget_; }

  /// Push the batched obs counters into the global registry. Called from
  /// the destructor; the dispatch loop itself only bumps plain integers
  /// (keeping the hot path branch-free, DESIGN.md §12). Besides the event
  /// totals, the queue counts its traffic: heap pushes, lane steps, steps
  /// run in place (fused, inline or deferred) and, among those, the steps
  /// the machine's fused typed-op loop committed.
  void flush_metrics();

  /// Scrub the queue back to its just-constructed logical state while
  /// retaining every amortized buffer: the slot slab, the free list, the
  /// lanes and the heap storage keep their capacity, so a worker-local
  /// world pool (DESIGN.md §15) pays the slab growth once per worker
  /// instead of once per seeded run. Batched obs counters are flushed
  /// first (reset is the run boundary, exactly like destruction), pending
  /// events are dropped with their closures destroyed, every lane is
  /// disarmed (open lanes stay open), the watchdog is disarmed and the
  /// clock returns to 0. Outstanding EventIds from before the reset must be
  /// dropped by the caller; the generation tags make a stale cancel a
  /// harmless no-op either way. Must not be called from inside an event or
  /// a drain. A reset queue is observationally identical to a freshly
  /// constructed one — the world-reset parity battery in
  /// tests/worker_pool_test.cpp holds this bit-exactly.
  void reset();

 private:
  /// Heap entry: plain data, ordered by (at, seq). seq is a monotonic
  /// scheduling sequence, giving FIFO among equal timestamps.
  struct PoolEntry {
    Cycle at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const PoolEntry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// One reusable event slot. The generation tag makes stale cancels
  /// O(1)-detectable: an EventId is (slot << 32) | gen, and a cancel only
  /// lands if the slot is live under that same generation.
  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    bool cancelled = false;
    EventFn fn;
  };

  /// A continuation parked by schedule_or_inline until the current event's
  /// closure returns. `seq` was reserved at defer time.
  struct Deferred {
    Cycle at;
    std::uint64_t seq;
    EventFn fn;
  };

  /// A lane's pending step. A disarmed lane holds {kMaxCycle,
  /// kDisarmedSeq}, which orders after every armed key.
  static constexpr std::uint64_t kDisarmedSeq = ~std::uint64_t{0};
  struct LaneKey {
    Cycle at = kMaxCycle;
    std::uint64_t seq = kDisarmedSeq;
    LaneId lane = kNoLane;
    bool before(const LaneKey& o) const {
      return at < o.at || (at == o.at && seq < o.seq);
    }
  };
  struct LaneOwner {
    LaneFn fire = nullptr;
    void* owner = nullptr;
  };

  EventId schedule_pooled(Cycle at, EventFn fn);
  std::uint32_t alloc_slot(EventFn fn);
  /// try_step_inline when the heap head is cancelled: prune, then decide.
  bool try_step_inline_slow(Cycle at);
  /// Inline admission for a deferred entry with a reserved seq: pending
  /// events that fire earlier — or at the same cycle with an earlier seq —
  /// must win; otherwise advance the clock and count the execution.
  bool admit_inline(Cycle at, std::uint64_t seq);
  /// Move a deferred entry into the heap under its reserved seq.
  void enqueue_reserved(Deferred d);
  /// Run or enqueue everything deferred by the closure that just returned.
  void flush_deferred();
  /// Exception path: spill all deferred entries to the heap.
  void spill_deferred();
  /// The drain loop's body: prune cancelled heap heads, then fire
  /// whichever of the heap head and the earliest armed lane is first in
  /// (at, seq) order, if it is due by `until`.
  bool step_pooled(Cycle until);
  /// Drop cancelled entries at the heap's head.
  void prune_heap();
  /// Fire the earliest armed lane (the drain decided it is next).
  void fire_lane();
  /// Disarm `lane` and replay its path of the tournament tree.
  void disarm_lane(LaneId lane);
  /// Recompute every inner node of the tournament tree from the leaves.
  void rebuild_lane_tree();
  /// Drop cancelled entries at the head; report the next live fire time
  /// of the heap and the lanes.
  bool peek_next(Cycle& at);
  void release_slot(std::uint32_t slot);
  void check_watchdog();
  void on_scheduled();

  std::priority_queue<PoolEntry, std::vector<PoolEntry>, std::greater<>>
      pool_heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;

  friend struct DrainScope;

  // Lanes form a tournament tree: lane l's key is the leaf at
  // lane_cap_ + l, each inner node i holds the earlier of nodes 2i and
  // 2i + 1, and the root (node 1) is the earliest armed lane. Arming
  // climbs only while the new key wins; disarming replays one path.
  std::vector<LaneKey> lane_tree_;
  LaneId lane_cap_ = 0;  // leaves (a power of two, or 0)
  std::vector<LaneOwner> lane_owners_;  // indexed by LaneId
  std::vector<LaneId> free_lanes_;
  LaneKey next_lane_;  // the root's key: earliest armed lane, if any

  std::vector<Deferred> deferred_;  // non-empty only inside an event's fn()
  std::uint32_t event_depth_ = 0;   // event closures currently on the stack
  std::uint64_t deferred_inlined_ = 0, deferred_spilled_ = 0;

  Cycle now_ = 0;
  std::size_t live_ = 0;
  std::uint32_t drain_depth_ = 0;  // >0 while inside run_until/run_all
  Cycle horizon_ = 0;              // inline steps may not pass this
  std::uint64_t executed_ = 0;
  std::uint64_t watchdog_budget_ = 0;    // 0 = disarmed
  std::uint64_t watchdog_armed_at_ = 0;  // executed_ when armed

  // Batched obs metrics (flushed by flush_metrics / the destructor).
  std::uint64_t pending_scheduled_ = 0;
  std::uint64_t pending_executed_ = 0;
  std::uint64_t pending_cancelled_ = 0;
  std::uint64_t pending_heap_pushes_ = 0;
  std::uint64_t pending_lane_steps_ = 0;
  std::uint64_t pending_inline_steps_ = 0;
  std::uint64_t pending_fused_steps_ = 0;
  std::uint64_t queue_hwm_ = 0;
};

}  // namespace sent::sim

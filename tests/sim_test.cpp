#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace sent::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(cycles_from_seconds(1.0), kCyclesPerSecond);
  EXPECT_EQ(cycles_from_millis(1000.0), kCyclesPerSecond);
  EXPECT_EQ(cycles_from_micros(1e6), kCyclesPerSecond);
  EXPECT_DOUBLE_EQ(seconds_from_cycles(kCyclesPerSecond), 1.0);
  EXPECT_DOUBLE_EQ(millis_from_cycles(kCyclesPerSecond / 2), 500.0);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(100, [&, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  Cycle seen = 0;
  q.schedule_at(50, [&] {
    q.schedule_after(25, [&] { seen = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(seen, 75u);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_all();
  EXPECT_EQ(q.now(), 10u);
  EXPECT_THROW(q.schedule_at(5, [] {}), util::PreconditionError);
}

TEST(EventQueue, NullFunctionRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1, nullptr), util::PreconditionError);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run_all();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownOrTwiceIsFalse) {
  EventQueue q;
  EventId id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(99999));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_all();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  std::vector<Cycle> fired;
  q.schedule_at(10, [&] { fired.push_back(10); });
  q.schedule_at(20, [&] { fired.push_back(20); });
  q.schedule_at(21, [&] { fired.push_back(21); });
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<Cycle>{10, 20}));
  EXPECT_EQ(q.size(), 1u);
  q.run_all();
  EXPECT_EQ(fired.back(), 21u);
}

TEST(EventQueue, RunUntilWithCancelledHead) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule_at(5, [&] { ran = true; });
  q.schedule_at(10, [&] {});
  q.cancel(id);
  q.run_until(100);
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule_at(1, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_after(7, recurse);
  };
  q.schedule_at(0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 63u);
  EXPECT_EQ(q.executed(), 10u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<Cycle> times;
  // Schedule deliberately out of order.
  for (int i = 999; i >= 0; --i)
    q.schedule_at(static_cast<Cycle>((i * 37) % 1000),
                  [&, i] { times.push_back(q.now()); });
  q.run_all();
  ASSERT_EQ(times.size(), 1000u);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_LE(times[i - 1], times[i]);
}

// ---- watchdog (DESIGN.md §9) ----------------------------------------------

// A livelocked run — events rescheduling themselves forever within bounded
// virtual time — trips the event budget instead of spinning.
TEST(Watchdog, LivelockThrowsWatchdogTimeout) {
  EventQueue q;
  q.set_watchdog_budget(100);
  std::function<void()> spin = [&] { q.schedule_after(0, spin); };
  q.schedule_at(0, spin);
  EXPECT_THROW(q.run_until(10), WatchdogTimeout);
  EXPECT_EQ(q.executed(), 100u);
}

TEST(Watchdog, BudgetCoversNormalRuns) {
  EventQueue q;
  q.set_watchdog_budget(1000);
  int fired = 0;
  for (int i = 0; i < 50; ++i)
    q.schedule_at(static_cast<Cycle>(i), [&] { ++fired; });
  EXPECT_NO_THROW(q.run_all());
  EXPECT_EQ(fired, 50);
}

TEST(Watchdog, ZeroDisarms) {
  EventQueue q;
  q.set_watchdog_budget(10);
  q.set_watchdog_budget(0);
  int fired = 0;
  for (int i = 0; i < 100; ++i)
    q.schedule_at(static_cast<Cycle>(i), [&] { ++fired; });
  EXPECT_NO_THROW(q.run_all());
  EXPECT_EQ(fired, 100);
}

// Re-arming resets the countdown relative to events already executed.
TEST(Watchdog, RearmResetsBudget) {
  EventQueue q;
  for (int i = 0; i < 30; ++i)
    q.schedule_at(static_cast<Cycle>(i), [] {});
  q.run_until(9);  // 10 events executed
  q.set_watchdog_budget(25);
  EXPECT_NO_THROW(q.run_all());  // only 20 remain, under the fresh budget
}

// The queue stays consistent after a timeout: the unexecuted event is
// still pending and runs once the budget is lifted.
TEST(Watchdog, QueueUsableAfterTimeout) {
  EventQueue q;
  q.set_watchdog_budget(1);
  int fired = 0;
  q.schedule_at(0, [&] { ++fired; });
  q.schedule_at(1, [&] { ++fired; });
  EXPECT_THROW(q.run_all(), WatchdogTimeout);
  EXPECT_EQ(fired, 1);
  q.set_watchdog_budget(0);
  q.run_all();
  EXPECT_EQ(fired, 2);
}


// ------------------------------------------------- engine contract

// The engine fires a script in (at, FIFO) order with cancelled events
// skipped. The expected order is written out; it is the order the retired
// std::function heap produced (DESIGN.md §12).
TEST(EngineParity, PooledAndBoxedFireInSameOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  q.schedule_at(50, [&] {
    order.push_back(50);
    q.schedule_after(50, [&] { order.push_back(-100); });  // ties at 100
  });
  EventId dead = q.schedule_at(75, [&] { order.push_back(75); });
  q.cancel(dead);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{50, 0, 1, 2, 3, -100}));
}

// Cancel-heavy churn: the pooled engine recycles slots and drops cancelled
// entries lazily at the heap head; a long alternating schedule/cancel
// workload must execute exactly the survivors, in order.
// (Regression for the O(1) generation-tagged cancel path.)
TEST(EngineParity, CancelHeavyChurn) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i)
    ids.push_back(q.schedule_at(10 + static_cast<Cycle>(i % 997), [&, i] {
      fired.push_back(i);
    }));
  // Cancel every odd event, plus re-cancel some (stale ids must no-op).
  for (int i = 1; i < kN; i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  for (int i = 1; i < kN; i += 4) EXPECT_FALSE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kN / 2));
  q.run_all();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kN / 2));
  for (int i : fired) ASSERT_EQ(i % 2, 0) << "cancelled event " << i;
  // Survivors fire ordered by (at, scheduling order).
  for (std::size_t k = 1; k < fired.size(); ++k) {
    Cycle ta = 10 + static_cast<Cycle>(fired[k - 1] % 997);
    Cycle tb = 10 + static_cast<Cycle>(fired[k] % 997);
    ASSERT_LE(ta, tb);
    if (ta == tb) {
      ASSERT_LT(fired[k - 1], fired[k]);
    }
  }
}

// Slot reuse must invalidate old ids: after an event fires, its id refers
// to nothing even if the slot is reused by a later event.
TEST(EngineParity, CancelAfterFireIsStaleEvenWithSlotReuse) {
  EventQueue q;
  EventId first = q.schedule_at(10, [] {});
  q.run_all();
  bool ran = false;
  EventId second = q.schedule_at(20, [&] { ran = true; });  // reuses slot
  EXPECT_FALSE(q.cancel(first));  // stale generation: no-op
  q.run_all();
  EXPECT_TRUE(ran);
  (void)second;
}

// -------------------------------------------- deferred-inline wake-ups

// A wake-up raised from inside a pooled closure for a time before any
// pending event runs in place (no heap round-trip) and in order.
TEST(DeferredInline, RunsInPlaceWhenNextInLine) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_or_inline(15, [&] { order.push_back(2); });
  });
  q.schedule_at(100, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.deferred_inlined(), 1u);
  EXPECT_EQ(q.deferred_spilled(), 0u);
}

// An earlier pending event must win: the deferred wake-up spills to the
// heap and fires after it.
TEST(DeferredInline, SpillsWhenEarlierEventPending) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_or_inline(30, [&] { order.push_back(3); });
  });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.deferred_inlined(), 0u);
  EXPECT_EQ(q.deferred_spilled(), 1u);
}

// FIFO among equal timestamps: the wake-up reserved its sequence number at
// the schedule_or_inline call, so an event scheduled at the same cycle
// BEFORE it still beats it, and one scheduled AFTER it loses.
TEST(DeferredInline, EqualTimestampKeepsFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_or_inline(50, [&] { order.push_back(3); });
    q.schedule_at(50, [&] { order.push_back(4); });  // same cycle, later seq
  });
  q.schedule_at(0, [&] {
    q.schedule_at(50, [&] { order.push_back(2); });  // same cycle, earlier seq
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// Beyond the drain horizon the wake-up must not run inline: it spills and
// fires in the next drain.
TEST(DeferredInline, RespectsRunUntilHorizon) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_or_inline(200, [&] { order.push_back(2); });
  });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.deferred_spilled(), 1u);
  q.run_until(300);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Chained wake-ups: an inlined deferred closure may defer again; the flush
// loop picks each one up in turn without touching the heap.
TEST(DeferredInline, ChainsInlineAcrossClosures) {
  EventQueue q;
  std::vector<Cycle> at;
  std::function<void()> hop = [&] {
    at.push_back(q.now());
    if (at.size() < 5) q.schedule_or_inline(q.now() + 7, hop);
  };
  q.schedule_at(10, hop);
  q.run_all();
  EXPECT_EQ(at, (std::vector<Cycle>{10, 17, 24, 31, 38}));
  EXPECT_EQ(q.deferred_inlined(), 4u);
}

// Inlined deferred steps count as executed events, so they burn watchdog
// budget exactly like heap-drained events.
TEST(DeferredInline, CountsAgainstWatchdogBudget) {
  EventQueue q;
  q.set_watchdog_budget(3);
  int fired = 0;
  std::function<void()> hop = [&] {
    ++fired;
    q.schedule_or_inline(q.now() + 1, hop);
  };
  q.schedule_at(0, hop);
  EXPECT_THROW(q.run_all(), WatchdogTimeout);
  EXPECT_EQ(fired, 3);
}

// A closure that throws after deferring: the parked wake-up spills to the
// heap (it is not lost) and the queue stays consistent.
TEST(DeferredInline, ExceptionSpillsParkedWakeup) {
  EventQueue q;
  bool woke = false;
  q.schedule_at(10, [&] {
    q.schedule_or_inline(20, [&] { woke = true; });
    throw std::runtime_error("device fault");
  });
  EXPECT_THROW(q.run_all(), std::runtime_error);
  EXPECT_FALSE(woke);
  EXPECT_EQ(q.size(), 1u);  // the spilled wake-up survives
  q.run_all();
  EXPECT_TRUE(woke);
}

// try_step_inline must refuse while a deferred wake-up is parked: the
// wake-up precedes the continuation in FIFO order but is not in the heap.
TEST(DeferredInline, BlocksTryStepInlineUntilFlushed) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    q.schedule_or_inline(20, [&] { order.push_back(1); });
    // Same cycle, later seq: must fire after the parked wake-up.
    EXPECT_FALSE(q.try_step_inline(20));
    q.schedule_at(20, [&] { order.push_back(2); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------- step lanes

// A stepper re-arms itself the way a machine does: through its lane, or —
// the oracle — through schedule_at, which shares no lane code. It also
// drops heap events at the cycle of its next step, so lanes and heap
// entries tie on `at` and must break the tie by the seq each reserved.
struct Stepper {
  EventQueue& q;
  std::vector<std::pair<Cycle, int>>& log;
  int id;
  int left;
  std::uint32_t state;
  LaneId lane = kNoLane;

  static void fire_lane(void* self) { static_cast<Stepper*>(self)->fire(); }
  void arm(Cycle at) {
    if (lane != kNoLane) {
      q.arm_lane(lane, at);
    } else {
      q.schedule_at(at, [this] { fire(); });
    }
  }
  void fire() {
    log.emplace_back(q.now(), id);
    if (--left == 0) return;
    state = state * 1103515245u + 12345u;
    const Cycle at = q.now() + (state >> 16) % 8;  // 0 delay ties on now
    if ((state >> 8) % 3 == 0)
      q.schedule_at(at, [this] { log.emplace_back(q.now(), -id); });
    arm(at);
  }
};

std::vector<std::pair<Cycle, int>> run_steppers(bool lanes, int count) {
  EventQueue q;
  std::vector<std::pair<Cycle, int>> log;
  std::vector<std::unique_ptr<Stepper>> steppers;
  for (int id = 1; id <= count; ++id) {
    steppers.push_back(std::make_unique<Stepper>(
        Stepper{q, log, id, 40, static_cast<std::uint32_t>(id) * 7919u}));
    if (lanes)
      steppers.back()->lane =
          q.open_lane(&Stepper::fire_lane, steppers.back().get());
  }
  for (auto& s : steppers) s->arm(static_cast<Cycle>(s->id % 5));
  q.run_all();
  EXPECT_TRUE(q.empty());
  return log;
}

// Lanes fire in exactly the order the same steps take through the heap:
// (at, seq), with seq reserved at arm time. 100 lanes grow the tournament
// tree through several doublings.
TEST(StepLanes, InterleaveWithHeapInSeqOrder) {
  for (int count : {1, 2, 9, 100}) {
    SCOPED_TRACE(count);
    const auto lanes = run_steppers(/*lanes=*/true, count);
    EXPECT_EQ(lanes, run_steppers(/*lanes=*/false, count));
    EXPECT_GE(lanes.size(), static_cast<std::size_t>(40 * count));
  }
}

// An armed lane is a live event: it blocks inline steps at or after its
// time, and a deferred continuation behind it spills to the heap.
TEST(StepLanes, ArmedLaneBlocksInlineAndDeferred) {
  EventQueue q;
  std::vector<int> order;
  struct Owner {
    std::vector<int>* order;
    static void fire(void* self) {
      static_cast<Owner*>(self)->order->push_back(2);
    }
  } owner{&order};
  const LaneId lane = q.open_lane(&Owner::fire, &owner);
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.arm_lane(lane, 15);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.try_step_inline(15));  // the lane fires first
    EXPECT_TRUE(q.try_step_inline(14));
    q.schedule_or_inline(20, [&] { order.push_back(3); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.deferred_spilled(), 1u);
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.now(), 20u);
}

// The watchdog is charged before a lane fires; on a trip the step stays
// armed and fires once the budget is raised.
TEST(StepLanes, WatchdogLeavesLaneArmed) {
  EventQueue q;
  int fired = 0;
  struct Owner {
    int* fired;
    static void fire(void* self) { ++*static_cast<Owner*>(self)->fired; }
  } owner{&fired};
  const LaneId lane = q.open_lane(&Owner::fire, &owner);
  q.schedule_at(1, [] {});
  q.arm_lane(lane, 5);
  q.set_watchdog_budget(1);
  EXPECT_THROW(q.run_all(), WatchdogTimeout);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.size(), 1u);
  q.set_watchdog_budget(0);
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

// reset() disarms every lane but keeps open lanes usable; closing a lane
// drops its armed step, and the next open reuses it.
TEST(StepLanes, ResetDisarmsAndCloseRetires) {
  EventQueue q;
  int fired = 0;
  struct Owner {
    int* fired;
    static void fire(void* self) { ++*static_cast<Owner*>(self)->fired; }
  } owner{&fired};
  const LaneId a = q.open_lane(&Owner::fire, &owner);
  const LaneId b = q.open_lane(&Owner::fire, &owner);
  q.arm_lane(a, 3);
  q.arm_lane(b, 4);
  q.reset();
  EXPECT_TRUE(q.empty());
  q.run_all();
  EXPECT_EQ(fired, 0);
  q.arm_lane(b, 2);
  q.arm_lane(a, 6);
  q.close_lane(b);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.open_lane(&Owner::fire, &owner), b);
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 6u);
}

}  // namespace
}  // namespace sent::sim

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "core/anatomizer.hpp"
#include "core/features.hpp"
#include "core/int_reti.hpp"
#include "lifecycle_notation.hpp"
#include "util/rng.hpp"

namespace sent::core {
namespace {

using trace::LifecycleItem;
using trace::LifecycleKind;
using trace::NodeTrace;

NodeTrace make_trace(const std::string& compact, sim::Cycle run_end = 0) {
  NodeTrace t;
  t.lifecycle = trace::parse_compact(compact);
  t.run_end = run_end != 0
                  ? run_end
                  : (t.lifecycle.empty() ? 0 : t.lifecycle.back().cycle + 1);
  return t;
}

// The interval whose int(n) item sits at lifecycle index `int_index`.
EventInterval interval_at(const std::vector<EventInterval>& intervals,
                          std::size_t int_index) {
  for (const EventInterval& interval : intervals)
    if (interval.start_index == int_index) return interval;
  ADD_FAILURE() << "no interval starts at item " << int_index;
  return {};
}

// ------------------------------------------------------------- int-reti

TEST(IntReti, MatchesFlatString) {
  auto seq = trace::parse_compact("int(5) post(0) post(1) reti");
  auto s = match_int_reti(seq, 0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->start, 0u);
  EXPECT_EQ(s->end, 3u);
}

TEST(IntReti, MatchesNestedStrings) {
  auto seq = trace::parse_compact("int(5) int(2) int(1) reti reti reti");
  auto outer = match_int_reti(seq, 0);
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->end, 5u);
  auto middle = match_int_reti(seq, 1);
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->end, 4u);
  auto inner = match_int_reti(seq, 2);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->end, 3u);
}

TEST(IntReti, TruncatedHandlerReturnsNullopt) {
  auto seq = trace::parse_compact("int(5) post(0)");
  EXPECT_FALSE(match_int_reti(seq, 0).has_value());
}

TEST(IntReti, RunTaskInsideHandlerIsMalformed) {
  auto seq = trace::parse_compact("int(5) run(0) reti");
  EXPECT_THROW(match_int_reti(seq, 0), MalformedTrace);
}

TEST(IntReti, StartMustBeInt) {
  auto seq = trace::parse_compact("post(0) int(5) reti");
  EXPECT_THROW(match_int_reti(seq, 0), util::PreconditionError);
}

// Criterion 2 through the anatomizer: the top-level posts of an int-reti
// string are its handler's own, so the outer instance owns tasks 0 and 2
// (posted before and after the nested handler) and the nested one task 1.
TEST(IntReti, TopLevelPostsExcludeNestedOnes) {
  NodeTrace t = make_trace(
      "int(5) post(0) int(2) post(1) reti post(2) reti run(0) run(1) run(2)");
  auto all = Anatomizer(t).all_intervals();
  EventInterval outer = interval_at(all, 0);
  EXPECT_EQ(outer.task_count, 2u);
  EXPECT_EQ(outer.end_index, 9u);  // run(2)
  EventInterval nested = interval_at(all, 2);
  EXPECT_EQ(nested.task_count, 1u);
  EXPECT_EQ(nested.end_index, 8u);  // run(1)
}

// Criterion 3 through the anatomizer: run(0) posts 1 and 2, the int-reti
// string inside it posts 3, and run(1) ends run(0)'s region.
TEST(IntReti, PostsOfTaskRunStopsAtNextRunTask) {
  NodeTrace t = make_trace(
      "int(9) post(0) reti run(0) post(1) int(5) post(3) reti post(2) run(1) "
      "run(3) run(2)");
  auto all = Anatomizer(t).all_intervals();
  EventInterval task_owner = interval_at(all, 0);
  EXPECT_EQ(task_owner.task_count, 3u);  // 0, then 0's posts 1 and 2
  EXPECT_EQ(task_owner.end_index, 11u);  // run(2)
  EventInterval handler = interval_at(all, 5);
  EXPECT_EQ(handler.task_count, 1u);
  EXPECT_EQ(handler.end_index, 10u);  // run(3)
}

// The posts of the last task run belong to its instance even when the
// trace ends before they run: the instance stays open to the run's end.
TEST(IntReti, PostsOfTaskRunAtTraceEnd) {
  NodeTrace t = make_trace("int(9) post(0) reti run(0) post(1) post(2)",
                           /*run_end=*/500);
  EventInterval interval = interval_at(Anatomizer(t).all_intervals(), 0);
  EXPECT_TRUE(interval.truncated);
  EXPECT_EQ(interval.end_cycle, 500u);
}

TEST(IntReti, ValidateCountsOpenHandlers) {
  EXPECT_EQ(validate_lifecycle(trace::parse_compact("int(5) reti")), 0u);
  EXPECT_EQ(validate_lifecycle(trace::parse_compact("int(5) int(2) reti")),
            1u);
  EXPECT_THROW(validate_lifecycle(trace::parse_compact("reti")),
               MalformedTrace);
  EXPECT_THROW(validate_lifecycle(trace::parse_compact("int(5) run(0) reti")),
               MalformedTrace);
}

// ------------------------------------------------------- Figure 1 example

// The paper's Figure 1: handler posts tasks A and B; A posts C; B is
// preempted by another interrupt; C is the last task. The event-handling
// interval spans t0..t11.
NodeTrace figure1_trace() {
  NodeTrace t;
  auto add = [&](LifecycleKind kind, sim::Cycle cycle, std::uint32_t arg,
                 sim::Cycle end = 0) {
    t.lifecycle.push_back({kind, cycle, arg, end});
  };
  add(LifecycleKind::Int, 0, 9);            // t0: handler entry
  add(LifecycleKind::PostTask, 1, 0);       // t1: post A
  add(LifecycleKind::PostTask, 2, 1);       // t2: post B
  add(LifecycleKind::Reti, 3, 9);           // t3: handler exit
  add(LifecycleKind::RunTask, 4, 0, 6);     // t4: A starts (ends t6)
  add(LifecycleKind::PostTask, 5, 2);       // t5: A posts C
  add(LifecycleKind::RunTask, 6, 1, 9);     // t6: B starts (ends t9)
  add(LifecycleKind::Int, 7, 3);            // t7: preempting interrupt
  add(LifecycleKind::Reti, 8, 3);           // t8: its exit
  add(LifecycleKind::RunTask, 10, 2, 11);   // t10: C starts (ends t11)
  t.run_end = 12;
  return t;
}

TEST(Anatomizer, Figure1IntervalSpansT0ToT11) {
  NodeTrace t = figure1_trace();
  Anatomizer anatomizer(t);
  EventInterval interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_EQ(interval.irq, 9);
  EXPECT_EQ(interval.start_cycle, 0u);
  EXPECT_EQ(interval.end_cycle, 11u);  // C's completion
  EXPECT_EQ(interval.end_index, 9u);   // the runTask of C
  EXPECT_EQ(interval.task_count, 3u);  // A, B, C
  EXPECT_FALSE(interval.truncated);
}

TEST(Anatomizer, Figure1PreemptingInstanceIsItsOwnInterval) {
  NodeTrace t = figure1_trace();
  Anatomizer anatomizer(t);
  EventInterval interval = interval_at(anatomizer.all_intervals(), 7);
  EXPECT_EQ(interval.irq, 3);
  EXPECT_EQ(interval.start_cycle, 7u);
  EXPECT_EQ(interval.end_cycle, 8u);  // ends at its reti: no tasks
  EXPECT_EQ(interval.task_count, 0u);
}

TEST(Anatomizer, Figure1AllIntervalsAndEventTypes) {
  NodeTrace t = figure1_trace();
  Anatomizer anatomizer(t);
  auto all = anatomizer.all_intervals();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(anatomizer.event_types(), (std::vector<trace::IrqLine>{3, 9}));
  EXPECT_EQ(anatomizer.intervals_for(9).size(), 1u);
  EXPECT_EQ(anatomizer.intervals_for(3).size(), 1u);
  EXPECT_TRUE(anatomizer.intervals_for(7).empty());
}

// ----------------------------------------------------- small-case checks

TEST(Anatomizer, HandlerWithoutTasksEndsAtReti) {
  NodeTrace t = make_trace("int(5) reti");
  Anatomizer anatomizer(t);
  auto interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_EQ(interval.start_cycle, 0u);
  EXPECT_EQ(interval.end_cycle, 1u);
  EXPECT_EQ(interval.task_count, 0u);
}

TEST(Anatomizer, OverlappingInstancesBothResolved) {
  // Instance 1 posts task 0; before task 0 runs, instance 2 (same type)
  // fires and posts task 1. Instance 1 spans past instance 2's entry.
  NodeTrace t = make_trace("int(5) post(0) reti int(5) post(1) reti run(0) run(1)");
  Anatomizer anatomizer(t);
  auto intervals = anatomizer.intervals_for(5);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].seq_in_type, 0u);
  EXPECT_EQ(intervals[1].seq_in_type, 1u);
  // First instance ends at run(0)'s completion, i.e. after the second
  // instance started: overlap.
  EXPECT_GT(intervals[0].end_cycle, intervals[1].start_cycle);
  EXPECT_EQ(intervals[0].task_count, 1u);
  EXPECT_EQ(intervals[1].task_count, 1u);
}

TEST(Anatomizer, ChainOfTaskPostsFollowedTransitively) {
  // Handler posts 0; 0 posts 1; 1 posts 2.
  NodeTrace t =
      make_trace("int(5) post(0) reti run(0) post(1) run(1) post(2) run(2)");
  Anatomizer anatomizer(t);
  auto interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_EQ(interval.task_count, 3u);
  EXPECT_EQ(interval.end_index, 7u);
}

TEST(Anatomizer, TasksOfInterleavedInstancesNotConfused) {
  // Two instances of different types interleave; FIFO pairing must assign
  // task 0 to the first and task 1 to the second.
  NodeTrace t = make_trace("int(5) post(0) reti int(2) post(1) reti run(0) run(1)");
  Anatomizer anatomizer(t);
  auto first = interval_at(anatomizer.all_intervals(), 0);
  auto second = interval_at(anatomizer.all_intervals(), 3);
  EXPECT_EQ(first.task_count, 1u);
  EXPECT_EQ(second.task_count, 1u);
  EXPECT_EQ(first.end_index, 6u);
  EXPECT_EQ(second.end_index, 7u);
}

TEST(Anatomizer, NestedHandlerPostsBelongToNestedInstance) {
  // Outer handler posts 0; nested handler posts 1; FIFO: run(0) run(1).
  NodeTrace t =
      make_trace("int(5) post(0) int(2) post(1) reti reti run(0) run(1)");
  Anatomizer anatomizer(t);
  auto outer = interval_at(anatomizer.all_intervals(), 0);
  auto nested = interval_at(anatomizer.all_intervals(), 2);
  EXPECT_EQ(outer.task_count, 1u);
  EXPECT_EQ(outer.end_index, 6u);
  EXPECT_EQ(nested.task_count, 1u);
  EXPECT_EQ(nested.end_index, 7u);
}

TEST(Anatomizer, TruncatedHandlerExtendsToRunEnd) {
  NodeTrace t = make_trace("int(5) post(0)", /*run_end=*/500);
  Anatomizer anatomizer(t);
  auto interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_TRUE(interval.truncated);
  EXPECT_EQ(interval.end_cycle, 500u);
}

TEST(Anatomizer, TruncatedUnrunTaskExtendsToRunEnd) {
  NodeTrace t = make_trace("int(5) post(0) reti", /*run_end=*/500);
  Anatomizer anatomizer(t);
  auto interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_TRUE(interval.truncated);
  EXPECT_EQ(interval.end_cycle, 500u);
  EXPECT_EQ(interval.task_count, 0u);
}

TEST(Anatomizer, TruncatedRunningTaskExtendsToRunEnd) {
  NodeTrace t = make_trace("int(5) post(0) reti run(0)");
  // parse_compact set run end_cycle; zero it to simulate a still-running
  // task at the end of the recording.
  t.lifecycle[3].end_cycle = 0;
  t.run_end = 900;
  Anatomizer anatomizer(t);
  auto interval = interval_at(anatomizer.all_intervals(), 0);
  EXPECT_TRUE(interval.truncated);
  EXPECT_EQ(interval.end_cycle, 900u);
}

TEST(Anatomizer, Criterion1MismatchDetected) {
  // postTask(0) paired with runTask(1): corrupt trace.
  NodeTrace t = make_trace("int(5) post(0) reti run(1)");
  EXPECT_THROW(Anatomizer{t}, util::AssertionError);
}

// ----------------------------------------------- property: random models

// Reference generator: produces random lifecycle sequences directly from
// the concurrency model's rules while tracking ground truth (which tasks
// belong to which instance and where each instance ends). The anatomizer
// must reconstruct both exactly.
struct ModelGen {
  util::Rng rng;
  std::vector<LifecycleItem> seq;
  struct Instance {
    std::size_t int_index;
    trace::IrqLine line;
    std::size_t task_count = 0;
    std::size_t last_index;  // reti or last runTask
  };
  std::vector<Instance> instances;
  // FIFO of (task id, owning instance).
  std::deque<std::pair<std::uint32_t, std::size_t>> queue;
  std::uint32_t next_task_id = 0;
  sim::Cycle cycle = 0;
  // Budgets keep the (otherwise slightly supercritical) branching process
  // of tasks-posting-tasks finite for every seed.
  std::uint32_t task_budget = 300;
  std::uint32_t instance_budget = 200;

  explicit ModelGen(std::uint64_t seed) : rng(seed) {}

  bool may_post() const { return next_task_id < task_budget; }
  bool may_interrupt() const { return instances.size() < instance_budget; }

  void emit(LifecycleKind kind, std::uint32_t arg, sim::Cycle end = 0) {
    seq.push_back({kind, cycle++, arg, end});
  }

  // Emit a handler episode for a new instance; may nest further handlers
  // and post tasks. Returns the instance index.
  std::size_t handler(int depth) {
    std::size_t inst = instances.size();
    instances.push_back(Instance{seq.size(),
                                 static_cast<trace::IrqLine>(
                                     1 + rng.below(6)),
                                 0, 0});
    emit(LifecycleKind::Int, instances[inst].line);
    int actions = static_cast<int>(rng.below(4));
    for (int a = 0; a < actions; ++a) {
      if (depth < 3 && rng.chance(0.25) && may_interrupt()) {
        handler(depth + 1);  // nested preemption
      } else if (may_post()) {
        std::uint32_t id = next_task_id++;
        queue.push_back({id, inst});
        instances[inst].task_count += 1;  // provisional; counted at post
        emit(LifecycleKind::PostTask, id);
      }
    }
    instances[inst].last_index = seq.size();
    emit(LifecycleKind::Reti, instances[inst].line);
    return inst;
  }

  // Run the next task from the queue; it may post tasks and suffer
  // handler preemptions.
  void run_next_task() {
    auto [id, owner] = queue.front();
    queue.pop_front();
    std::size_t run_index = seq.size();
    emit(LifecycleKind::RunTask, id);
    instances[owner].last_index = run_index;
    int actions = static_cast<int>(rng.below(4));
    for (int a = 0; a < actions; ++a) {
      if (rng.chance(0.3) && may_interrupt()) {
        handler(1);
      } else if (may_post()) {
        std::uint32_t nid = next_task_id++;
        queue.push_back({nid, owner});
        instances[owner].task_count += 1;
        emit(LifecycleKind::PostTask, nid);
      }
    }
    // Task ends now: the next item (if any) begins afterwards.
    seq[run_index].end_cycle = cycle;
  }

  void generate(int episodes) {
    for (int e = 0; e < episodes; ++e) {
      handler(0);
      // Drain some or all of the queue before the next interrupt episode.
      std::size_t to_run = rng.below(queue.size() + 1);
      for (std::size_t i = 0; i < to_run; ++i) run_next_task();
    }
    while (!queue.empty()) run_next_task();
  }
};

class AnatomizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnatomizerProperty, ReconstructsGroundTruth) {
  ModelGen gen(GetParam());
  gen.generate(12);

  NodeTrace t;
  t.lifecycle = gen.seq;
  t.run_end = gen.cycle + 1;
  const auto all = Anatomizer(t).all_intervals();

  for (const auto& truth : gen.instances) {
    EventInterval interval = interval_at(all, truth.int_index);
    EXPECT_EQ(interval.task_count, truth.task_count)
        << "instance at item " << truth.int_index << " seed " << GetParam();
    EXPECT_FALSE(interval.truncated);
    EXPECT_EQ(interval.end_index, truth.last_index)
        << "instance at item " << truth.int_index << " seed " << GetParam();
    // End cycle: reti's cycle or the last task's completion.
    const auto& last = gen.seq[truth.last_index];
    sim::Cycle expect_end = last.kind == LifecycleKind::RunTask
                                ? last.end_cycle
                                : last.cycle;
    EXPECT_EQ(interval.end_cycle, expect_end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnatomizerProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// -------------------------------------------------------------- features

NodeTrace feature_trace() {
  NodeTrace t;
  t.instr_table = {{"handler", "a", 8}, {"handler", "b", 8},
                   {"task", "c", 8}};
  t.instrs = {{10, 0}, {12, 1}, {20, 2}, {30, 0}, {31, 1}, {40, 2}};
  t.lifecycle = trace::parse_compact("int(5) post(0) reti run(0)");
  t.run_end = 100;
  return t;
}

EventInterval window(sim::Cycle start, sim::Cycle end) {
  EventInterval i;
  i.start_cycle = start;
  i.end_cycle = end;
  i.start_index = 0;
  i.end_index = 3;
  return i;
}

TEST(Features, InstructionCounterCountsWindowInclusive) {
  NodeTrace t = feature_trace();
  std::vector<EventInterval> intervals{window(10, 20), window(21, 100),
                                       window(0, 9)};
  FeatureMatrix m = instruction_counters(t, intervals);
  ASSERT_EQ(m.dim(), 3u);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.values.row_vector(0), (std::vector<double>{1, 1, 1}));  // cycles 10..20
  EXPECT_EQ(m.values.row_vector(1), (std::vector<double>{1, 1, 1}));  // cycles 21..100
  EXPECT_EQ(m.values.row_vector(2), (std::vector<double>{0, 0, 0}));  // before anything
  EXPECT_EQ(m.names[0], "handler/a");
  EXPECT_EQ(m.names[2], "task/c");
}

TEST(Features, InstructionCounterOverlapCountsDouble) {
  NodeTrace t = feature_trace();
  std::vector<EventInterval> intervals{window(0, 100)};
  FeatureMatrix m = instruction_counters(t, intervals);
  EXPECT_EQ(m.values.row_vector(0), (std::vector<double>{2, 2, 2}));
}

TEST(Features, CoarseFeatures) {
  NodeTrace t = feature_trace();
  EventInterval i = window(0, 100);
  i.task_count = 1;
  std::vector<EventInterval> intervals{i};
  FeatureMatrix m = coarse_features(t, intervals);
  ASSERT_EQ(m.dim(), 5u);
  EXPECT_EQ(m.values(0, 0), 100.0);  // duration
  EXPECT_EQ(m.values(0, 1), 6.0);    // executed instructions
  EXPECT_EQ(m.values(0, 2), 1.0);    // task count
  EXPECT_EQ(m.values(0, 3), 1.0);    // posts within item range
  EXPECT_EQ(m.values(0, 4), 1.0);    // ints within item range
}

TEST(Features, CodeObjectCountersAggregate) {
  NodeTrace t = feature_trace();
  std::vector<EventInterval> intervals{window(0, 100)};
  FeatureMatrix m = code_object_counters(t, intervals);
  ASSERT_EQ(m.dim(), 2u);
  EXPECT_EQ(m.names[0], "handler");
  EXPECT_EQ(m.names[1], "task");
  EXPECT_EQ(m.values.row_vector(0), (std::vector<double>{4, 2}));
}

TEST(Features, AppendRowsRequiresMatchingColumns) {
  NodeTrace t = feature_trace();
  std::vector<EventInterval> intervals{window(0, 100)};
  FeatureMatrix a = instruction_counters(t, intervals);
  FeatureMatrix b = coarse_features(t, intervals);
  EXPECT_THROW(append_rows(a, b), util::PreconditionError);
  FeatureMatrix c = instruction_counters(t, intervals);
  append_rows(c, a);
  EXPECT_EQ(c.size(), 2u);
}

TEST(Features, EmptyInstrTableRejected) {
  NodeTrace t;
  t.lifecycle = trace::parse_compact("int(5) reti");
  std::vector<EventInterval> intervals{window(0, 10)};
  EXPECT_THROW(instruction_counters(t, intervals), util::PreconditionError);
}

}  // namespace
}  // namespace sent::core

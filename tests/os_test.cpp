#include <gtest/gtest.h>

#include <vector>

#include "os/node.hpp"
#include "util/assert.hpp"

namespace sent::os {
namespace {

struct Harness {
  sim::EventQueue q;
  Node node{7, q};
};

mcu::CodeId make_task(Harness& h, const std::string& name,
                      std::function<void()> fn = [] {}) {
  return mcu::CodeBuilder(name, true).instr("body", std::move(fn)).build(
      h.node.program());
}

TEST(Kernel, RegisterTaskRejectsHandlers) {
  Harness h;
  mcu::CodeId handler =
      mcu::CodeBuilder("h", false).instr("a", [] {}).build(h.node.program());
  EXPECT_THROW(h.node.kernel().register_task(handler),
               util::PreconditionError);
}

TEST(Kernel, PostUnknownTaskThrows) {
  Harness h;
  EXPECT_THROW(h.node.kernel().post(0), util::PreconditionError);
}

TEST(Kernel, PlainPostAllowsDuplicates) {
  Harness h;
  int runs = 0;
  mcu::CodeId code = make_task(h, "t", [&] { ++runs; });
  trace::TaskId t = h.node.kernel().register_task(code);
  // Post from outside machine context: enqueue then let the machine drain.
  h.q.schedule_at(0, [&] {
    h.node.kernel().post(t);
    h.node.kernel().post(t);
  });
  h.q.run_all();
  EXPECT_EQ(runs, 2);
  auto tr = h.node.take_trace();
  // Two postTask and two runTask items.
  int posts = 0, runs_items = 0;
  for (const auto& item : tr.lifecycle) {
    posts += item.kind == trace::LifecycleKind::PostTask;
    runs_items += item.kind == trace::LifecycleKind::RunTask;
  }
  EXPECT_EQ(posts, 2);
  EXPECT_EQ(runs_items, 2);
}

TEST(Timers, PeriodicFiresRepeatedly) {
  Harness h;
  int fires = 0;
  trace::IrqLine line = h.node.timers().create("sample");
  mcu::CodeId handler = mcu::CodeBuilder("onSample", false)
                            .instr("count", [&] { ++fires; })
                            .build(h.node.program());
  h.node.machine().register_handler(line, handler);
  h.node.timers().start_periodic(line, 1000);
  h.q.run_until(5500);
  EXPECT_EQ(fires, 5);  // fired at 1000..5000
  h.node.timers().stop(line);
  h.q.run_all();
  EXPECT_EQ(fires, 5);
}

TEST(Timers, PeriodicFirstFireOverride) {
  Harness h;
  std::vector<sim::Cycle> fire_times;
  trace::IrqLine line = h.node.timers().create("sample");
  mcu::CodeId handler =
      mcu::CodeBuilder("onSample", false)
          .instr("record", [&] { fire_times.push_back(h.q.now()); })
          .build(h.node.program());
  h.node.machine().register_handler(line, handler);
  h.node.timers().start_periodic(line, 1000, /*first=*/1);
  h.q.run_until(2500);
  ASSERT_EQ(fire_times.size(), 3u);
  // Fires raised at 1, 1001, 2001 (+wakeup+entry before the instruction).
  EXPECT_LT(fire_times[0], 20u);
  EXPECT_NEAR(double(fire_times[1] - fire_times[0]), 1000.0, 10.0);
}

TEST(Timers, OneshotFiresOnce) {
  Harness h;
  int fires = 0;
  trace::IrqLine line = h.node.timers().create("once");
  mcu::CodeId handler = mcu::CodeBuilder("onOnce", false)
                            .instr("count", [&] { ++fires; })
                            .build(h.node.program());
  h.node.machine().register_handler(line, handler);
  h.node.timers().start_oneshot(line, 500);
  h.q.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(h.node.timers().running(line));
  // Restartable after completion.
  h.node.timers().start_oneshot(line, 500);
  h.q.run_all();
  EXPECT_EQ(fires, 2);
}

TEST(Timers, StopCancelsPendingFire) {
  Harness h;
  int fires = 0;
  trace::IrqLine line = h.node.timers().create("cancelled");
  mcu::CodeId handler = mcu::CodeBuilder("onX", false)
                            .instr("count", [&] { ++fires; })
                            .build(h.node.program());
  h.node.machine().register_handler(line, handler);
  h.node.timers().start_oneshot(line, 500);
  h.node.timers().stop(line);
  h.q.run_all();
  EXPECT_EQ(fires, 0);
  EXPECT_FALSE(h.node.timers().running(line));
}

TEST(Timers, DoubleStartThrows) {
  Harness h;
  trace::IrqLine line = h.node.timers().create("t");
  mcu::CodeId handler =
      mcu::CodeBuilder("onT", false).instr("a", [] {}).build(h.node.program());
  h.node.machine().register_handler(line, handler);
  h.node.timers().start_periodic(line, 100);
  EXPECT_THROW(h.node.timers().start_periodic(line, 100),
               util::PreconditionError);
  EXPECT_THROW(h.node.timers().start_oneshot(line, 100),
               util::PreconditionError);
}

TEST(Timers, NamesAndLineAllocation) {
  Harness h;
  trace::IrqLine a = h.node.timers().create("alpha");
  trace::IrqLine b = h.node.timers().create("beta");
  EXPECT_EQ(a, irq::kTimerBase);
  EXPECT_EQ(b, irq::kTimerBase + 1);
  EXPECT_TRUE(h.node.timers().owns(b));
  EXPECT_FALSE(h.node.timers().owns(irq::kTimerBase + 2));
  EXPECT_THROW(h.node.timers().running(irq::kTimerBase + 2),
               util::PreconditionError);
  // A timer's name labels its errors.
  h.node.timers().start_periodic(a, 100);
  try {
    h.node.timers().start_periodic(a, 100);
    ADD_FAILURE() << "restarting a running timer must throw";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("timer alpha"), std::string::npos);
  }
}

TEST(Timers, ZeroPeriodRejected) {
  Harness h;
  trace::IrqLine line = h.node.timers().create("bad");
  EXPECT_THROW(h.node.timers().start_periodic(line, 0),
               util::PreconditionError);
}


TEST(Timers, CrystalDriftScalesPeriods) {
  // Two nodes with opposite 50 ppm drifts diverge measurably over many
  // periods; a zero-drift node fires exactly on the nominal schedule.
  auto fires_in = [](double ppm, sim::Cycle horizon) {
    sim::EventQueue q;
    Node node(0, q);
    int fires = 0;
    trace::IrqLine line = node.timers().create("t");
    mcu::CodeId handler = mcu::CodeBuilder("onT", false)
                              .instr("count", [&] { ++fires; })
                              .build(node.program());
    node.machine().register_handler(line, handler);
    node.timers().set_drift_ppm(ppm);
    node.timers().start_periodic(line, 1000);
    q.run_until(horizon);
    return fires;
  };
  // 500 ppm over 10k nominal periods is ~5 periods of divergence.
  int nominal = fires_in(0.0, 10'000'000);
  int fast = fires_in(-500.0, 10'000'000);  // fast crystal: shorter periods
  int slow = fires_in(+500.0, 10'000'000);
  EXPECT_EQ(nominal, 9999);  // the raise at the horizon misses its handler
  EXPECT_GT(fast, nominal);
  EXPECT_LT(slow, nominal);
  EXPECT_NEAR(fast - nominal, 5, 2);
  EXPECT_NEAR(nominal - slow, 5, 2);
}

TEST(Timers, DriftValidation) {
  sim::EventQueue q;
  Node node(0, q);
  EXPECT_THROW(node.timers().set_drift_ppm(2e5), util::PreconditionError);
  node.timers().set_drift_ppm(40.0);
  EXPECT_DOUBLE_EQ(node.timers().drift_ppm(), 40.0);
}

TEST(Node, MarkBugRecordsGroundTruth) {
  Harness h;
  h.q.schedule_at(123, [&] { h.node.mark_bug("test-kind"); });
  h.q.run_all();
  auto tr = h.node.take_trace();
  ASSERT_EQ(tr.bugs.size(), 1u);
  EXPECT_EQ(tr.bugs[0].cycle, 123u);
  EXPECT_EQ(tr.bugs[0].kind, "test-kind");
  EXPECT_EQ(tr.node_id, 7u);
}

TEST(Node, TraceCarriesInstructionTable) {
  Harness h;
  mcu::CodeBuilder("h", false).instr("one", [] {}).instr("two", [] {}).build(
      h.node.program());
  auto tr = h.node.take_trace();
  ASSERT_EQ(tr.instr_table.size(), 2u);
  EXPECT_EQ(tr.instr_table[1].name, "two");
}

}  // namespace
}  // namespace sent::os

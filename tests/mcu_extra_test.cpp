// Additional machine/kernel edge-case coverage: dispatch costs, deep
// handler nesting, heavy task-queue churn, and interrupt starvation.
#include <gtest/gtest.h>

#include <vector>

#include "core/int_reti.hpp"
#include "lifecycle_notation.hpp"
#include "os/node.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::mcu {
namespace {

struct Harness {
  sim::EventQueue q;
  os::Node node{0, q};
  void raise_at(sim::Cycle at, trace::IrqLine line) {
    q.schedule_at(at, [this, line] { node.machine().raise_irq(line); });
  }
};

TEST(MachineCosts, DispatchCostsShapeTiming) {
  Harness h;
  CodeId handler = CodeBuilder("h", false)
                       .instr("a", [] {}, /*cost=*/100)
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.q.run_all();
  auto t = h.node.take_trace();
  ASSERT_EQ(t.lifecycle.size(), 2u);
  EXPECT_EQ(t.lifecycle[0].cycle, cost::kWakeup);
  EXPECT_EQ(t.instrs[0].cycle, cost::kWakeup + cost::kIntEntry);
  EXPECT_EQ(t.lifecycle[1].cycle, cost::kWakeup + cost::kIntEntry + 100);
}

TEST(MachineCosts, InstrCostsAccumulateInTrace) {
  Harness h;
  CodeId handler = CodeBuilder("h", false)
                       .instr("cheap", [] {}, 4)
                       .instr("mid", [] {}, 40)
                       .instr("dear", [] {}, 400)
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.q.run_all();
  auto t = h.node.take_trace();
  ASSERT_EQ(t.instrs.size(), 3u);
  EXPECT_EQ(t.instrs[1].cycle - t.instrs[0].cycle, 4u);
  EXPECT_EQ(t.instrs[2].cycle - t.instrs[1].cycle, 40u);
  EXPECT_EQ(t.lifecycle.back().cycle - t.instrs[2].cycle, 400u);
}

TEST(Machine, ThreeLevelNesting) {
  Harness h;
  auto& prog = h.node.program();
  auto slow = [&](const std::string& name) {
    return CodeBuilder(name, false)
        .instr("a", [] {}, 50)
        .instr("b", [] {}, 50)
        .build(prog);
  };
  h.node.machine().register_handler(9, slow("level9"));
  h.node.machine().register_handler(6, slow("level6"));
  h.node.machine().register_handler(3, slow("level3"));
  h.raise_at(0, 9);
  h.raise_at(60, 6);   // lands inside level9
  h.raise_at(120, 3);  // lands inside level6
  h.q.run_all();
  auto t = h.node.take_trace();
  EXPECT_EQ(trace::to_compact(t.lifecycle),
            "int(9) int(6) int(3) reti reti reti");
}

TEST(Machine, PriorityAmongSimultaneousPendings) {
  Harness h;
  auto& prog = h.node.program();
  std::vector<int> order;
  auto handler = [&](const std::string& name, int id) {
    return CodeBuilder(name, false)
        .instr("run", [&order, id] { order.push_back(id); })
        .build(prog);
  };
  h.node.machine().register_handler(7, handler("seven", 7));
  h.node.machine().register_handler(2, handler("two", 2));
  h.node.machine().register_handler(4, handler("four", 4));
  // Raise all three at the same instant; delivery must follow priority.
  h.q.schedule_at(10, [&] {
    h.node.machine().raise_irq(7);
    h.node.machine().raise_irq(2);
    h.node.machine().raise_irq(4);
  });
  h.q.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 7}));
}

TEST(Machine, ManyTasksDrainInFifoOrder) {
  Harness h;
  auto& prog = h.node.program();
  std::vector<int> order;
  std::vector<trace::TaskId> ids;
  for (int i = 0; i < 20; ++i) {
    CodeId code = CodeBuilder("task" + std::to_string(i), true)
                      .instr("run", [&order, i] { order.push_back(i); })
                      .build(prog);
    ids.push_back(h.node.kernel().register_task(code));
  }
  CodeId handler =
      CodeBuilder("poster", false)
          .instr("post_all",
                 [&] {
                   for (trace::TaskId id : ids) h.node.kernel().post(id);
                 })
          .build(prog);
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.q.run_all();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Machine, InterruptStormPreemptsEveryTaskSlot) {
  // A periodic high-priority interrupt keeps firing while a long chain of
  // tasks drains; every task still runs to completion exactly once.
  Harness h;
  auto& prog = h.node.program();
  int task_runs = 0;
  int storm_hits = 0;
  CodeId task_code = CodeBuilder("slowTask", true)
                         .instr("w1", [&] { ++task_runs; }, 500)
                         .instr("w2", [] {}, 500)
                         .build(prog);
  trace::TaskId task = h.node.kernel().register_task(task_code);
  CodeId poster = CodeBuilder("poster", false)
                      .instr("post",
                             [&] {
                               for (int i = 0; i < 10; ++i)
                                 h.node.kernel().post(task);
                             })
                      .build(prog);
  CodeId storm = CodeBuilder("storm", false)
                     .instr("hit", [&] { ++storm_hits; })
                     .build(prog);
  h.node.machine().register_handler(5, poster);
  h.node.machine().register_handler(2, storm);
  h.raise_at(0, 5);
  for (sim::Cycle t = 100; t < 12000; t += 300) h.raise_at(t, 2);
  h.q.run_all();
  EXPECT_EQ(task_runs, 10);
  EXPECT_GT(storm_hits, 20);
  auto t = h.node.take_trace();
  EXPECT_EQ(core::validate_lifecycle(t.lifecycle), 0u);
}

TEST(Machine, InterruptsDeliveredCounterMatchesTrace) {
  Harness h;
  CodeId handler =
      CodeBuilder("h", false).instr("a", [] {}).build(h.node.program());
  h.node.machine().register_handler(5, handler);
  for (sim::Cycle t = 0; t < 1000; t += 100) h.raise_at(t, 5);
  h.q.run_all();
  auto t = h.node.take_trace();
  std::size_t ints = 0;
  for (const auto& item : t.lifecycle)
    ints += item.kind == trace::LifecycleKind::Int;
  EXPECT_EQ(h.node.machine().interrupts_delivered(), ints);
  EXPECT_EQ(ints, 10u);
}

TEST(Machine, TimerDrivenWorkloadIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::EventQueue q;
    os::Node node(0, q);
    util::Rng rng(seed);
    trace::IrqLine line = node.timers().create("t");
    CodeId handler = CodeBuilder("h", false)
                         .instr("work", [&] { (void)rng.next(); })
                         .build(node.program());
    node.machine().register_handler(line, handler);
    node.timers().start_periodic(line, 997);
    q.run_until(100000);
    return node.take_trace().instrs.size();
  };
  EXPECT_EQ(run(1), run(1));
}

}  // namespace
}  // namespace sent::mcu

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lifecycle_notation.hpp"
#include "os/node.hpp"
#include "util/assert.hpp"

namespace sent::mcu {
namespace {

using os::Node;
using trace::LifecycleKind;
using trace::NodeTrace;

// Render a trace's lifecycle as the compact textual form for assertions.
std::string compact(const NodeTrace& t) { return trace::to_compact(t.lifecycle); }

// Names of executed instructions, in execution order.
std::vector<std::string> executed_names(const NodeTrace& t) {
  std::vector<std::string> names;
  for (const auto& e : t.instrs)
    names.push_back(t.instr_table[e.instr].code_object + "/" +
                    t.instr_table[e.instr].name);
  return names;
}

struct Harness {
  sim::EventQueue q;
  Node node{0, q};

  void raise_at(sim::Cycle at, trace::IrqLine line) {
    q.schedule_at(at, [this, line] { node.machine().raise_irq(line); });
  }
  NodeTrace run() {
    q.run_all();
    return node.take_trace();
  }
};

// ------------------------------------------------------------ CodeBuilder

TEST(CodeBuilder, AssignsGlobalInstructionIds) {
  Program prog;
  CodeBuilder("h1", false).instr("a", [] {}).instr("b", [] {}).build(prog);
  CodeId t1 = CodeBuilder("t1", true).instr("c", [] {}).build(prog);
  EXPECT_EQ(prog.instr_count(), 3u);
  EXPECT_EQ(prog.instr_table()[0].code_object, "h1");
  EXPECT_EQ(prog.instr_table()[2].code_object, "t1");
  EXPECT_EQ(prog.instr_table()[2].name, "c");
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(prog.code(t1).name, "t1");
}

TEST(CodeBuilder, RejectsDuplicateNamesAndEmptyBodies) {
  Program prog;
  CodeBuilder("x", false).instr("a", [] {}).build(prog);
  EXPECT_THROW(CodeBuilder("x", false).instr("a", [] {}).build(prog),
               util::PreconditionError);
  EXPECT_THROW(CodeBuilder("empty", false).build(prog),
               util::PreconditionError);
}

TEST(CodeBuilder, UndefinedLabelThrowsAtBuild) {
  Program prog;
  CodeBuilder b("bad", false);
  b.instr("a", [] {}).jump("j", "nowhere");
  EXPECT_THROW(b.build(prog), util::PreconditionError);
}

TEST(CodeBuilder, BuildTwiceThrows) {
  Program prog;
  CodeBuilder b("once", false);
  b.instr("a", [] {});
  b.build(prog);
  EXPECT_THROW(b.build(prog), util::PreconditionError);
}

// --------------------------------------------------------------- Machine

TEST(Machine, HandlerRunsWithExactTiming) {
  Harness h;
  int count = 0;
  CodeId handler = CodeBuilder("handler", false)
                       .instr("a", [&] { ++count; })
                       .instr("b", [&] { ++count; })
                       .instr("c", [&] { ++count; })
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(100, 5);
  NodeTrace t = h.run();

  EXPECT_EQ(count, 3);
  ASSERT_EQ(t.lifecycle.size(), 2u);
  // raise@100 + wakeup(4) => step@104 delivers int; + int_entry(4) => first
  // instruction at 108; three instructions of cost 8 end at 132 => reti.
  EXPECT_EQ(t.lifecycle[0].kind, LifecycleKind::Int);
  EXPECT_EQ(t.lifecycle[0].cycle, 104u);
  EXPECT_EQ(t.lifecycle[1].kind, LifecycleKind::Reti);
  EXPECT_EQ(t.lifecycle[1].cycle, 132u);
  ASSERT_EQ(t.instrs.size(), 3u);
  EXPECT_EQ(t.instrs[0].cycle, 108u);
  EXPECT_EQ(t.instrs[1].cycle, 116u);
  EXPECT_EQ(t.instrs[2].cycle, 124u);
}

TEST(Machine, HandlerPostsTaskThatRunsAfterReti) {
  Harness h;
  std::vector<std::string> log;
  CodeId task_code = CodeBuilder("task", true)
                         .instr("work", [&] { log.push_back("task"); })
                         .build(h.node.program());
  trace::TaskId task = h.node.kernel().register_task(task_code);
  CodeId handler = CodeBuilder("handler", false)
                       .instr("post", [&] {
                         log.push_back("handler");
                         h.node.kernel().post(task);
                       })
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  NodeTrace t = h.run();

  EXPECT_EQ(log, (std::vector<std::string>{"handler", "task"}));
  EXPECT_EQ(compact(t), "int(5) post(0) reti run(0)");
  // The runTask item carries the task completion cycle.
  const auto& run_item = t.lifecycle[3];
  EXPECT_GT(run_item.end_cycle, run_item.cycle);
}

TEST(Machine, TasksRunFifo) {
  Harness h;
  std::vector<int> order;
  auto& prog = h.node.program();
  CodeId a = CodeBuilder("taskA", true)
                 .instr("a", [&] { order.push_back(1); })
                 .build(prog);
  CodeId b = CodeBuilder("taskB", true)
                 .instr("b", [&] { order.push_back(2); })
                 .build(prog);
  trace::TaskId ta = h.node.kernel().register_task(a);
  trace::TaskId tb = h.node.kernel().register_task(b);
  CodeId handler = CodeBuilder("handler", false)
                       .instr("post", [&] {
                         h.node.kernel().post(ta);
                         h.node.kernel().post(tb);
                       })
                       .build(prog);
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  NodeTrace t = h.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(compact(t), "int(5) post(0) post(1) reti run(0) run(1)");
}

TEST(Machine, InterruptPreemptsTaskBetweenInstructions) {
  Harness h;
  auto& prog = h.node.program();
  CodeId task_code = CodeBuilder("longTask", true)
                         .instr("t0", [] {})
                         .instr("t1", [] {})
                         .instr("t2", [] {})
                         .instr("t3", [] {})
                         .instr("t4", [] {})
                         .build(prog);
  trace::TaskId task = h.node.kernel().register_task(task_code);
  CodeId poster = CodeBuilder("poster", false)
                      .instr("post", [&] { h.node.kernel().post(task); })
                      .build(prog);
  CodeId intruder = CodeBuilder("intruder", false)
                        .instr("i0", [] {})
                        .build(prog);
  h.node.machine().register_handler(5, poster);
  h.node.machine().register_handler(2, intruder);
  h.raise_at(0, 5);
  // The task starts at cycle 20; raise line 2 while it is mid-body so the
  // interrupt lands between task instructions (not after the last one).
  h.raise_at(36, 2);
  NodeTrace t = h.run();

  EXPECT_EQ(compact(t), "int(5) post(0) reti run(0) int(2) reti");
  // The intruder's instruction executes between task instructions.
  auto names = executed_names(t);
  auto pos = std::find(names.begin(), names.end(), "intruder/i0");
  ASSERT_NE(pos, names.end());
  EXPECT_NE(names.front(), "intruder/i0");
  EXPECT_NE(names.back(), "intruder/i0");
  // Task completion is patched after the preemption.
  const auto& run_item = t.lifecycle[3];
  const auto& reti2 = t.lifecycle[5];
  EXPECT_GT(run_item.end_cycle, reti2.cycle);
}

TEST(Machine, HigherPriorityInterruptNestsInsideHandler) {
  Harness h;
  auto& prog = h.node.program();
  CodeId slow = CodeBuilder("slow", false)
                    .instr("s0", [] {})
                    .instr("s1", [] {})
                    .instr("s2", [] {})
                    .instr("s3", [] {})
                    .build(prog);
  CodeId fast = CodeBuilder("fast", false).instr("f0", [] {}).build(prog);
  h.node.machine().register_handler(5, slow);
  h.node.machine().register_handler(2, fast);
  h.raise_at(0, 5);
  h.raise_at(20, 2);  // while slow handler is executing
  NodeTrace t = h.run();
  EXPECT_EQ(compact(t), "int(5) int(2) reti reti");
  EXPECT_EQ(t.lifecycle[1].arg, 2u);
  EXPECT_EQ(t.lifecycle[2].arg, 2u);  // inner reti is line 2
  EXPECT_EQ(t.lifecycle[3].arg, 5u);
}

TEST(Machine, LowerPriorityInterruptWaitsForReti) {
  Harness h;
  auto& prog = h.node.program();
  CodeId fast = CodeBuilder("fast", false)
                    .instr("f0", [] {})
                    .instr("f1", [] {})
                    .instr("f2", [] {})
                    .instr("f3", [] {})
                    .build(prog);
  CodeId slow = CodeBuilder("slow", false).instr("s0", [] {}).build(prog);
  h.node.machine().register_handler(2, fast);
  h.node.machine().register_handler(5, slow);
  h.raise_at(0, 2);
  h.raise_at(15, 5);  // lower priority, must wait
  NodeTrace t = h.run();
  EXPECT_EQ(compact(t), "int(2) reti int(5) reti");
}

TEST(Machine, SameLineRaiseIsLatchedNotNested) {
  Harness h;
  auto& prog = h.node.program();
  CodeId handler = CodeBuilder("handler", false)
                       .instr("a", [] {})
                       .instr("b", [] {})
                       .instr("c", [] {})
                       .build(prog);
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.raise_at(14, 5);  // while handler is running: latched
  h.raise_at(18, 5);  // second raise while latched: absorbed
  NodeTrace t = h.run();
  EXPECT_EQ(compact(t), "int(5) reti int(5) reti");
  EXPECT_EQ(h.node.machine().interrupts_delivered(), 2u);
}

TEST(Machine, BranchSkipsInstructions) {
  Harness h;
  bool taken = true;
  std::vector<std::string> log;
  CodeId handler = CodeBuilder("handler", false)
                       .instr("first", [&] { log.push_back("first"); })
                       .branch_if("check", [&] { return taken; }, "done")
                       .instr("skipped", [&] { log.push_back("skipped"); })
                       .label("done")
                       .instr("last", [&] { log.push_back("last"); })
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.q.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "last"}));

  taken = false;
  log.clear();
  h.raise_at(h.q.now() + 100, 5);
  NodeTrace t = h.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "skipped", "last"}));
}

TEST(Machine, JumpBuildsLoops) {
  Harness h;
  int iterations = 0;
  CodeId handler =
      CodeBuilder("looper", false)
          .label("top")
          .instr("body", [&] { ++iterations; })
          .branch_if("again", [&] { return iterations < 3; }, "top")
          .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  NodeTrace t = h.run();
  EXPECT_EQ(iterations, 3);
  // body executed 3 times, branch executed 3 times.
  EXPECT_EQ(t.instrs.size(), 6u);
}

TEST(Machine, RetIfReturnsEarly) {
  Harness h;
  std::vector<std::string> log;
  CodeId handler = CodeBuilder("handler", false)
                       .instr("a", [&] { log.push_back("a"); })
                       .ret_if("maybe", [] { return true; })
                       .instr("unreached", [&] { log.push_back("u"); })
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
}

TEST(Machine, JumpToEndActsAsReturn) {
  Harness h;
  std::vector<std::string> log;
  CodeId handler = CodeBuilder("handler", false)
                       .instr("a", [&] { log.push_back("a"); })
                       .jump("j", "end")
                       .instr("unreached", [&] { log.push_back("u"); })
                       .label("end")
                       .build(h.node.program());
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  h.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
}

TEST(Machine, SleepsWhenIdleAndWakes) {
  Harness h;
  CodeId handler =
      CodeBuilder("handler", false).instr("a", [] {}).build(h.node.program());
  h.node.machine().register_handler(5, handler);
  EXPECT_TRUE(h.q.empty());  // an idle machine schedules no step
  h.raise_at(10, 5);
  h.q.run_all();
  // Woken by the raise at cycle 10 after the wake-up latency, then idle
  // again with no frame left.
  EXPECT_EQ(h.node.machine().interrupts_delivered(), 1u);
  EXPECT_EQ(h.node.machine().frame_depth(), 0u);
  EXPECT_EQ(h.node.take_trace().lifecycle.front().cycle, 10u + cost::kWakeup);
}

TEST(Machine, RegistrationPreconditions) {
  Harness h;
  auto& prog = h.node.program();
  CodeId handler = CodeBuilder("h", false).instr("a", [] {}).build(prog);
  CodeId task = CodeBuilder("t", true).instr("a", [] {}).build(prog);
  h.node.machine().register_handler(5, handler);
  EXPECT_THROW(h.node.machine().register_handler(5, handler),
               util::PreconditionError);
  EXPECT_THROW(h.node.machine().register_handler(6, task),
               util::PreconditionError);
  EXPECT_THROW(h.node.machine().raise_irq(7), util::PreconditionError);
}

TEST(Machine, PostFromTaskRunsAfterIt) {
  Harness h;
  auto& prog = h.node.program();
  std::vector<std::string> log;
  // Forward-declared id: register follower first.
  CodeId follower_code = CodeBuilder("follower", true)
                             .instr("f", [&] { log.push_back("follower"); })
                             .build(prog);
  trace::TaskId follower = h.node.kernel().register_task(follower_code);
  CodeId starter_code = CodeBuilder("starter", true)
                            .instr("s",
                                   [&] {
                                     log.push_back("starter");
                                     h.node.kernel().post(follower);
                                   })
                            .build(prog);
  trace::TaskId starter = h.node.kernel().register_task(starter_code);
  CodeId handler = CodeBuilder("handler", false)
                       .instr("post", [&] { h.node.kernel().post(starter); })
                       .build(prog);
  h.node.machine().register_handler(5, handler);
  h.raise_at(0, 5);
  NodeTrace t = h.run();
  EXPECT_EQ(log, (std::vector<std::string>{"starter", "follower"}));
  EXPECT_EQ(compact(t), "int(5) post(1) reti run(1) post(0) run(0)");
}

}  // namespace
}  // namespace sent::mcu

// Dispatch-loop unit tests for the bytecode interpreter core (DESIGN.md
// §12): every Op the builder can emit, backward branches, the branch-to-end
// rewrite, unresolved-label errors, and the typed-vs-host trace-parity
// guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/node.hpp"
#include "util/assert.hpp"

namespace sent::mcu {
namespace {

using os::Node;
using trace::NodeTrace;

std::vector<std::string> executed_names(const NodeTrace& t) {
  std::vector<std::string> names;
  for (const auto& e : t.instrs) names.push_back(t.instr_table[e.instr].name);
  return names;
}

struct Harness {
  sim::EventQueue q;
  Node node{0, q};

  /// Build, register on line 5, raise at cycle 0, run to completion.
  NodeTrace run(CodeBuilder& b) {
    CodeId id = b.build(node.program());
    node.machine().register_handler(5, id);
    q.schedule_at(0, [this] { node.machine().raise_irq(5); });
    q.run_all();
    return node.take_trace();
  }
};

// ------------------------------------------------------------- flag ops

TEST(BytecodeOps, SetFlagAndBranchOnIt) {
  Harness h;
  bool flag = false;
  CodeBuilder b("h", false);
  b.set_flag("set", flag, true)
      .branch_if_flag("taken", flag, true, "skip")
      .instr("dead", [] { FAIL() << "branch not taken"; })
      .label("skip")
      .branch_if_flag("not_taken", flag, false, "end")
      .set_flag("clear", flag, false)
      .label("end");
  NodeTrace t = h.run(b);
  EXPECT_FALSE(flag);
  EXPECT_EQ(executed_names(t),
            (std::vector<std::string>{"set", "taken", "not_taken", "clear"}));
}

TEST(BytecodeOps, RetIfFlagReturnsEarly) {
  Harness h;
  bool flag = true;
  int after = 0;
  CodeBuilder b("h", false);
  b.ret_if_flag("guard", flag, true).instr("after", [&] { ++after; });
  h.run(b);
  EXPECT_EQ(after, 0);
}

// -------------------------------------------------------------- u32 ops

TEST(BytecodeOps, AddSetU32AndWrapDecrement) {
  Harness h;
  std::uint32_t a = 0, b32 = 5;
  CodeBuilder b("h", false);
  b.add_u32("inc", a, 7)
      .set_u32("set", a, 100)
      .add_u32("dec", b32, 0xFFFFFFFFu);  // wrapping decrement
  h.run(b);
  EXPECT_EQ(a, 100u);
  EXPECT_EQ(b32, 4u);
}

TEST(BytecodeOps, BranchIfU32AllComparisons) {
  Harness h;
  std::uint32_t v = 10;
  std::vector<int> hits;
  CodeBuilder b("h", false);
  b.branch_if_u32("eq", v, Cmp::Eq, 10, "l1")
      .instr("d1", [&] { hits.push_back(-1); })
      .label("l1")
      .branch_if_u32("ne", v, Cmp::Ne, 11, "l2")
      .instr("d2", [&] { hits.push_back(-2); })
      .label("l2")
      .branch_if_u32("lt", v, Cmp::Lt, 11, "l3")
      .instr("d3", [&] { hits.push_back(-3); })
      .label("l3")
      .branch_if_u32("ge", v, Cmp::Ge, 10, "l4")
      .instr("d4", [&] { hits.push_back(-4); })
      .label("l4")
      .instr("alive", [&] { hits.push_back(1); });
  h.run(b);
  EXPECT_EQ(hits, (std::vector<int>{1}));  // every branch taken
}

TEST(BytecodeOps, RetIfU32StopsOnThreshold) {
  Harness h;
  std::uint32_t v = 3;
  int after = 0;
  CodeBuilder b("h", false);
  b.ret_if_u32("guard", v, Cmp::Lt, 4).instr("after", [&] { ++after; });
  h.run(b);
  EXPECT_EQ(after, 0);
}

TEST(BytecodeOps, MemMemCompareReadsBothOperands) {
  Harness h;
  std::uint32_t i = 0, n = 3, body = 0;
  CodeBuilder b("h", false);
  b.label("top")
      .branch_if_u32_ge("done", i, n, "out")  // i >= n exits the loop
      .add_u32("work", body, 1)
      .add_u32("inc", i, 1)
      .jump("again", "top")
      .label("out");
  h.run(b);
  EXPECT_EQ(body, 3u);
  std::uint32_t x = 5, y = 5;
  int after = 0;
  CodeBuilder b2("h2", false);
  // A branch to the end label is emitted as the return form.
  b2.branch_if_u32_ge("guard", x, y, "end")
      .instr("after", [&] { ++after; })
      .label("end");
  CodeId id = b2.build(h.node.program());
  h.node.machine().register_handler(6, id);
  h.q.schedule_at(h.q.now() + 1, [&] { h.node.machine().raise_irq(6); });
  h.q.run_all();
  EXPECT_EQ(after, 0);  // 5 >= 5 returns early
}

// -------------------------------------------------------------- u16 ops

TEST(BytecodeOps, U16AddTruncatesAndMovCopies) {
  Harness h;
  std::uint16_t a = 0xFFFE, dst = 0, src = 1234;
  CodeBuilder b("h", false);
  b.add_u16("inc", a, 5)             // 0xFFFE + 5 wraps to 3
      .mov_u16("mov", dst, src)
      .add_u16("dec", src, 0xFFFF);  // decrement; dst keeps the old value
  h.run(b);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(dst, 1234u);
  EXPECT_EQ(src, 1233u);
}

// The Kernighan popcount kernel the case-study apps use: clear_lsb_u16 in
// a backward-branching loop, guarded by branch_if_u16.
TEST(BytecodeOps, ClearLsbPopcountLoop) {
  Harness h;
  std::uint16_t v = 0b1011'0100'1000'0001;  // 6 set bits
  std::uint32_t iterations = 0;
  CodeBuilder b("h", false);
  b.label("top")
      .branch_if_u16("done", v, Cmp::Eq, 0, "out")
      .clear_lsb_u16("step", v)
      .add_u32("count", iterations, 1)
      .jump("again", "top")
      .label("out");
  NodeTrace t = h.run(b);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(iterations, 6u);
  // 7 guard evaluations + 6 iterations of (step, count, jump).
  EXPECT_EQ(t.instrs.size(), 7u + 6u * 3u);
}

// u16 branches to the end label are emitted as the return forms.
TEST(BytecodeOps, RetIfU16EqAndNe) {
  Harness h;
  std::uint16_t v = 7;
  int after = 0;
  CodeBuilder b("h", false);
  b.branch_if_u16("ne_pass", v, Cmp::Ne, 7, "end")  // false: falls through
      .branch_if_u16("eq_stop", v, Cmp::Eq, 7, "end")
      .instr("after", [&] { ++after; })
      .label("end");
  NodeTrace t = h.run(b);
  EXPECT_EQ(after, 0);
  EXPECT_EQ(executed_names(t),
            (std::vector<std::string>{"ne_pass", "eq_stop"}));
}

// --------------------------------------------------------- control flow

TEST(BytecodeOps, BackwardBranchCountdownLoop) {
  Harness h;
  std::uint32_t n = 5, body = 0;
  CodeBuilder b("h", false);
  b.label("top")
      .branch_if_u32("done", n, Cmp::Eq, 0, "out")
      .add_u32("work", body, 1)
      .add_u32("dec", n, 0xFFFFFFFFu)
      .jump("back", "top")  // backward branch
      .label("out")
      .instr("tail", [] {});
  h.run(b);
  EXPECT_EQ(body, 5u);
  EXPECT_EQ(n, 0u);
}

// A branch whose label binds at the end of the object is rewritten to a
// return op at build time; behaviour must match an explicit ret.
TEST(BytecodeOps, BranchToEndActsAsReturn) {
  Harness h;
  std::uint32_t v = 1;
  int after = 0;
  CodeBuilder b("h", false);
  b.branch_if_u32("exit", v, Cmp::Eq, 1, "end")
      .instr("after", [&] { ++after; })
      .label("end");
  NodeTrace t = h.run(b);
  EXPECT_EQ(after, 0);
  EXPECT_EQ(executed_names(t), (std::vector<std::string>{"exit"}));
}

TEST(BytecodeOps, UnresolvedLabelThrowsForTypedBranches) {
  Harness h;
  std::uint32_t v = 0;
  std::uint16_t w = 0;
  bool f = false;
  {
    CodeBuilder b("bad_u32", false);
    b.branch_if_u32("b", v, Cmp::Eq, 0, "nowhere");
    EXPECT_THROW(b.build(h.node.program()), util::PreconditionError);
  }
  {
    CodeBuilder b("bad_u16", false);
    b.branch_if_u16("b", w, Cmp::Ne, 0, "nowhere");
    EXPECT_THROW(b.build(h.node.program()), util::PreconditionError);
  }
  {
    CodeBuilder b("bad_flag", false);
    b.branch_if_flag("b", f, true, "nowhere");
    EXPECT_THROW(b.build(h.node.program()), util::PreconditionError);
  }
  {
    CodeBuilder b("bad_memmem", false);
    b.branch_if_u32_ge("b", v, v, "nowhere");
    EXPECT_THROW(b.build(h.node.program()), util::PreconditionError);
  }
}

// ------------------------------------------------- typed-vs-host parity

// The same logic written with typed ops and with host closures must leave
// identical traces: same instruction names, costs, and cycle timestamps.
// (This is the guarantee that let the apps migrate to typed ops without
// perturbing any golden trace.)
TEST(BytecodeOps, TypedAndHostFormsTraceIdentically) {
  auto run_variant = [](bool typed) {
    Harness h;
    static bool flag;
    static std::uint32_t counter;
    static std::uint16_t enc;
    flag = false;
    counter = 0;
    enc = 0b1010;
    CodeBuilder b("h", false);
    if (typed) {
      b.ret_if_flag("guard", flag, true)
          .add_u32("count", counter, 1)
          .label("top")
          .branch_if_u16("done", enc, Cmp::Eq, 0, "out")
          .clear_lsb_u16("step", enc)
          .jump("loop", "top")
          .label("out")
          .set_flag("mark", flag, true);
    } else {
      b.ret_if("guard", [] { return flag; })
          .instr("count", [] { ++counter; })
          .label("top")
          .branch_if("done", [] { return enc == 0; }, "out")
          .instr("step", [] { enc &= static_cast<std::uint16_t>(enc - 1); })
          .jump("loop", "top")
          .label("out")
          .instr("mark", [] { flag = true; });
    }
    NodeTrace t = h.run(b);
    EXPECT_TRUE(flag);
    EXPECT_EQ(counter, 1u);
    return t;
  };
  NodeTrace typed = run_variant(true);
  NodeTrace host = run_variant(false);
  ASSERT_EQ(typed.instrs.size(), host.instrs.size());
  for (std::size_t i = 0; i < typed.instrs.size(); ++i) {
    EXPECT_EQ(typed.instrs[i].instr, host.instrs[i].instr);
    EXPECT_EQ(typed.instrs[i].cycle, host.instrs[i].cycle);
    EXPECT_EQ(typed.instr_table[typed.instrs[i].instr].name,
              host.instr_table[host.instrs[i].instr].name);
  }
}

}  // namespace
}  // namespace sent::mcu

#include <gtest/gtest.h>

#include "lifecycle_notation.hpp"
#include "trace/lifecycle.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace sent::trace {
namespace {

TEST(Lifecycle, ToStringFormats) {
  LifecycleItem i1{LifecycleKind::Int, 100, 5, 0};
  LifecycleItem i2{LifecycleKind::PostTask, 110, 2, 0};
  LifecycleItem i3{LifecycleKind::RunTask, 120, 2, 150};
  LifecycleItem i4{LifecycleKind::Reti, 115, 5, 0};
  EXPECT_EQ(to_string(i1), "int(5)@100");
  EXPECT_EQ(to_string(i2), "postTask(2)@110");
  EXPECT_EQ(to_string(i3), "runTask(2)@120...150");
  EXPECT_EQ(to_string(i4), "reti(5)@115");
}

TEST(Lifecycle, ParseCompactBasic) {
  auto seq = parse_compact("int(5) post(0) reti run(0)");
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0].kind, LifecycleKind::Int);
  EXPECT_EQ(seq[0].arg, 5u);
  EXPECT_EQ(seq[1].kind, LifecycleKind::PostTask);
  EXPECT_EQ(seq[1].arg, 0u);
  EXPECT_EQ(seq[2].kind, LifecycleKind::Reti);
  EXPECT_EQ(seq[3].kind, LifecycleKind::RunTask);
  // Cycles auto-assigned 0..3.
  for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(seq[i].cycle, i);
}

TEST(Lifecycle, ParseCompactAssignsTaskEndCycles) {
  auto seq = parse_compact("int(1) post(0) post(1) reti run(0) run(1)");
  // run(0) at cycle 4 ends when run(1) starts (cycle 5); run(1) ends at
  // sequence end + 1.
  EXPECT_EQ(seq[4].end_cycle, 5u);
  EXPECT_EQ(seq[5].end_cycle, 6u);
}

TEST(Lifecycle, CompactRoundTrip) {
  std::string text = "int(5) post(0) reti int(2) reti run(0) post(1) run(1)";
  auto seq = parse_compact(text);
  EXPECT_EQ(to_compact(seq), text);
}

TEST(Lifecycle, ParseRejectsGarbage) {
  EXPECT_THROW(parse_compact("bogus(1)"), util::PreconditionError);
  EXPECT_THROW(parse_compact("int"), util::PreconditionError);
  EXPECT_THROW(parse_compact("int(1"), util::PreconditionError);
}

TEST(Recorder, RecordsLifecycleInOrder) {
  Recorder rec(3);
  rec.on_int(10, 5);
  rec.on_post_task(12, 0);
  rec.on_reti(15, 5);
  std::size_t run_idx = rec.on_run_task(20, 0);
  rec.on_task_end(run_idx, 42);
  NodeTrace t = rec.take(100);
  EXPECT_EQ(t.node_id, 3u);
  EXPECT_EQ(t.run_end, 100u);
  ASSERT_EQ(t.lifecycle.size(), 4u);
  EXPECT_EQ(t.lifecycle[3].end_cycle, 42u);
}

TEST(Recorder, TaskEndPatchValidation) {
  Recorder rec(0);
  std::size_t idx = rec.on_run_task(5, 1);
  rec.on_task_end(idx, 9);
  // Patching twice is an internal error.
  EXPECT_THROW(rec.on_task_end(idx, 10), util::AssertionError);
  // Patching a non-RunTask item is a precondition error.
  rec.on_int(11, 2);
  EXPECT_THROW(rec.on_task_end(1, 12), util::PreconditionError);
  EXPECT_THROW(rec.on_task_end(99, 12), util::PreconditionError);
}

TEST(Recorder, RecordsInstructionStream) {
  Recorder rec(1);
  rec.on_instr(5, 0);
  rec.on_instr(9, 3);
  rec.on_instr(14, 0);
  NodeTrace t = rec.take(20);
  ASSERT_EQ(t.instrs.size(), 3u);
  EXPECT_EQ(t.executed(), 3u);
  EXPECT_EQ(t.instrs[1].cycle, 9u);
  EXPECT_EQ(t.instrs[1].instr, 3u);
}

TEST(Recorder, RecordsBugMarkers) {
  Recorder rec(1);
  rec.on_bug(77, "data-pollution");
  NodeTrace t = rec.take(100);
  ASSERT_EQ(t.bugs.size(), 1u);
  EXPECT_EQ(t.bugs[0].cycle, 77u);
  EXPECT_EQ(t.bugs[0].kind, "data-pollution");
}

TEST(Recorder, InstrTableCarriedIntoTrace) {
  Recorder rec(1);
  rec.set_instr_table({{"handler", "load", 8}, {"task", "send", 12}});
  NodeTrace t = rec.take(1);
  ASSERT_EQ(t.instr_table.size(), 2u);
  EXPECT_EQ(t.instr_table[0].code_object, "handler");
  EXPECT_EQ(t.instr_table[1].cycles, 12u);
}

}  // namespace
}  // namespace sent::trace

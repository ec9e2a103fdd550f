#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/anatomizer.hpp"
#include "fault/injector.hpp"
#include "golden.hpp"
#include "trace/serialize.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sent::trace {
namespace {

NodeTrace sample() {
  NodeTrace t;
  t.node_id = 7;
  t.run_end = 5000;
  t.instr_table = {{"handler", "a", 8}, {"task", "b", 12}};
  t.lifecycle = {{LifecycleKind::Int, 100, 5, 0},
                 {LifecycleKind::PostTask, 110, 0, 0},
                 {LifecycleKind::Reti, 120, 5, 0},
                 {LifecycleKind::RunTask, 130, 0, 180}};
  t.instrs = {{104, 0}, {140, 1}, {160, 1}};
  t.bugs = {{150, "data-pollution"}};
  return t;
}

bool traces_equal(const NodeTrace& a, const NodeTrace& b) {
  if (a.node_id != b.node_id || a.run_end != b.run_end) return false;
  if (a.instr_table.size() != b.instr_table.size()) return false;
  for (std::size_t i = 0; i < a.instr_table.size(); ++i) {
    if (a.instr_table[i].code_object != b.instr_table[i].code_object ||
        a.instr_table[i].name != b.instr_table[i].name ||
        a.instr_table[i].cycles != b.instr_table[i].cycles)
      return false;
  }
  if (a.lifecycle.size() != b.lifecycle.size()) return false;
  for (std::size_t i = 0; i < a.lifecycle.size(); ++i) {
    const auto& x = a.lifecycle[i];
    const auto& y = b.lifecycle[i];
    if (x.kind != y.kind || x.cycle != y.cycle || x.arg != y.arg)
      return false;
    if (x.kind == LifecycleKind::RunTask && x.end_cycle != y.end_cycle)
      return false;
  }
  if (a.instrs.size() != b.instrs.size()) return false;
  for (std::size_t i = 0; i < a.instrs.size(); ++i) {
    if (a.instrs[i].cycle != b.instrs[i].cycle ||
        a.instrs[i].instr != b.instrs[i].instr)
      return false;
  }
  if (a.bugs.size() != b.bugs.size()) return false;
  for (std::size_t i = 0; i < a.bugs.size(); ++i) {
    if (a.bugs[i].cycle != b.bugs[i].cycle ||
        a.bugs[i].kind != b.bugs[i].kind)
      return false;
  }
  return true;
}

std::string saved_text(const NodeTrace& t) {
  std::ostringstream out;
  save_trace(t, out);
  return out.str();
}

TEST(Serialize, RoundTripSmall) {
  NodeTrace original = sample();
  std::stringstream buffer;
  save_trace(original, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(original, restored));
}

TEST(Serialize, RoundTripEmptySections) {
  NodeTrace t;
  t.node_id = 1;
  t.run_end = 10;
  std::stringstream buffer;
  save_trace(t, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(t, restored));
}

TEST(Serialize, RoundTripRealScenarioTrace) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(result.relay_trace, restored));
}

TEST(Serialize, FormatIsHumanReadable) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  EXPECT_NE(text.find("SENTOMIST-TRACE v1"), std::string::npos);
  EXPECT_NE(text.find("node 7"), std::string::npos);
  EXPECT_NE(text.find("data-pollution"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST(Serialize, InstrStreamIsDeltaEncoded) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Cycles 104, 140, 160 encode as deltas 104, 36, 20.
  EXPECT_NE(text.find("104\t0"), std::string::npos);
  EXPECT_NE(text.find("36\t1"), std::string::npos);
  EXPECT_NE(text.find("20\t1"), std::string::npos);
}

TEST(Serialize, RejectsBadHeader) {
  std::stringstream buffer("GARBAGE v1\n");
  EXPECT_THROW(load_trace(buffer), MalformedTraceFile);
  std::stringstream v2("SENTOMIST-TRACE v2\n");
  EXPECT_THROW(load_trace(v2), MalformedTraceFile);
}

TEST(Serialize, RejectsTruncatedFile) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_trace(truncated), MalformedTraceFile);
}

TEST(Serialize, RejectsOutOfRangeInstructionId) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Corrupt an instruction id beyond the 2-entry table.
  auto pos = text.find("104\t0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "104\t9");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, RejectsMissingEndMarker) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  text.replace(text.rfind("end\n"), 4, "eof\n");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, RejectsNonNumericFields) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  auto pos = text.find("run_end 5000");
  text.replace(pos, 12, "run_end xyz5");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "sentomist_roundtrip.trace";
  save_trace_file(sample(), path);
  NodeTrace restored = load_trace_file(path);
  EXPECT_TRUE(traces_equal(sample(), restored));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/dir/x.trace"),
               util::PreconditionError);
  NodeTrace t = sample();
  EXPECT_THROW(save_trace_file(t, "/nonexistent/dir/x.trace"),
               util::PreconditionError);
}

// Loaded traces must be analyzable exactly like fresh ones.
TEST(Serialize, LoadedTraceAnalyzesIdentically) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  NodeTrace restored = load_trace(buffer);

  ::sent::core::Anatomizer original(result.relay_trace);
  ::sent::core::Anatomizer reloaded(restored);
  auto a = original.intervals_for(os::irq::kRadioSpi);
  auto b = reloaded.intervals_for(os::irq::kRadioSpi);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_cycle, b[i].start_cycle);
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle);
    EXPECT_EQ(a[i].task_count, b[i].task_count);
  }
}

// ---- error line numbers ---------------------------------------------------

// The strict loader names the 1-based line a parse fails on, so a corrupted
// multi-megabyte trace is debuggable.
TEST(SerializeErrors, MessagesCarryLineNumbers) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // sample() serializes: header(1) node(2) run_end(3) instr_table(4)
  // rows(5-6) lifecycle(7) rows(8-11) instrs(12) ...
  auto pos = text.find("run_end 5000");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "run_end xyz5");
  std::stringstream corrupted(text);
  try {
    load_trace(corrupted);
    FAIL() << "expected MalformedTraceFile";
  } catch (const MalformedTraceFile& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeErrors, EofNamesTheMissingLine) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  // Keep exactly the first 5 lines (through the first instr_table row).
  std::string text = buffer.str();
  std::size_t cut = 0;
  for (int i = 0; i < 5; ++i) cut = text.find('\n', cut) + 1;
  std::stringstream truncated(text.substr(0, cut));
  try {
    load_trace(truncated);
    FAIL() << "expected MalformedTraceFile";
  } catch (const MalformedTraceFile& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("EOF"), std::string::npos) << what;
  }
}

// ---- lenient loading (DESIGN.md §9) ---------------------------------------

TEST(SerializeLenient, CompleteTraceLoadsUnchanged) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  LenientLoadResult result = load_trace_lenient(buffer);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.error_line, 0u);
  EXPECT_TRUE(traces_equal(sample(), result.trace));
}

// Truncation at every possible byte offset must salvage without throwing —
// the exhaustive corpus the chaos bench's truncation fault draws from.
TEST(SerializeLenient, SalvagesEveryTruncationPoint) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  const std::string text = buffer.str();
  // Dropping only the final newline of "end\n" loses no records — that one
  // cut still parses as complete.
  {
    std::stringstream almost(text.substr(0, text.size() - 1));
    EXPECT_TRUE(load_trace_lenient(almost).complete);
  }
  for (std::size_t cut = 0; cut + 1 < text.size(); ++cut) {
    std::stringstream truncated(text.substr(0, cut));
    LenientLoadResult result = load_trace_lenient(truncated);
    EXPECT_FALSE(result.complete) << "cut=" << cut;
    EXPECT_GT(result.error_line, 0u) << "cut=" << cut;
    EXPECT_FALSE(result.error.empty()) << "cut=" << cut;
    // The salvaged prefix never claims more than the full trace has.
    EXPECT_LE(result.trace.lifecycle.size(), sample().lifecycle.size());
    EXPECT_LE(result.trace.instrs.size(), sample().instrs.size());
    // run_end covers every surviving record (anatomizer safety).
    for (const auto& item : result.trace.lifecycle) {
      EXPECT_LE(item.cycle, result.trace.run_end);
      EXPECT_LE(item.end_cycle, result.trace.run_end);
    }
    for (const auto& e : result.trace.instrs)
      EXPECT_LE(e.cycle, result.trace.run_end);
  }
}

TEST(SerializeLenient, SalvagedPrefixKeepsParsedRecords) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Cut just before the instrs section: lifecycle fully parsed.
  std::size_t pos = text.find("instrs ");
  ASSERT_NE(pos, std::string::npos);
  std::stringstream truncated(text.substr(0, pos));
  LenientLoadResult result = load_trace_lenient(truncated);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.trace.node_id, 7u);
  EXPECT_EQ(result.trace.lifecycle.size(), sample().lifecycle.size());
  EXPECT_TRUE(result.trace.instrs.empty());
}

// A corrupted byte mid-file salvages everything before the bad line.
TEST(SerializeLenient, SalvagesPrefixBeforeCorruption) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  auto pos = text.find("104\t0");  // first instr row
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1X4\t0");
  std::stringstream corrupted(text);
  LenientLoadResult result = load_trace_lenient(corrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.trace.lifecycle.size(), sample().lifecycle.size());
  EXPECT_TRUE(result.trace.instrs.empty());
  EXPECT_NE(result.error.find("bad number"), std::string::npos);
}

// The salvage must be consumable by the anatomizer end to end: a real
// scenario trace truncated mid-stream still yields intervals (dangling
// handlers close at run_end).
TEST(SerializeLenient, SalvagedRealTraceIsAnalyzable) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, (text.size() * 3) / 4));
  LenientLoadResult salvaged = load_trace_lenient(truncated);
  EXPECT_FALSE(salvaged.complete);
  ::sent::core::Anatomizer anatomizer(salvaged.trace);
  auto intervals = anatomizer.intervals_for(os::irq::kRadioSpi);
  EXPECT_FALSE(intervals.empty());
}

// ---- fuzz-ish robustness (seeded byte mutations) --------------------------

// Apply one random mutation drawn from the kinds a crashing node or a bad
// flash sector realistically produces: truncation, byte corruption, a
// spliced-in duplicate chunk, and whole-line deletion/duplication — plus
// the number forms a lax parser would accept or wrap (a sign, a space, a
// digit run past 2^64).
std::string mutate_once(std::string text, util::Rng& rng) {
  switch (rng.below(6)) {
    case 0:  // truncate at an arbitrary byte
      text.resize(static_cast<std::size_t>(rng.below(text.size() + 1)));
      break;
    case 1: {  // overwrite one byte with an arbitrary value
      if (text.empty()) break;
      text[rng.below(text.size())] = static_cast<char>(rng.below(256));
      break;
    }
    case 2: {  // splice a random chunk into a random position
      if (text.size() < 2) break;
      const std::size_t from = rng.below(text.size());
      const std::size_t len = rng.below(text.size() - from);
      const std::size_t to = rng.below(text.size());
      text.insert(to, text.substr(from, len));
      break;
    }
    case 3: {  // delete one whole line
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
      const std::size_t begin = starts[rng.below(starts.size())];
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      text.erase(begin, end - begin);
      break;
    }
    case 4: {  // duplicate one whole line in place
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
      const std::size_t begin = starts[rng.below(starts.size())];
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    case 5: {  // splice a sign, a space or an overlong digit run anywhere
      static const char* const kSplices[] = {"-", "+", " ",
                                             "99999999999999999999999"};
      text.insert(static_cast<std::size_t>(rng.below(text.size() + 1)),
                  kSplices[rng.below(4)]);
      break;
    }
  }
  return text;
}

/// The robustness contract: whatever the bytes, the lenient loader returns
/// (no crash, no hang), its salvage satisfies the NodeTrace invariants, and
/// the salvage survives a strict save/load round-trip losslessly.
void check_salvage(const std::string& mutated, const std::string& context) {
  LenientLoadResult result;
  std::stringstream in(mutated);
  ASSERT_NO_THROW(result = load_trace_lenient(in)) << context;

  const NodeTrace& t = result.trace;
  for (const auto& item : t.lifecycle) {
    EXPECT_LE(item.cycle, t.run_end) << context;
    EXPECT_LE(item.end_cycle, t.run_end) << context;
  }
  for (const auto& e : t.instrs) {
    EXPECT_LE(e.cycle, t.run_end) << context;
    if (!t.instr_table.empty()) {
      EXPECT_LT(e.instr, t.instr_table.size()) << context;
    }
  }

  std::stringstream out;
  ASSERT_NO_THROW(save_trace(t, out)) << context;
  NodeTrace reloaded;
  ASSERT_NO_THROW(reloaded = load_trace(out)) << context;
  EXPECT_TRUE(traces_equal(t, reloaded)) << context;
}

TEST(SerializeFuzz, MutatedSmallTracesNeverCrashAndSalvageRoundTrips) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  const std::string pristine = buffer.str();
  util::Rng rng(0xF022ED);
  for (int round = 0; round < 400; ++round) {
    std::string text = pristine;
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) text = mutate_once(text, rng);
    check_salvage(text, "round " + std::to_string(round));
  }
}

TEST(SerializeFuzz, MutatedRealTraceNeverCrashesAndSalvageRoundTrips) {
  apps::Case2Config config;
  config.seed = 11;
  config.run_seconds = 2.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  const std::string pristine = buffer.str();
  util::Rng rng(0xF022EE);
  for (int round = 0; round < 40; ++round) {
    std::string text = pristine;
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) text = mutate_once(text, rng);
    check_salvage(text, "real round " + std::to_string(round));
  }
}

// An undamaged trace run through the mutation harness with zero mutations
// stays complete — guards the harness itself against accidental damage.
TEST(SerializeFuzz, HarnessBaselineIsComplete) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  LenientLoadResult result = load_trace_lenient(buffer);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(traces_equal(sample(), result.trace));
}

// ---- hostile numbers and section counts ----------------------------------

// A minimal trace whose last line is `tail`: header, node, run_end and two
// empty sections, about 70 bytes in all.
std::string hostile(const std::string& tail) {
  return "SENTOMIST-TRACE v1\nnode 7\nrun_end 5\ninstr_table 0\n"
         "lifecycle 0\n" + tail + "\n";
}

LenientLoadResult lenient(const std::string& text) {
  LenientLoadResult result;
  EXPECT_NO_THROW(result = load_trace_lenient(text)) << text;
  return result;
}

// A signed count is a bad number, never 2^64-1 handed to vector::reserve
// (std::length_error past the salvage).
TEST(SerializeHostile, NegativeCountIsABadNumber) {
  const LenientLoadResult r = lenient(hostile("instrs -1"));
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.error, "malformed trace file: line 6: bad number in instrs");
}

// A count of 2^64-1 parses, but is not reserved (std::length_error).
TEST(SerializeHostile, MaxCountIsNotReserved) {
  const LenientLoadResult r = lenient(
      "SENTOMIST-TRACE v1\nnode 7\nrun_end 5\ninstr_table 0\n"
      "lifecycle 18446744073709551615\n");
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.error, "malformed trace file: line 6: EOF in lifecycle");
  EXPECT_EQ(r.trace.lifecycle.capacity(), 0u);
}

// A count of 4e10 rows allocates nothing (std::bad_alloc from reserve).
TEST(SerializeHostile, HugeCountDoesNotAllocate) {
  const LenientLoadResult r = lenient(hostile("instrs 40000000000"));
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.error, "malformed trace file: line 7: EOF in instrs");
  EXPECT_EQ(r.trace.instrs.capacity(), 0u);
}

// A count of 4e8 rows must not reserve 6.4 GB before reading a row: the
// reservation is bounded by the bytes left to parse.
TEST(SerializeHostile, LargeCountReservesOnlyWhatTheBytesCanHold) {
  const std::string rows = "5\t0\n6\t0\n";
  const LenientLoadResult r = lenient(hostile("instrs 400000000") + rows);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.trace.instrs.size(), 2u);
  EXPECT_LE(r.trace.instrs.capacity(), rows.size());
  EXPECT_EQ(r.error, "malformed trace file: line 9: EOF in instrs");
}

// Numbers are exactly the unsigned decimal digits save_trace writes: a
// leading space or sign, or a value past 2^64-1, is a bad number.
TEST(SerializeHostile, OnlyPlainDigitsAreNumbers) {
  const std::string text = saved_text(sample());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"node 7", "node  7"},          {"run_end 5000", "run_end +5000"},
      {"run_end 5000", "run_end -1"}, {"instrs 3", "instrs +3"},
      {"104\t0", "+104\t0"},          {"104\t0", "104\t 0"},
      {"I\t100\t5", "I\t-100\t5"},    {"R\t130\t0\t180", "R\t130\t0\t+180"},
      {"150\tdata", "-150\tdata"},
      {"run_end 5000", "run_end 99999999999999999999"}};
  for (const auto& [from, to] : cases) {
    std::string bad = text;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    const LenientLoadResult r = lenient(bad);
    EXPECT_FALSE(r.complete) << to;
    EXPECT_NE(r.error.find("bad number in"), std::string::npos)
        << to << ": " << r.error;
    std::istringstream strict(bad);
    EXPECT_THROW(load_trace(strict), MalformedTraceFile) << to;
  }
}

// ---- loading into a recycled buffer ---------------------------------------

// A buffer that held a larger trace, content and all, must load exactly
// like a fresh NodeTrace: same salvage, same error, same line.
void expect_same_as_fresh(const std::string& text, const NodeTrace& donor,
                          const std::string& context) {
  const LenientLoadResult fresh = load_trace_lenient(text);
  const LenientLoadResult reused = load_trace_lenient(text, donor);
  EXPECT_EQ(reused.complete, fresh.complete) << context;
  EXPECT_EQ(reused.error_line, fresh.error_line) << context;
  EXPECT_EQ(reused.error, fresh.error) << context;
  EXPECT_TRUE(traces_equal(reused.trace, fresh.trace)) << context;
  EXPECT_EQ(saved_text(reused.trace), saved_text(fresh.trace)) << context;
}

NodeTrace large_donor() {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  return apps::run_case2(config).relay_trace;
}

TEST(SerializeRecycled, MatchesFreshAtEveryTruncationPoint) {
  const NodeTrace donor = large_donor();
  const std::string text = saved_text(sample());
  ASSERT_GT(donor.instrs.size(), sample().instrs.size());
  for (std::size_t cut = 0; cut <= text.size(); ++cut)
    expect_same_as_fresh(text.substr(0, cut), donor,
                         "cut=" + std::to_string(cut));
}

TEST(SerializeRecycled, MatchesFreshUnderChaosPerturbation) {
  const NodeTrace donor = large_donor();
  apps::Case2Config config;
  config.seed = 11;
  config.run_seconds = 2.0;
  const std::string text = saved_text(apps::run_case2(config).relay_trace);
  fault::FaultPlan plan;
  plan.trace_truncate_prob = 0.5;
  plan.trace_corrupt_prob = 0.5;
  std::size_t incomplete = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng = util::Rng(seed).substream("trace-faults");
    const std::string perturbed =
        fault::FaultInjector::perturb_trace_text(text, plan, rng);
    incomplete += !load_trace_lenient(perturbed).complete;
    expect_same_as_fresh(perturbed, donor, "seed=" + std::to_string(seed));
  }
  EXPECT_GT(incomplete, 10u);  // the perturbations really broke traces
}

// ---- codec contract golden (tests/golden/trace_codec.txt) ----------------

// The codec's observable contract frozen as data: the exact bytes
// save_trace writes for the Fig-5 traces, and the lenient loader's outcome
// (completeness, error line and text, salvaged records) on the chaos
// ladder's perturbed case-II traces. Any codec rewrite must leave the
// fixture byte-identical. Regenerate after an intentional format change
// with:
//   SENT_UPDATE_GOLDEN=1 ./serialize_test --gtest_filter='*Golden*'

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void describe_save(std::ostream& os, const std::string& name,
                   const NodeTrace& t) {
  const std::string text = saved_text(t);
  os << "save " << name << " node=" << t.node_id << " bytes=" << text.size()
     << " fnv1a64=" << hex64(util::fnv1a64(text)) << '\n';
}

void describe_salvage(std::ostream& os, const std::string& name,
                      const std::string& text) {
  std::istringstream in(text);
  const LenientLoadResult loaded = load_trace_lenient(in);
  os << name << " complete=" << loaded.complete
     << " error_line=" << loaded.error_line
     << " fnv1a64=" << hex64(util::fnv1a64(saved_text(loaded.trace)))
     << " error=" << loaded.error << '\n';
}

std::string codec_contract() {
  std::ostringstream os;
  {
    apps::Case1Config config;  // golden_fig5_test's seed for Fig. 5(a)
    config.seed = 5;
    apps::Case1Result r = apps::run_case1(config);
    for (std::size_t i = 0; i < r.runs.size(); ++i)
      describe_save(os, "fig5a.run" + std::to_string(i),
                    r.runs[i].sensor_trace);
  }
  {
    apps::Case2Config config;  // Fig. 5(b)
    config.seed = 3;
    describe_save(os, "fig5b", apps::run_case2(config).relay_trace);
  }
  {
    apps::Case3Config config;  // Fig. 5(c)
    config.seed = 5;
    apps::Case3Result r = apps::run_case3(config);
    for (const NodeTrace& t : r.traces) describe_save(os, "fig5c", t);
  }
  // The chaos ladder's trace I/O leg, keyed exactly as the pooled case-II
  // runner keys it (pipeline/worker_pool.cpp).
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    apps::Case2Config config;
    config.seed = seed;
    config.faults = fault::FaultPlan::at_intensity(0.5);
    config.event_budget = 50000000;
    const NodeTrace trace = apps::run_case2(config).relay_trace;
    util::Rng rng = util::Rng(seed).substream("trace-faults");
    describe_salvage(os, "salvage II seed=" + std::to_string(seed),
                     fault::FaultInjector::perturb_trace_text(
                         saved_text(trace), config.faults, rng));
  }
  // Every cut and every single-byte corruption of the small trace, with
  // the garbage bytes perturb_trace_text writes: each section, row kind
  // and error message of the format at every offset.
  const std::string text = saved_text(sample());
  static constexpr char kGarbage[] = {'X', '*', '?', '!', '#'};
  for (std::size_t at = 0; at < text.size(); ++at) {
    describe_salvage(os, "cut at=" + std::to_string(at), text.substr(0, at));
    std::string corrupted = text;
    corrupted[at] = kGarbage[at % sizeof(kGarbage)];
    describe_salvage(os, "corrupt at=" + std::to_string(at), corrupted);
  }
  return os.str();
}

TEST(SerializeGolden, CodecContractMatchesFixture) {
  golden::check("trace_codec.txt", codec_contract());
}

}  // namespace
}  // namespace sent::trace

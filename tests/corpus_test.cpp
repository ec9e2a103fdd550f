// Property battery for the transient-bug corpus (DESIGN.md §16).
//
// The corpus's whole claim is that every variant's ground truth is derived
// from the trace, machine-checkable, and reproducible. Four properties pin
// that down for EVERY variant, at a per-variant golden seed chosen so the
// bug actually manifests:
//
//   1. the derived interval labels agree one-for-one with the analysis
//      pipeline's independent per-sample has_bug flags (coordinates and
//      count, not just count);
//   2. the unmutated baseline of the same spec produces zero markers and
//      zero labels;
//   3. regeerating the same (variant, seed) is bit-identical;
//   4. a sweep's JSON is byte-identical at --jobs 1 and --jobs 4 (test
//      names carry "Jobs" so tier1.sh can select them under TSan).
//
// The golden manifest (tests/golden/corpus_manifest.txt) freezes ids,
// taxonomy classes, parameters, and per-variant label digests; regenerate
// after an intentional corpus change with:
//   SENT_UPDATE_GOLDEN=1 ./corpus_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/world_arena.hpp"
#include "corpus/corpus.hpp"
#include "corpus/eval.hpp"
#include "golden.hpp"
#include "pipeline/sentomist.hpp"

namespace sent::corpus {
namespace {

// All per-variant tests run at run-scale 0.5 to stay fast under
// sanitizers; the golden seed is chosen so every variant still triggers.
constexpr double kRunScale = 0.5;

std::uint64_t golden_seed(const std::string& id) {
  // The one variant whose bug does not manifest at seed 5 under kRunScale.
  return id == "dis-torn-write-w12" ? 1 : 5;
}

const VariantRun& golden_run(const VariantSpec& spec) {
  static std::map<std::string, VariantRun> cache;
  auto it = cache.find(spec.id);
  if (it == cache.end())
    it = cache.emplace(spec.id, run_variant(spec, golden_seed(spec.id),
                                            kRunScale))
             .first;
  return it->second;
}

TEST(Corpus, ManifestHasTwelvePlusVariantsAcrossAllClasses) {
  const auto& corpus = builtin_corpus();
  EXPECT_GE(corpus.size(), 12u);
  std::map<BugClass, std::size_t> per_class;
  std::map<std::string, std::size_t> per_case;
  for (const VariantSpec& v : corpus) {
    ++per_class[v.bug_class];
    ++per_case[v.case_tag()];
    EXPECT_NE(find_variant(v.id), nullptr);
  }
  EXPECT_GE(per_class[BugClass::Atomicity], 2u);
  EXPECT_GE(per_class[BugClass::Ordering], 2u);
  EXPECT_GE(per_class[BugClass::SharedFlag], 2u);
  EXPECT_EQ(per_case.size(), 4u);  // all four applications covered
  EXPECT_EQ(find_variant("no-such-variant"), nullptr);
}

// Property 1: the corpus's independently derived labels and the pipeline's
// per-sample ground truth must be the SAME set of intervals.
TEST(Corpus, LabelsAgreeWithPipelineSamples) {
  for (const VariantSpec& spec : builtin_corpus()) {
    SCOPED_TRACE(spec.id);
    const VariantRun& vr = golden_run(spec);
    ASSERT_TRUE(vr.truth.triggered())
        << "golden seed no longer triggers " << spec.id;
    pipeline::AnalysisReport report =
        pipeline::analyze(vr.sim.analyzed.traces, vr.sim.analyzed.line);
    ASSERT_EQ(report.buggy_count(), vr.truth.labels.size());
    std::size_t next = 0;  // labels are in analysis-sample order
    for (const pipeline::Sample& s : report.samples) {
      if (!s.has_bug) continue;
      ASSERT_LT(next, vr.truth.labels.size());
      const IntervalLabel& label = vr.truth.labels[next++];
      EXPECT_EQ(label.node_id, s.node_id);
      EXPECT_EQ(label.run, s.run);
      EXPECT_EQ(label.seq_in_type, s.interval.seq_in_type);
      EXPECT_EQ(label.start_cycle, s.interval.start_cycle);
      EXPECT_EQ(label.end_cycle, s.interval.end_cycle);
      EXPECT_GE(label.marker_hits, 1u);
    }
    EXPECT_EQ(next, vr.truth.labels.size());
  }
}

// Property 2: stripping the mutation removes every marker and label.
TEST(Corpus, UnmutatedBaselineProducesZeroLabels) {
  for (const VariantSpec& spec : builtin_corpus()) {
    SCOPED_TRACE(spec.id);
    VariantRun base = run_variant(spec, golden_seed(spec.id), kRunScale,
                                  /*arena=*/nullptr, /*baseline=*/true);
    EXPECT_FALSE(base.truth.triggered());
    EXPECT_EQ(base.truth.marker_events, 0u);
    pipeline::AnalysisReport report =
        pipeline::analyze(base.sim.analyzed.traces, base.sim.analyzed.line);
    EXPECT_EQ(report.buggy_count(), 0u);
  }
}

// Property 3: generation is deterministic — rerunning the same
// (variant, seed) reproduces the ground truth byte for byte.
TEST(Corpus, RepeatedGenerationIsBitIdentical) {
  for (const VariantSpec& spec : builtin_corpus()) {
    SCOPED_TRACE(spec.id);
    const VariantRun& first = golden_run(spec);
    VariantRun again = run_variant(spec, golden_seed(spec.id), kRunScale);
    EXPECT_EQ(ground_truth_text(first.truth), ground_truth_text(again.truth));
    EXPECT_EQ(ground_truth_digest(first.truth),
              ground_truth_digest(again.truth));
  }
}

// A different seed must not silently reuse the same trace.
TEST(Corpus, DifferentSeedsDiffer) {
  const VariantSpec* spec = find_variant("fwd-busy-drop-i60");
  ASSERT_NE(spec, nullptr);
  VariantRun a = run_variant(*spec, 5, kRunScale);
  VariantRun b = run_variant(*spec, 6, kRunScale);
  EXPECT_NE(ground_truth_text(a.truth), ground_truth_text(b.truth));
}

// A sweep worker hands every trace of a run back to its arena exactly
// once, so the bank holds one buffer per node of the world (case III: 9)
// after every seed, each with the capacity a node grew. Banking a buffer
// twice, or banking moved-from ones, grows the bank to its cap and then
// frees real buffers, so later seeds regrow from empty ones.
TEST(Corpus, ArenaBankHoldsOneBufferPerNode) {
  const VariantSpec* spec = find_variant("ctp-stuck-p96");
  ASSERT_NE(spec, nullptr);
  apps::WorldArena arena;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    VariantRun vr = run_variant(*spec, seed, 0.25, &arena);
    arena.recycle_all(vr.sim.traces);  // as run_sweep does
    ASSERT_EQ(arena.banked_buffers(), 9u) << "seed " << seed;
    std::vector<trace::NodeTrace> banked;
    for (std::size_t i = 0; i < 9; ++i) banked.push_back(arena.take_buffer());
    for (const trace::NodeTrace& t : banked)
      EXPECT_GT(t.instrs.capacity(), 0u) << "seed " << seed;
    arena.recycle_all(banked);
  }
}

// Property 4: sweep metrics are schedule-independent. The name carries
// "Jobs" so scripts/tier1.sh can run exactly this under TSan.
TEST(CorpusJobs, SweepParallelMatchesSerialByteForByte) {
  std::vector<VariantSpec> specs;
  for (const char* id :
       {"osc-shared-buffer-d20", "fwd-busy-drop-i100", "ctp-stuck-p160"})
    specs.push_back(*find_variant(id));
  SweepOptions options;
  options.first_seed = 1;
  options.seeds = 2;
  options.run_scale = 0.25;
  options.threads = 1;
  const std::string serial = sweep_json(run_sweep(specs, options));
  options.threads = 4;
  const std::string parallel = sweep_json(run_sweep(specs, options));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"variants\""), std::string::npos);
}

// ---- golden manifest ------------------------------------------------------

std::string manifest_line(const VariantSpec& spec) {
  std::ostringstream os;
  os << spec.id << "|" << to_string(spec.bug_class) << "|"
     << spec.case_tag() << "|" << spec.marker << "|";
  bool first = true;
  for (const auto& [name, value] : spec.params()) {
    os << (first ? "" : ",") << name << "=" << value;
    first = false;
  }
  const VariantRun& vr = golden_run(spec);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(
                    ground_truth_digest(vr.truth)));
  os << "|seed=" << golden_seed(spec.id) << "|labels="
     << vr.truth.labels.size() << "|digest=" << digest;
  return os.str();
}

TEST(CorpusGolden, ManifestMatchesFixture) {
  std::ostringstream manifest;
  manifest << "# corpus manifest: id|class|case|marker|params|seed|labels|"
              "digest\n"
           << "# golden runs use run_scale " << kRunScale
           << "; regenerate with SENT_UPDATE_GOLDEN=1 ./corpus_test\n";
  for (const VariantSpec& spec : builtin_corpus())
    manifest << manifest_line(spec) << "\n";
  golden::check("corpus_manifest.txt", manifest.str());
}

}  // namespace
}  // namespace sent::corpus

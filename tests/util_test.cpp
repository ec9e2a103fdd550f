#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sent::util {
namespace {

// ---------------------------------------------------------------- assert

TEST(Assert, AssertThrowsAssertionError) {
  EXPECT_THROW(SENT_ASSERT(false), AssertionError);
  EXPECT_NO_THROW(SENT_ASSERT(true));
}

TEST(Assert, RequireThrowsPreconditionError) {
  EXPECT_THROW(SENT_REQUIRE(1 == 2), PreconditionError);
  EXPECT_NO_THROW(SENT_REQUIRE(1 == 1));
}

TEST(Assert, MessageIncludesExpressionAndText) {
  try {
    SENT_REQUIRE_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SubstreamIsDeterministicAndDoesNotAdvanceParent) {
  Rng parent(7);
  std::uint64_t before = Rng(7).next();
  Rng s1 = parent.substream("adc");
  Rng s2 = parent.substream("adc");
  EXPECT_EQ(s1.next(), s2.next());
  EXPECT_EQ(parent.next(), before);  // parent state untouched by substream
}

TEST(Rng, SubstreamsWithDifferentLabelsDiffer) {
  Rng parent(7);
  Rng a = parent.substream("radio");
  Rng b = parent.substream("timer");
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), PreconditionError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceEdges) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(Rng, ExponentialRequiresPositiveMean) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(3.0, 2.0));
  EXPECT_NEAR(mean(xs), 3.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

// ----------------------------------------------------------------- stats

TEST(Stats, MeanVarianceStddev) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyInputsAreZero) {
  std::vector<double> none;
  EXPECT_EQ(mean(none), 0.0);
  EXPECT_EQ(variance(none), 0.0);
  EXPECT_EQ(median(none), 0.0);
}

TEST(Stats, MedianOddEven) {
  std::vector<double> odd{3, 1, 2};
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsOutOfRange) {
  std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1), PreconditionError);
  EXPECT_THROW(percentile(xs, 101), PreconditionError);
}

TEST(Stats, Distances) {
  std::vector<double> a{0, 3};
  std::vector<double> b{4, 0};
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
}

TEST(Stats, DistanceSizeMismatchThrows) {
  std::vector<double> a{1, 2};
  std::vector<double> b{1};
  EXPECT_THROW(l2_distance(a, b), PreconditionError);
  EXPECT_THROW(dot(a, b), PreconditionError);
}

// ----------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "score"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"b", "-0.25"});
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, ToCsv) {
  Table t({"x", "y"});
  t.add_row({"1", "two,three"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,\"two,three\"\n");
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(1.23456, 2), "1.23");
  EXPECT_EQ(cell(-0.5, 4), "-0.5000");
  EXPECT_EQ(cell(42), "42");
}

// ------------------------------------------------------------------- cli

TEST(Cli, ParsesFlagsAndSwitches) {
  Cli cli;
  cli.add_flag("seed", "rng seed", "1");
  cli.add_flag("duration", "seconds", "10.5");
  cli.add_switch("verbose", "more output");
  const char* argv[] = {"prog", "--seed", "42", "--verbose",
                        "--duration=2.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("seed"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("duration"), 2.5);
  EXPECT_TRUE(cli.get_switch("verbose"));
}

TEST(Cli, DefaultsApplyWhenUnset) {
  Cli cli;
  cli.add_flag("seed", "rng seed", "7");
  cli.add_switch("verbose", "more output");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("seed"), 7);
  EXPECT_FALSE(cli.get_switch("verbose"));
}

TEST(Cli, UnknownFlagFails) {
  Cli cli;
  cli.add_flag("seed", "rng seed", "7");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, MissingValueFails) {
  Cli cli;
  cli.add_flag("seed", "rng seed", "7");
  const char* argv[] = {"prog", "--seed"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli;
  cli.add_flag("seed", "rng seed", "7");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage("prog").find("--seed"), std::string::npos);
}

}  // namespace
}  // namespace sent::util

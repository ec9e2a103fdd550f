#include <gtest/gtest.h>

#include <string>

#include "util/cli.hpp"

namespace sent::util {
namespace {

Cli make_cli() {
  Cli cli;
  cli.add_flag("jobs", "worker threads", "4");
  cli.add_flag("rate", "loss rate", "0.1");
  return cli;
}

TEST(Cli, ParsesValidNumbers) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=12", "--rate", "0.5"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("jobs"), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.5);
}

TEST(Cli, DefaultsParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("jobs"), 4);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.1);
}

// --jobs=abc used to escape as an uncaught std::invalid_argument from
// std::stoll and terminate; now it is a usage error naming the flag.
TEST(CliDeathTest, NonNumericIntIsUsageErrorNotAbort) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=abc"};
  ASSERT_TRUE(cli.parse(2, argv));  // lexically fine; typing is per-getter
  EXPECT_EXIT(cli.get_int("jobs"), ::testing::ExitedWithCode(2),
              "flag --jobs expects an integer, got 'abc'");
}

TEST(CliDeathTest, TrailingGarbageIsRejected) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=12x"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EXIT(cli.get_int("jobs"), ::testing::ExitedWithCode(2),
              "flag --jobs expects an integer");
}

// Count-like flags (--jobs, --seeds) go through get_nonneg_int: "--jobs -3"
// is a usage error, not a 2^64-sized thread pool after the size_t cast.
TEST(CliDeathTest, NegativeCountIsUsageError) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=-3"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("jobs"), -3);  // the plain getter still allows it
  EXPECT_EXIT(cli.get_nonneg_int("jobs"), ::testing::ExitedWithCode(2),
              "flag --jobs expects a non-negative integer, got '-3'");
}

// Counts whose consumer needs at least one (--runs, --top-k) go through
// get_positive_int: 0 is a usage error, not a failed precondition later.
TEST(CliDeathTest, ZeroCountIsUsageErrorForPositiveCounts) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=0"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_nonneg_int("jobs"), 0);  // a non-negative count allows it
  EXPECT_EXIT(cli.get_positive_int("jobs"), ::testing::ExitedWithCode(2),
              "flag --jobs expects a positive integer, got '0'");
  Cli one = make_cli();
  const char* argv_one[] = {"prog", "--jobs=1"};
  ASSERT_TRUE(one.parse(2, argv_one));
  EXPECT_EQ(one.get_positive_int("jobs"), 1);
}

TEST(Cli, NonnegIntAcceptsZeroAndPositive) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--jobs=0"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_nonneg_int("jobs"), 0);
}

TEST(CliDeathTest, NonNumericDoubleIsUsageError) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rate=fast"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EXIT(cli.get_double("rate"), ::testing::ExitedWithCode(2),
              "flag --rate expects a number, got 'fast'");
}

// NaN and infinities parse as doubles but are usage errors: a NaN floor
// compares false and would switch its gate off, an infinite duration
// overflows the cast to cycles.
TEST(CliDeathTest, NonFiniteDoubleIsUsageError) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    Cli cli = make_cli();
    const std::string arg = std::string("--rate=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EXIT(cli.get_double("rate"), ::testing::ExitedWithCode(2),
                "flag --rate expects a finite number")
        << value;
  }
}

TEST(CliDeathTest, SignedDoubleReadersRejectOutOfRange) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rate=0"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_nonneg_double("rate"), 0.0);
  EXPECT_EQ(cli.get_probability("rate"), 0.0);
  EXPECT_EXIT(cli.get_positive_double("rate"), ::testing::ExitedWithCode(2),
              "flag --rate expects a positive number, got '0'");
  Cli negative = make_cli();
  const char* argv_negative[] = {"prog", "--rate=-0.5"};
  ASSERT_TRUE(negative.parse(2, argv_negative));
  EXPECT_EXIT(negative.get_nonneg_double("rate"),
              ::testing::ExitedWithCode(2),
              "flag --rate expects a non-negative number, got '-0.5'");
  EXPECT_EXIT(negative.get_probability("rate"), ::testing::ExitedWithCode(2),
              "flag --rate expects a number in \\[0, 1\\], got '-0.5'");
}

TEST(CliDeathTest, ProbabilityAboveOneIsUsageError) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rate=2"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_positive_double("rate"), 2.0);
  EXPECT_EXIT(cli.get_probability("rate"), ::testing::ExitedWithCode(2),
              "flag --rate expects a number in \\[0, 1\\], got '2'");
  Cli one = make_cli();
  const char* argv_one[] = {"prog", "--rate=1"};
  ASSERT_TRUE(one.parse(2, argv_one));
  EXPECT_EQ(one.get_probability("rate"), 1.0);
}

// A duration must survive the simulator's cast to 64-bit cycles: past
// 2^64 cycles the cast overflows (--run-seconds 1e300 used to abort), and
// below one cycle it truncates to 0. Checked on a 1 kHz clock, so one
// cycle is 1 ms, in seconds and in milliseconds.
TEST(CliDeathTest, DurationOutsideCycleRangeIsUsageError) {
  auto read = [](const char* value, double units_per_second) {
    Cli cli;
    cli.add_flag("run-seconds", "run length", "1");
    const std::string arg = std::string("--run-seconds=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(cli.parse(2, argv));
    return cli.get_duration("run-seconds", 1000.0, units_per_second);
  };
  EXPECT_EQ(read("0.001", 1.0), 0.001);
  EXPECT_EQ(read("1", 1e3), 1.0);
  EXPECT_EQ(read("1.8e16", 1.0), 1.8e16);
  for (const char* value : {"1e300", "1.8446744073709552e16", "0.0009", "0",
                            "-1", "nan"}) {
    EXPECT_EXIT(read(value, 1.0), ::testing::ExitedWithCode(2),
                "flag --run-seconds expects a")
        << value;
  }
  EXPECT_EXIT(read("0.5", 1e3), ::testing::ExitedWithCode(2),
              "flag --run-seconds expects a duration of 1 to 2\\^64-1 "
              "clock cycles, got '0.5'");
}

}  // namespace
}  // namespace sent::util

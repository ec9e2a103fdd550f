// The golden-fixture step shared by the fixture tests.
//
// A test renders what it pins as text and hands it to golden::check(),
// which compares it with tests/golden/<name> line by line, so a failure
// names the first line that moved. Under SENT_UPDATE_GOLDEN=1 it writes the
// text over the fixture instead and skips the test; call it last. The test
// target defines SENT_GOLDEN_DIR (tests/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sent::golden {

inline void check(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SENT_GOLDEN_DIR) + "/" + name;
  if (std::getenv("SENT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (regenerate with SENT_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  std::istringstream want(expected.str()), got(actual);
  std::string w, g;
  for (std::size_t line = 1; std::getline(want, w); ++line) {
    ASSERT_TRUE(std::getline(got, g))
        << name << ": output ends before line " << line;
    ASSERT_EQ(g, w) << name << ": line " << line;
  }
  EXPECT_FALSE(std::getline(got, g)) << name << ": extra output: " << g;
  EXPECT_EQ(actual, expected.str()) << name;
}

}  // namespace sent::golden

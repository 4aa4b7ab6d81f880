// The PSTLB_* environment registry: accessor semantics, the unknown-variable
// (typo) detector, and the registry checked against the README table and
// the sources (PSTLB_SOURCE_DIR is the repository root).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "pstlb/env.hpp"

namespace pstlb::env {
namespace {

class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvVar() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvAccessors, UnsignedOr) {
  EXPECT_EQ(unsigned_or("PSTLB_TEST_UNSET_12345", 7u), 7u);
  {
    EnvVar v("PSTLB_TEST_U", "42");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 42u);
  }
  {
    EnvVar v("PSTLB_TEST_U", "");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 7u);
  }
  {
    EnvVar v("PSTLB_TEST_U", "banana");
    EXPECT_EQ(unsigned_or("PSTLB_TEST_U", 7u), 7u);
  }
}

TEST(EnvAccessors, Truthy) {
  EXPECT_FALSE(truthy("PSTLB_TEST_UNSET_12345"));
  {
    EnvVar v("PSTLB_TEST_T", "1");
    EXPECT_TRUE(truthy("PSTLB_TEST_T"));
  }
  {
    EnvVar v("PSTLB_TEST_T", "0");
    EXPECT_FALSE(truthy("PSTLB_TEST_T"));
  }
  {
    EnvVar v("PSTLB_TEST_T", "");
    EXPECT_FALSE(truthy("PSTLB_TEST_T"));
  }
}

TEST(EnvAccessors, StringOr) {
  EXPECT_EQ(string_or("PSTLB_TEST_UNSET_12345", "dflt"), "dflt");
  {
    EnvVar v("PSTLB_TEST_S", "trace.json");
    EXPECT_EQ(string_or("PSTLB_TEST_S", "dflt"), "trace.json");
  }
  {
    EnvVar v("PSTLB_TEST_S", "");
    EXPECT_EQ(string_or("PSTLB_TEST_S", "dflt"), "dflt");
  }
}

TEST(KnownVars, SortedAndCoversTheDocumentedKnobs) {
  // known_vars() must equal README.md's "Environment variables" table.
  std::ifstream readme(std::string(PSTLB_SOURCE_DIR) + "/README.md");
  std::vector<std::string> rows;
  bool in_section = false;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind('#', 0) == 0) { in_section = line == "### Environment variables"; }
    if (in_section && line.rfind("| `PSTLB_", 0) == 0) {
      rows.push_back(line.substr(3, line.find('`', 3) - 3));
    }
  }
  const auto& vars = known_vars();
  EXPECT_TRUE(std::is_sorted(vars.begin(), vars.end()));
  EXPECT_EQ(rows, std::vector<std::string>(vars.begin(), vars.end()));
}

TEST(KnownVars, EverySourceLiteralIsKnownAndEveryKnobIsRead) {
  // Every quoted "PSTLB_*" name under src/ and bench/ is registered, and
  // every registered knob is used outside the registry itself.
  const auto& vars = known_vars();
  const std::regex literal("\"(PSTLB_[A-Z0-9_]+)\"");
  std::set<std::string> used;
  for (const char* dir : {"/src", "/bench"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::string(PSTLB_SOURCE_DIR) + dir)) {
      const std::string path = entry.path().string();
      if (!path.ends_with(".cpp") && !path.ends_with(".hpp")) { continue; }
      std::ifstream in(path);
      const std::string text{std::istreambuf_iterator<char>(in), {}};
      for (std::sregex_iterator m(text.begin(), text.end(), literal), end; m != end; ++m) {
        const std::string name = (*m)[1].str();
        EXPECT_NE(std::find(vars.begin(), vars.end(), name), vars.end())
            << name << " in " << path << " is missing from known_vars()";
        if (!path.ends_with("pstlb/env.cpp")) { used.insert(name); }
      }
    }
  }
  for (const std::string_view var : vars) {
    EXPECT_EQ(used.count(std::string(var)), 1u) << var << " is registered but unused";
  }
}

TEST(CheckNames, KnownVariablesPass) {
  const auto unknown =
      check_names({"PSTLB_TRACE", "PSTLB_COUNTERS", "PSTLB_SIMD"});
  EXPECT_TRUE(unknown.empty());
}

TEST(CheckNames, NonPstlbNamesAreIgnored) {
  const auto unknown =
      check_names({"PATH", "HOME", "OMP_NUM_THREADS", "PSTL_NUM_THREADS"});
  EXPECT_TRUE(unknown.empty());
}

TEST(CheckNames, TypoGetsANearestMatchSuggestion) {
  const auto unknown = check_names({"PSTLB_TRCE"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].name, "PSTLB_TRCE");
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_TRACE");
}

TEST(CheckNames, CaseSlipStillSuggests) {
  const auto unknown = check_names({"PSTLB_Counters"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_COUNTERS");
}

TEST(CheckNames, FarFromEverythingGetsNoSuggestion) {
  const auto unknown = check_names({"PSTLB_ZZZZZZZZZZ"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_TRUE(unknown[0].suggestion.empty());
}

TEST(CheckNames, MixedListFlagsOnlyTheUnknowns) {
  const auto unknown = check_names(
      {"PSTLB_TRACE", "PSTLB_COUNTER", "HOME", "PSTLB_STATS", "PSTLB_TRACE_FIL"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0].name, "PSTLB_COUNTER");
  EXPECT_EQ(unknown[0].suggestion, "PSTLB_COUNTERS");
  EXPECT_EQ(unknown[1].name, "PSTLB_TRACE_FIL");
  EXPECT_EQ(unknown[1].suggestion, "PSTLB_TRACE_FILE");
}

}  // namespace
}  // namespace pstlb::env

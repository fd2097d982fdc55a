#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace cellscope {
namespace {

constexpr const char* kVar = "CELLSCOPE_TEST_ENV_COUNT";

std::size_t read_with(const char* spec, std::string* note = nullptr) {
  ::setenv(kVar, spec, 1);
  testing::internal::CaptureStderr();
  const std::size_t value = env_count(kVar, 42, 2, 9);
  const std::string err = testing::internal::GetCapturedStderr();
  if (note != nullptr) *note = err;
  ::unsetenv(kVar);
  return value;
}

TEST(EnvCount, UnsetOrEmptyIsTheSilentDefault) {
  ::unsetenv(kVar);
  EXPECT_EQ(env_count(kVar, 42, 2, 9), 42u);
  std::string note;
  EXPECT_EQ(read_with("", &note), 42u);
  EXPECT_EQ(note, "");
}

TEST(EnvCount, AcceptsDigitsInsideTheInclusiveRange) {
  std::string note;
  EXPECT_EQ(read_with("2", &note), 2u);
  EXPECT_EQ(note, "");
  EXPECT_EQ(read_with("9"), 9u);
  EXPECT_EQ(read_with("007"), 7u);
}

TEST(EnvCount, RejectsEverythingElseWithOneNoteNamingTheVariable) {
  for (const char* spec :
       {"1", "10", "-1", "+3", " 3", "3 ", "3x", "abc", "0x4", "4.0",
        "99999999999999999999999"}) {
    std::string note;
    EXPECT_EQ(read_with(spec, &note), 42u) << "'" << spec << "'";
    EXPECT_NE(note.find(kVar), std::string::npos) << "'" << spec << "'";
    EXPECT_EQ(note.find('\n'), note.size() - 1) << "'" << spec << "'";
  }
}

}  // namespace
}  // namespace cellscope

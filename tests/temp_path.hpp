// Per-test scratch file names. ctest runs every discovered gtest case as
// its own process, in parallel under -j, so a fixed name under TempDir()
// would be shared by concurrent tests. The name carries the running
// test's suite and name plus the pid, which no other live test shares.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace dls::testing {

/// TempDir()/<suite>.<test>.<pid>.<leaf>, e.g.
/// "/tmp/Cli.SolveEachMethod.4242.platform". Call from inside a test.
inline std::string temp_path(const std::string& leaf) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "." + info->name() +
         "." + std::to_string(::getpid()) + "." + leaf;
}

}  // namespace dls::testing

// Per-test scratch file paths. ctest runs every test as its own process, in
// parallel under -j, so a path shared by two tests lets one corrupt or
// delete the other's file mid-run. temp_path() keys the file on the running
// test's full gtest name plus the process id, so no two concurrently running
// tests (nor two runs of one test) ever share a path.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace skipweb::testing_support {

// TempDir()/skipweb_<suite>.<test>_<tag>_<pid>.snap, with every character a
// file name should not carry (the '/' of parameterized names) mapped to '_'.
// Removed on the way in, so build-or-restore tests start from a clean slate.
inline std::string temp_path(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = std::string(info->test_suite_name()) + "." + info->name() + "_" + tag;
  for (auto& c : stem) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-') c = '_';
  }
  const auto p = std::filesystem::path(::testing::TempDir()) /
                 ("skipweb_" + stem + "_" + std::to_string(::getpid()) + ".snap");
  std::error_code ec;
  std::filesystem::remove(p, ec);
  return p.string();
}

}  // namespace skipweb::testing_support

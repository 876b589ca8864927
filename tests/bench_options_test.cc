// Coverage for the bench harness's option parsing (bench/bench_common.h):
// the strict TryParseOptions behind every bench binary's command line,
// here with bench_fleet's flags (the shared ones plus --storm, --deadline
// and --cache).

#include "bench_common.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dqsched::bench {
namespace {

std::optional<BenchOptions> Parse(std::vector<std::string> args,
                                  std::string* error,
                                  double default_scale = 1.0) {
  std::vector<std::string> storage;
  storage.push_back("bench_test");
  for (std::string& a : args) storage.push_back(std::move(a));
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  return TryParseOptions(static_cast<int>(argv.size()), argv.data(),
                         default_scale,
                         TableFlags({kStormFlag, kDeadlineFlag, kCacheFlag}),
                         error);
}

TEST(BenchOptionsTest, DefaultsAreSane) {
  std::string error;
  const auto options = Parse({}, &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_DOUBLE_EQ(options->scale, 1.0);
  EXPECT_EQ(options->repeats, 1);
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->jobs, 0);  // 0 = hardware concurrency
  EXPECT_FALSE(options->csv);
  EXPECT_FALSE(options->walls);
  EXPECT_EQ(options->storm, wrapper::StormKind::kNone);
  EXPECT_DOUBLE_EQ(options->deadline_s, 0.0);
  EXPECT_EQ(options->cache, CacheMode::kCold);
}

TEST(BenchOptionsTest, DefaultScaleIsPerBench) {
  std::string error;
  const auto options = Parse({}, &error, 0.3);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_DOUBLE_EQ(options->scale, 0.3);
}

TEST(BenchOptionsTest, AcceptsEveryFlag) {
  std::string error;
  const auto options =
      Parse({"--scale=0.5", "--repeats=3", "--seed=7", "--jobs=4", "--csv",
             "--walls", "--storm=cascade", "--deadline=40", "--cache=warm"},
            &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_DOUBLE_EQ(options->scale, 0.5);
  EXPECT_EQ(options->repeats, 3);
  EXPECT_EQ(options->seed, 7u);
  EXPECT_EQ(options->jobs, 4);
  EXPECT_TRUE(options->csv);
  EXPECT_TRUE(options->walls);
  EXPECT_EQ(options->storm, wrapper::StormKind::kCascadingSlowdown);
  EXPECT_DOUBLE_EQ(options->deadline_s, 40.0);
  EXPECT_EQ(options->cache, CacheMode::kWarm);
}

TEST(BenchOptionsTest, JobsZeroIsExplicitlyAllowed) {
  std::string error;
  const auto options = Parse({"--jobs=0"}, &error);
  ASSERT_TRUE(options.has_value()) << error;
  EXPECT_EQ(options->jobs, 0);
}

TEST(BenchOptionsTest, RejectsUnknownFlag) {
  std::string error;
  EXPECT_FALSE(Parse({"--bogus=1"}, &error).has_value());
  EXPECT_NE(error.find("--bogus=1"), std::string::npos);
}

TEST(BenchOptionsTest, RejectsGarbageValues) {
  std::string error;
  EXPECT_FALSE(Parse({"--jobs=two"}, &error).has_value());
  EXPECT_FALSE(Parse({"--jobs=3x"}, &error).has_value());
  EXPECT_FALSE(Parse({"--jobs="}, &error).has_value());
  EXPECT_FALSE(Parse({"--jobs=-2"}, &error).has_value());
  EXPECT_FALSE(Parse({"--scale=fast"}, &error).has_value());
  EXPECT_FALSE(Parse({"--repeats=1.5"}, &error).has_value());
  EXPECT_FALSE(Parse({"--seed=-1"}, &error).has_value());
  // Non-finite numbers parse with strtod but are no values.
  EXPECT_FALSE(Parse({"--scale=nan"}, &error).has_value());
  EXPECT_FALSE(Parse({"--scale=inf"}, &error).has_value());
  EXPECT_FALSE(Parse({"--deadline=nan"}, &error).has_value());
  EXPECT_FALSE(Parse({"--deadline=inf"}, &error).has_value());
  EXPECT_FALSE(Parse({"--storm=hurricane"}, &error).has_value());
  EXPECT_FALSE(Parse({"--cache=hot"}, &error).has_value());
  EXPECT_FALSE(Parse({"--csv=1"}, &error).has_value());
}

TEST(BenchOptionsTest, RejectsOutOfRangeValues) {
  std::string error;
  EXPECT_FALSE(Parse({"--scale=0"}, &error).has_value());
  EXPECT_FALSE(Parse({"--scale=-1"}, &error).has_value());
  EXPECT_FALSE(Parse({"--repeats=0"}, &error).has_value());
  // Integers that do not fit their field are rejected, not truncated.
  EXPECT_FALSE(Parse({"--repeats=4294967297"}, &error).has_value());
  EXPECT_FALSE(Parse({"--jobs=4294967296"}, &error).has_value());
  EXPECT_FALSE(Parse({"--seed=18446744073709551616"}, &error).has_value());
  EXPECT_FALSE(Parse({"--scale=1e999"}, &error).has_value());
  EXPECT_FALSE(Parse({"--deadline=-1"}, &error).has_value());
  EXPECT_FALSE(Parse({"--deadline=1e300"}, &error).has_value());
}

}  // namespace
}  // namespace dqsched::bench

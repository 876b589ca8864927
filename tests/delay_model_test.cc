#include "wrapper/delay_model.h"

#include <gtest/gtest.h>

#include <limits>

namespace dqsched::wrapper {
namespace {

double SampleMeanUs(DelayModel& model, int64_t n, uint64_t seed = 1) {
  Rng rng(seed);
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(model.NextDelay(i, rng));
  }
  return total / static_cast<double>(n) / 1e3;
}

TEST(DelayModel, ConstantIsExact) {
  DelayConfig config;
  config.kind = DelayKind::kConstant;
  config.mean_us = 15.0;
  auto model = MakeDelayModel(config);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model->NextDelay(i, rng), Microseconds(15.0));
  }
  EXPECT_DOUBLE_EQ(model->MeanDelayNs(), 15000.0);
}

TEST(DelayModel, UniformMatchesPaperDistribution) {
  // Section 5.1.3: delay uniform in [0, 2w], mean w.
  DelayConfig config;
  config.kind = DelayKind::kUniform;
  config.mean_us = 20.0;
  auto model = MakeDelayModel(config);
  Rng rng(2);
  double max_seen = 0;
  for (int i = 0; i < 50000; ++i) {
    const double d = static_cast<double>(model->NextDelay(i, rng));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 40000.0);
    max_seen = std::max(max_seen, d);
  }
  EXPECT_GT(max_seen, 38000.0);  // the full range is actually used
  EXPECT_NEAR(SampleMeanUs(*model, 50000), 20.0, 0.5);
}

TEST(DelayModel, InitialDelayHitsOnlyFirstTuple) {
  DelayConfig config;
  config.kind = DelayKind::kInitial;
  config.mean_us = 10.0;
  config.initial_delay_ms = 500.0;
  auto model = MakeDelayModel(config);
  Rng rng(3);
  EXPECT_GE(model->NextDelay(0, rng), Milliseconds(500.0));
  for (int i = 1; i < 100; ++i) {
    EXPECT_LT(model->NextDelay(i, rng), Milliseconds(1.0));
  }
}

TEST(DelayModel, InitialDelayExpectedTotal) {
  DelayConfig config;
  config.kind = DelayKind::kInitial;
  config.mean_us = 10.0;
  config.initial_delay_ms = 100.0;
  auto model = MakeDelayModel(config);
  EXPECT_NEAR(model->ExpectedTotalNs(1000),
              100e6 + 1000 * 10e3, 1.0);
  EXPECT_DOUBLE_EQ(model->ExpectedTotalNs(0), 0.0);
}

TEST(DelayModel, BurstyInsertsGaps) {
  DelayConfig config;
  config.kind = DelayKind::kBursty;
  config.mean_us = 5.0;
  config.burst_length = 100;
  config.burst_gap_ms = 10.0;
  auto model = MakeDelayModel(config);
  Rng rng(4);
  int long_gaps = 0;
  for (int i = 1; i <= 1000; ++i) {
    if (model->NextDelay(i, rng) > Milliseconds(0.5)) ++long_gaps;
  }
  // Every 100th tuple waits out an exponential(10ms) burst gap; a couple
  // of draws may fall under the 0.5 ms detection threshold.
  EXPECT_GE(long_gaps, 8);
  EXPECT_LE(long_gaps, 10);
}

TEST(DelayModel, BurstyMeanAccountsForGaps) {
  DelayConfig config;
  config.kind = DelayKind::kBursty;
  config.mean_us = 5.0;
  config.burst_length = 1000;
  config.burst_gap_ms = 10.0;
  auto model = MakeDelayModel(config);
  // 5 us + 10 ms / 1000 = 15 us.
  EXPECT_NEAR(model->MeanDelayNs(), 15000.0, 1.0);
  EXPECT_NEAR(SampleMeanUs(*model, 100000), 15.0, 2.0);
}

TEST(DelayModel, SlowScalesUniform) {
  DelayConfig config;
  config.kind = DelayKind::kSlow;
  config.mean_us = 20.0;
  config.slow_factor = 4.0;
  auto model = MakeDelayModel(config);
  EXPECT_NEAR(model->MeanDelayNs(), 80000.0, 1.0);
  EXPECT_NEAR(SampleMeanUs(*model, 50000), 80.0, 2.0);
}

TEST(DelayModel, ExpectedTotalDefaultsToMeanTimesN) {
  DelayConfig config;
  config.mean_us = 20.0;
  auto model = MakeDelayModel(config);
  EXPECT_DOUBLE_EQ(model->ExpectedTotalNs(1000), 1000 * 20e3);
}

TEST(DelayConfig, Validation) {
  DelayConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  DelayConfig bad = ok;
  bad.mean_us = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kBursty;
  bad.burst_length = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kSlow;
  bad.slow_factor = 0.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.initial_delay_ms = -1;
  EXPECT_FALSE(bad.Validate().ok());
  // NaN fails every check instead of reaching the models' integer casts.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = ok;
  bad.mean_us = nan;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kInitial;
  bad.initial_delay_ms = nan;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kBursty;
  bad.burst_gap_ms = nan;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kSlow;
  bad.slow_factor = nan;
  EXPECT_FALSE(bad.Validate().ok());
  // Finite durations whose nanoseconds overflow int64_t fail too; the
  // largest that fit pass.
  bad = ok;
  bad.mean_us = 1e16;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kInitial;
  bad.initial_delay_ms = 1e13;
  EXPECT_FALSE(bad.Validate().ok());
  bad.initial_delay_ms = 9e12;
  EXPECT_TRUE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kBursty;
  bad.burst_gap_ms = 1e13;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.kind = DelayKind::kSlow;
  bad.slow_factor = 1e15;
  EXPECT_FALSE(bad.Validate().ok());
  bad.slow_factor = 1e14;
  EXPECT_TRUE(bad.Validate().ok());
}

TEST(DelayKind, NamesAreStable) {
  EXPECT_STREQ(DelayKindName(DelayKind::kUniform), "uniform");
  EXPECT_STREQ(DelayKindName(DelayKind::kBursty), "bursty");
  EXPECT_STREQ(DelayKindName(DelayKind::kInitial), "initial");
  EXPECT_STREQ(DelayKindName(DelayKind::kSlow), "slow");
  EXPECT_STREQ(DelayKindName(DelayKind::kConstant), "constant");
}

}  // namespace
}  // namespace dqsched::wrapper

#include <gtest/gtest.h>

#include <limits>

#include "core/lwb.h"
#include "core/mediator.h"
#include "plan/canonical_plans.h"

namespace dqsched::core {
namespace {

TEST(Lwb, CpuTermDominatesAtFullSpeed) {
  // At w_min the mediator CPU work exceeds the slowest retrieval.
  auto setup = plan::PaperFigure5Query(0.2);
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        MediatorConfig{});
  ASSERT_TRUE(m.ok());
  const LwbBreakdown lwb = m->LowerBound();
  EXPECT_GT(lwb.cpu_total, lwb.max_retrieval);
  EXPECT_EQ(lwb.bound(), lwb.cpu_total);
}

TEST(Lwb, RetrievalTermDominatesWithSlowSource) {
  auto setup = plan::PaperFigure5Query(0.2);
  setup.catalog.sources[0].delay.mean_us = 500.0;  // slow A: 15s retrieval
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        MediatorConfig{});
  ASSERT_TRUE(m.ok());
  const LwbBreakdown lwb = m->LowerBound();
  EXPECT_GT(lwb.max_retrieval, lwb.cpu_total);
  // 30000 tuples * 500 us = 15 s.
  EXPECT_NEAR(ToSecondsF(lwb.max_retrieval), 15.0, 0.1);
}

TEST(Lwb, ScalesWithCardinality) {
  auto small = plan::PaperFigure5Query(0.05);
  auto large = plan::PaperFigure5Query(0.2);
  Result<Mediator> ms = Mediator::Create(std::move(small.catalog),
                                         std::move(small.plan),
                                         MediatorConfig{});
  Result<Mediator> ml = Mediator::Create(std::move(large.catalog),
                                         std::move(large.plan),
                                         MediatorConfig{});
  ASSERT_TRUE(ms.ok() && ml.ok());
  EXPECT_NEAR(static_cast<double>(ml->LowerBound().cpu_total) /
                  static_cast<double>(ms->LowerBound().cpu_total),
              4.0, 0.5);
}

TEST(Mediator, CreateValidatesConfig) {
  auto setup = plan::TinyTwoSourceQuery();
  MediatorConfig config;
  config.memory_budget_bytes = 0;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  config = MediatorConfig{};
  config.strategy.dqp.batch_size = 0;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  config = MediatorConfig{};
  config.cost.cpu_mips = -1;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  // Below 1 a fresh planning snapshot could signal a rate change.
  config = MediatorConfig{};
  config.comm.rate_change_ratio = 0.5;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  // NaN fails the checks instead of reaching an integer cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = MediatorConfig{};
  config.cost.cpu_mips = nan;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  config = MediatorConfig{};
  config.strategy.dqs.bmt = nan;
  EXPECT_FALSE(Mediator::Create(setup.catalog, setup.plan, config).ok());
  auto slowed = setup;
  slowed.catalog.sources[0].delay.kind = wrapper::DelayKind::kSlow;
  slowed.catalog.sources[0].delay.slow_factor = nan;
  EXPECT_FALSE(
      Mediator::Create(slowed.catalog, slowed.plan, MediatorConfig{}).ok());
  // A 1e18-ns mean fits int64, but the relation's total retrieval time
  // does not: the catalog check refuses it before the LWB casts it.
  auto long_total = setup;
  long_total.catalog.sources[0].delay.mean_us = 1e15;
  const Result<Mediator> overflow =
      Mediator::Create(long_total.catalog, long_total.plan, MediatorConfig{});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  // A per-run cache could never hit (epoch gating hides the run's own
  // admissions), so the mediator refuses one.
  config = MediatorConfig{};
  config.cache.enabled = true;
  const Result<Mediator> cached =
      Mediator::Create(setup.catalog, setup.plan, config);
  ASSERT_FALSE(cached.ok());
  EXPECT_EQ(cached.status().code(), StatusCode::kInvalidArgument);
}

TEST(Mediator, CreateValidatesPlan) {
  auto setup = plan::TinyTwoSourceQuery();
  plan::Plan empty;
  EXPECT_FALSE(Mediator::Create(setup.catalog, empty, MediatorConfig{}).ok());
}

TEST(Mediator, SameSeedSameWorkload) {
  auto s1 = plan::TinyTwoSourceQuery();
  auto s2 = plan::TinyTwoSourceQuery();
  MediatorConfig config;
  config.seed = 5;
  Result<Mediator> a = Mediator::Create(s1.catalog, s1.plan, config);
  Result<Mediator> b = Mediator::Create(s2.catalog, s2.plan, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->reference().result_card, b->reference().result_card);
  EXPECT_TRUE(a->reference().checksum == b->reference().checksum);
}

TEST(Mediator, DifferentSeedDifferentData) {
  auto s1 = plan::TinyTwoSourceQuery();
  MediatorConfig c1;
  c1.seed = 5;
  MediatorConfig c2;
  c2.seed = 6;
  Result<Mediator> a = Mediator::Create(s1.catalog, s1.plan, c1);
  Result<Mediator> b = Mediator::Create(s1.catalog, s1.plan, c2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->reference().checksum == b->reference().checksum);
}

TEST(Mediator, MetricsAreInternallyConsistent) {
  auto setup = plan::TinyTwoSourceQuery();
  Result<Mediator> m =
      Mediator::Create(setup.catalog, setup.plan, MediatorConfig{});
  ASSERT_TRUE(m.ok());
  Result<ExecutionMetrics> r = m->Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->response_time, r->busy_time + r->stalled_time);
  EXPECT_GT(r->planning_phases, 0);
  EXPECT_GT(r->execution_phases, 0);
  EXPECT_GT(r->peak_memory_bytes, 0);
  EXPECT_FALSE(r->ToString().empty());
}

TEST(Mediator, StrategyNamesStable) {
  EXPECT_STREQ(StrategyName(StrategyKind::kSeq), "SEQ");
  EXPECT_STREQ(StrategyName(StrategyKind::kDse), "DSE");
  EXPECT_STREQ(StrategyName(StrategyKind::kMa), "MA");
}

TEST(Mediator, MaUsesSynchronousIo) {
  EXPECT_TRUE(OptionsFor(StrategyKind::kDse).async_io);
  EXPECT_FALSE(OptionsFor(StrategyKind::kMa).async_io);
}

TEST(EventNames, Stable) {
  EXPECT_STREQ(EventKindName(EventKind::kEndOfQf), "EndOfQF");
  EXPECT_STREQ(EventKindName(EventKind::kRateChange), "RateChange");
  EXPECT_STREQ(EventKindName(EventKind::kTimeout), "TimeOut");
  EXPECT_STREQ(EventKindName(EventKind::kMemoryOverflow), "MemoryOverflow");
  EXPECT_STREQ(EventKindName(EventKind::kPlanExhausted), "PlanExhausted");
}

}  // namespace
}  // namespace dqsched::core

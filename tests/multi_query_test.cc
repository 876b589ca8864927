// Multi-query execution tests (paper Section 6 future work): shared vs
// serial interleaving, correctness of every query in the mix, and the
// throughput/response-time tradeoff's direction.

#include "core/multi_query.h"

#include <gtest/gtest.h>

#include "plan/canonical_plans.h"
#include "plan/query_generator.h"

namespace dqsched::core {
namespace {

std::vector<plan::QuerySetup> MixOfTinyQueries(int n) {
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < n; ++i) {
    mix.push_back(plan::TinyTwoSourceQuery(1500 + 400 * i, 1000 + 300 * i,
                                           /*mean_delay_us=*/20.0));
  }
  return mix;
}

MultiQueryConfig SmallConfig() {
  MultiQueryConfig config;
  config.seed = 11;
  return config;
}

TEST(MultiQuery, CreateValidates) {
  EXPECT_FALSE(MultiQueryMediator::Create({}, SmallConfig()).ok());
  MultiQueryConfig bad = SmallConfig();
  bad.slice_batches = 0;
  EXPECT_FALSE(MultiQueryMediator::Create(MixOfTinyQueries(2), bad).ok());
  // A zero batch size would spin the shared loop toward its livelock guard.
  bad = SmallConfig();
  bad.strategy.dqp.batch_size = 0;
  EXPECT_FALSE(MultiQueryMediator::Create(MixOfTinyQueries(2), bad).ok());
  bad = SmallConfig();
  bad.comm.rate_change_ratio = 0.5;
  EXPECT_FALSE(MultiQueryMediator::Create(MixOfTinyQueries(2), bad).ok());
  // Catalog fault schedules are a single-query-mediator feature; the mix
  // must refuse one instead of running the source fault-free.
  std::vector<plan::QuerySetup> faulty = MixOfTinyQueries(2);
  wrapper::FaultSpec death;
  death.kind = wrapper::FaultKind::kDeath;
  death.at_tuple = 500;
  faulty[1].catalog.sources[0].faults.events = {death};
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(std::move(faulty), SmallConfig());
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find(
                MixOfTinyQueries(2)[1].catalog.sources[0].relation.name),
            std::string::npos);
}

TEST(MultiQuery, MaIsRejected) {
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(MixOfTinyQueries(2), SmallConfig());
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->Execute(StrategyKind::kMa, MultiMode::kShared).ok());
}

TEST(MultiQuery, SharedDseCompletesAndVerifiesEveryQuery) {
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(MixOfTinyQueries(3), SmallConfig());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Result<MultiQueryMetrics> r =
      m->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->response_times.size(), 3u);
  for (SimDuration t : r->response_times) {
    EXPECT_GT(t, 0);
    EXPECT_LE(t, r->makespan);
  }
  EXPECT_GT(r->total_result_tuples, 0);
}

TEST(MultiQuery, SerialMatchesSumOfIndividualRuns) {
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(MixOfTinyQueries(2), SmallConfig());
  ASSERT_TRUE(m.ok());
  Result<MultiQueryMetrics> serial =
      m->Execute(StrategyKind::kDse, MultiMode::kSerial);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // Serial responses are cumulative and strictly increasing.
  EXPECT_LT(serial->response_times[0], serial->response_times[1]);
  EXPECT_EQ(serial->response_times[1], serial->makespan);
}

TEST(MultiQuery, SharedSeqCompletesToo) {
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(MixOfTinyQueries(3), SmallConfig());
  ASSERT_TRUE(m.ok());
  Result<MultiQueryMetrics> r =
      m->Execute(StrategyKind::kSeq, MultiMode::kShared);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->response_times.size(), 3u);
}

TEST(MultiQuery, SharingImprovesMakespanWhenSourcesAreSlow) {
  // Slow sources leave plenty of idle CPU per query: sharing should
  // overlap the retrievals and beat the serial makespan clearly.
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 3; ++i) {
    mix.push_back(plan::TinyTwoSourceQuery(3000, 2000,
                                           /*mean_delay_us=*/100.0));
  }
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(std::move(mix), SmallConfig());
  ASSERT_TRUE(m.ok());
  Result<MultiQueryMetrics> serial =
      m->Execute(StrategyKind::kDse, MultiMode::kSerial);
  Result<MultiQueryMetrics> shared =
      m->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(serial.ok() && shared.ok());
  EXPECT_LT(shared->makespan, serial->makespan);
}

TEST(MultiQuery, SerialWinsFirstQueryLatency) {
  // The classical tradeoff's other side: serially, query 0 gets the whole
  // mediator and finishes no later than under sharing.
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(MixOfTinyQueries(3), SmallConfig());
  ASSERT_TRUE(m.ok());
  Result<MultiQueryMetrics> serial =
      m->Execute(StrategyKind::kDse, MultiMode::kSerial);
  Result<MultiQueryMetrics> shared =
      m->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(serial.ok() && shared.ok());
  EXPECT_LE(serial->response_times[0], shared->response_times[0] * 1.05);
}

TEST(MultiQuery, DeterministicPerSeed) {
  Result<MultiQueryMediator> a =
      MultiQueryMediator::Create(MixOfTinyQueries(2), SmallConfig());
  Result<MultiQueryMediator> b =
      MultiQueryMediator::Create(MixOfTinyQueries(2), SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  Result<MultiQueryMetrics> ra =
      a->Execute(StrategyKind::kDse, MultiMode::kShared);
  Result<MultiQueryMetrics> rb =
      b->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->makespan, rb->makespan);
  EXPECT_EQ(ra->response_times, rb->response_times);
}

TEST(MultiQuery, MixedQueryShapes) {
  std::vector<plan::QuerySetup> mix;
  mix.push_back(plan::ChainThreeSourceQuery(10.0));
  mix.push_back(plan::TinyTwoSourceQuery(2000, 1500, 20.0));
  plan::GeneratorConfig gen;
  gen.num_sources = 4;
  gen.seed = 5;
  gen.min_cardinality = 500;
  gen.max_cardinality = 3000;
  Result<plan::QuerySetup> random = plan::GenerateBushyQuery(gen, false);
  ASSERT_TRUE(random.ok());
  mix.push_back(std::move(random.value()));

  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(std::move(mix), SmallConfig());
  ASSERT_TRUE(m.ok());
  for (MultiMode mode : {MultiMode::kSerial, MultiMode::kShared}) {
    Result<MultiQueryMetrics> r = m->Execute(StrategyKind::kDse, mode);
    ASSERT_TRUE(r.ok()) << MultiModeName(mode) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->response_times.size(), 3u);
  }
}

TEST(MultiQuery, ModeNamesStable) {
  EXPECT_STREQ(MultiModeName(MultiMode::kSerial), "serial");
  EXPECT_STREQ(MultiModeName(MultiMode::kShared), "shared");
}

}  // namespace
}  // namespace dqsched::core

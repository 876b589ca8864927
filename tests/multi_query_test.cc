// Multi-query execution tests (paper Section 6 future work): shared vs
// serial interleaving, correctness of every query in the mix, and the
// throughput/response-time tradeoff's direction.

#include "core/multi_query.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/shared_loop.h"
#include "exec/exec_context.h"
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
  // A zero batch size would spin the shared loop toward its livelock guard.
  MultiQueryConfig bad = SmallConfig();
  bad.strategy.dqp.batch_size = 0;
  EXPECT_FALSE(MultiQueryMediator::Create(MixOfTinyQueries(2), bad).ok());
  bad = SmallConfig();
  bad.comm.rate_change_ratio = 0.5;
  EXPECT_FALSE(MultiQueryMediator::Create(MixOfTinyQueries(2), bad).ok());
  // A queue that holds nothing is refused, not left to abort TupleQueue.
  bad = SmallConfig();
  bad.comm.queue_capacity = 0;
  Result<MultiQueryMediator> no_queue =
      MultiQueryMediator::Create(MixOfTinyQueries(2), bad);
  ASSERT_FALSE(no_queue.ok());
  EXPECT_EQ(no_queue.status().code(), StatusCode::kInvalidArgument);
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

TEST(MultiQuery, SharedModeFailsOnDeadSource) {
  // The mix has no lifecycle layer: with the detector armed, sources
  // silent for 2 s at start are declared dead and fail the whole run.
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 3; ++i) {
    mix.push_back(plan::TinyTwoSourceQuery(800, 1200));
    mix.back().catalog.sources[0].delay.kind = wrapper::DelayKind::kInitial;
    mix.back().catalog.sources[0].delay.initial_delay_ms = 2000.0;
  }
  MultiQueryConfig config = SmallConfig();
  config.comm.failure_detection = true;
  Result<MultiQueryMediator> m =
      MultiQueryMediator::Create(std::move(mix), config);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    Result<MultiQueryMetrics> r = m->Execute(kind, MultiMode::kShared);
    ASSERT_FALSE(r.ok()) << StrategyName(kind);
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << StrategyName(kind) << ": " << r.status().ToString();
  }
}

TEST(MultiQuery, ModeNamesStable) {
  EXPECT_STREQ(MultiModeName(MultiMode::kSerial), "serial");
  EXPECT_STREQ(MultiModeName(MultiMode::kShared), "shared");
}

TEST(SharedQueryLoop, RetireQueryDropsOnlyTheFinishedQuerysTemps) {
  // Three Figure-5 queries with A slowed share one context; DSE degrades
  // the chains A blocks, so each query writes MF temps. Retiring a query
  // at its completion drops every temp it created and none of a running
  // query's, and no retirement changes another query's answer.
  constexpr int kQueries = 3;
  const MultiQueryConfig config = SmallConfig();
  std::vector<PreparedQuery> queries;
  SourceId offset = 0;
  for (int qi = 0; qi < kQueries; ++qi) {
    plan::QuerySetup setup = plan::PaperFigure5Query(0.02);
    setup.catalog.sources[0].delay.mean_us = 200.0;  // slow down A 10x
    Result<PreparedQuery> q =
        PrepareQuery(std::move(setup.catalog), setup.plan, config.cost,
                     SeedPolicy::MixQuery(config.seed, qi, offset));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    for (plan::ChainInfo& chain : q->compiled.chains) chain.source += offset;
    offset += q->catalog.num_sources();
    queries.push_back(std::move(q.value()));
  }

  exec::ExecContext ctx(&config.cost, config.comm,
                        config.memory_budget_bytes);
  SharedQueryLoop loop(&ctx, SharedQueryLoop::Options{});
  for (int qi = 0; qi < kQueries; ++qi) {
    const PreparedQuery& q = queries[static_cast<size_t>(qi)];
    SharedQueryDesc desc;
    desc.compiled = &q.compiled;
    desc.source_lo = AddWrappers(
        ctx, q, SeedPolicy::MixQuery(config.seed, qi, ctx.comm.num_sources()),
        /*hold=*/false);
    desc.source_hi = ctx.comm.num_sources();
    loop.AddQuery(desc);
  }

  int retired = 0;
  size_t temps_retired = 0;
  size_t running_temps_seen = 0;
  while (loop.active() > 0) {
    Result<SharedQueryLoop::Turn> turn = loop.Step();
    ASSERT_TRUE(turn.ok()) << turn.status().ToString();
    if (turn->kind == SharedQueryLoop::Turn::Kind::kAllStarved) {
      ASSERT_NE(turn->stall_until, kSimTimeNever);
      ctx.clock.StallUntil(turn->stall_until);
      continue;
    }
    if (turn->kind != SharedQueryLoop::Turn::Kind::kQueryDone) continue;
    const int done = turn->query;
    loop.RetireQuery(done);
    ++retired;
    temps_retired += loop.state(done).owned_temps().size();
    for (int qi = 0; qi < kQueries; ++qi) {
      for (TempId t : loop.state(qi).owned_temps()) {
        EXPECT_EQ(ctx.temps.IsDropped(t), loop.done(qi))
            << "query " << qi << " temp " << t << " after query " << done
            << " retired";
        if (!loop.done(qi)) ++running_temps_seen;
      }
    }
    const exec::ResultCollector& result = loop.result(done);
    const Status answer = queries[static_cast<size_t>(done)].CheckAnswer(
        result.count(), result.checksum().value(),
        "query " + std::to_string(done));
    EXPECT_TRUE(answer.ok()) << answer.ToString();
  }
  EXPECT_EQ(retired, kQueries);
  // The mix degraded: there were MF temps to retire, and some query still
  // held temps when another one retired.
  EXPECT_GT(temps_retired, 0u);
  EXPECT_GT(running_temps_seen, 0u);
}

}  // namespace
}  // namespace dqsched::core

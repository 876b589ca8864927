// Serial-vs-bulk transport determinism: the bulk data plane (run pushes,
// span pops read in place from the relation, batched OnArrivals,
// event-indexed pumping) must be observationally identical to per-tuple
// delivery. Every strategy
// runs the paper's fig6/fig7 setups (one slowed medium relation A, one
// slowed small relation F) both ways; the full ExecutionMetrics and the
// result checksum must coincide field by field.

#include <gtest/gtest.h>

#include <utility>

#include "core/mediator.h"
#include "plan/canonical_plans.h"

namespace dqsched::core {
namespace {

MediatorConfig BaseConfig(bool serial) {
  MediatorConfig config;
  config.memory_budget_bytes = 64LL * 1024 * 1024;
  config.seed = 7;
  config.comm.serial_transport = serial;
  return config;
}

enum class Setup { kFig6SlowA, kFig7SlowF };

Mediator MakeMediator(Setup which, bool serial) {
  // 5% scale keeps the run fast while still crossing queue wraparound and
  // backpressure suspensions many times (queue capacity stays at 1024).
  plan::QuerySetup setup = plan::PaperFigure5Query(/*scale=*/0.05);
  const size_t slowed = which == Setup::kFig6SlowA ? 0 : 5;  // A or F
  setup.catalog.sources[slowed].delay.mean_us *= 8.0;
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        BaseConfig(serial));
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m.value());
}

void ExpectIdentical(const ExecutionMetrics& a, const ExecutionMetrics& b,
                     const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.stalled_time, b.stalled_time);
  EXPECT_EQ(a.result_count, b.result_count);
  EXPECT_EQ(a.result_checksum, b.result_checksum);
  EXPECT_EQ(a.planning_phases, b.planning_phases);
  EXPECT_EQ(a.execution_phases, b.execution_phases);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.cf_activations, b.cf_activations);
  EXPECT_EQ(a.dqo_splits, b.dqo_splits);
  EXPECT_EQ(a.operand_spills, b.operand_spills);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.rate_change_events, b.rate_change_events);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.disk.pages_read, b.disk.pages_read);
  EXPECT_EQ(a.disk.pages_written, b.disk.pages_written);
  EXPECT_EQ(a.disk.positionings, b.disk.positionings);
  EXPECT_EQ(a.disk.io_calls, b.disk.io_calls);
  EXPECT_EQ(a.disk.busy, b.disk.busy);
  EXPECT_EQ(a.network.tuples_received, b.network.tuples_received);
  EXPECT_EQ(a.network.messages_received, b.network.messages_received);
  EXPECT_EQ(a.network.receive_cpu, b.network.receive_cpu);
  EXPECT_EQ(a.temps.temps_created, b.temps.temps_created);
  EXPECT_EQ(a.temps.tuples_written, b.temps.tuples_written);
  EXPECT_EQ(a.temps.tuples_read, b.temps.tuples_read);
  EXPECT_EQ(a.temps.cache_served_reads, b.temps.cache_served_reads);
}

class TransportDeterminism : public ::testing::TestWithParam<Setup> {};

TEST_P(TransportDeterminism, AllStrategiesIdenticalSerialVsBulk) {
  Mediator bulk = MakeMediator(GetParam(), /*serial=*/false);
  Mediator serial = MakeMediator(GetParam(), /*serial=*/true);
  EXPECT_EQ(bulk.reference().checksum.value(),
            serial.reference().checksum.value());

  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    Result<ExecutionMetrics> rb = bulk.Execute(kind);
    Result<ExecutionMetrics> rs = serial.Execute(kind);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ExpectIdentical(*rb, *rs, StrategyName(kind));
  }

  Result<ExecutionMetrics> sb = bulk.ExecuteScrambling();
  Result<ExecutionMetrics> ss = serial.ExecuteScrambling();
  ASSERT_TRUE(sb.ok() && ss.ok());
  ExpectIdentical(*sb, *ss, "scrambling");

  Result<ExecutionMetrics> db = bulk.ExecuteDphj();
  Result<ExecutionMetrics> ds = serial.ExecuteDphj();
  ASSERT_TRUE(db.ok() && ds.ok());
  ExpectIdentical(*db, *ds, "dphj");
}

INSTANTIATE_TEST_SUITE_P(Setups, TransportDeterminism,
                         ::testing::Values(Setup::kFig6SlowA,
                                           Setup::kFig7SlowF),
                         [](const auto& info) {
                           return info.param == Setup::kFig6SlowA
                                      ? "Fig6SlowA"
                                      : "Fig7SlowF";
                         });

}  // namespace
}  // namespace dqsched::core

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
#include "expect_identical.h"
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

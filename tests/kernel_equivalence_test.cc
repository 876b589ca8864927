// Scalar-vs-vectorized kernel determinism: the batch-at-a-time kernels
// (position-array selections, two-pass probes, bulk sinks) must produce
// ExecutionMetrics byte-identical to the tuple-at-a-time reference
// kernels on every non-wall field — DESIGN §10's canonical-charge-order
// contract. Every strategy plus scrambling runs, under rate drift, on the
// paper's fig6/fig7 setups, a stacked-multi-filter variant, a variant
// with filters above joins and filters that keep every tuple, and a random
// bushy plan with one filter on every scan.

#include <gtest/gtest.h>

#include <utility>

#include "core/mediator.h"
#include "expect_identical.h"
#include "plan/canonical_plans.h"
#include "plan/query_generator.h"

namespace dqsched::core {
namespace {

enum class Setup {
  kFig6SlowA,
  kFig7SlowF,
  kStackedFiltersSlowA,
  kFiltersAboveJoinsSlowA,
  kOneFilterPerScanSlowR0,
};

MediatorConfig BaseConfig(bool scalar) {
  MediatorConfig config;
  config.memory_budget_bytes = 64LL * 1024 * 1024;
  config.seed = 7;
  config.kernels.scalar = scalar;
  return config;
}

// The fig5 query with filter stacks on A (build side of J1: a trailing
// two-term run delivered to an operand sink) and C (probe side of J5: a
// three-term run feeding a probe, the scalar kernels' fusion path).
plan::QuerySetup StackedFilterSetup(double scale) {
  plan::QuerySetup q = plan::PaperFigure5Query(scale);
  plan::Plan p;
  const NodeId scan_a = p.AddScan(0);
  const NodeId scan_b = p.AddScan(1);
  const NodeId scan_c = p.AddScan(2);
  const NodeId scan_d = p.AddScan(3);
  const NodeId scan_e = p.AddScan(4);
  const NodeId scan_f = p.AddScan(5);
  NodeId a = p.AddFilter(scan_a, 0.85);
  a = p.AddFilter(a, 0.6);
  NodeId c = p.AddFilter(scan_c, 0.9);
  c = p.AddFilter(c, 0.45);
  c = p.AddFilter(c, 0.7);
  const NodeId j1 = p.AddHashJoin(a, scan_b, /*build_field=*/0,
                                  /*probe_field=*/0);
  const NodeId j2 = p.AddHashJoin(j1, scan_f, /*build_field=*/1,
                                  /*probe_field=*/0);
  const NodeId j3 = p.AddHashJoin(scan_e, scan_d, /*build_field=*/0,
                                  /*probe_field=*/0);
  const NodeId j4 = p.AddHashJoin(j2, j3, /*build_field=*/1,
                                  /*probe_field=*/1);
  const NodeId j5 = p.AddHashJoin(j4, c, /*build_field=*/2,
                                  /*probe_field=*/0);
  p.SetRoot(j5);
  EXPECT_TRUE(p.Validate(q.catalog).ok());
  q.plan = std::move(p);
  return q;
}

// The fig5 query with filters where the kernels' selections differ from
// a plain scan filter: selectivity-1.0 filters that keep every tuple on A
// (trailing into an operand sink) and on D (feeding probe J3), and filters
// above joins, which compile in behind a probe — on J1's output (trailing
// into J2's operand sink), on J3's output (mid-chain, feeding probe J4)
// and on J5's output (trailing into the result sink).
plan::QuerySetup FiltersAboveJoinsSetup(double scale) {
  plan::QuerySetup q = plan::PaperFigure5Query(scale);
  plan::Plan p;
  const NodeId scan_a = p.AddScan(0);
  const NodeId scan_b = p.AddScan(1);
  const NodeId scan_c = p.AddScan(2);
  const NodeId scan_d = p.AddScan(3);
  const NodeId scan_e = p.AddScan(4);
  const NodeId scan_f = p.AddScan(5);
  const NodeId a = p.AddFilter(scan_a, 1.0);
  const NodeId d = p.AddFilter(scan_d, 1.0);
  const NodeId j1 = p.AddHashJoin(a, scan_b, /*build_field=*/0,
                                  /*probe_field=*/0);
  const NodeId j1f = p.AddFilter(j1, 0.6);
  const NodeId j2 = p.AddHashJoin(j1f, scan_f, /*build_field=*/1,
                                  /*probe_field=*/0);
  const NodeId j3 = p.AddHashJoin(scan_e, d, /*build_field=*/0,
                                  /*probe_field=*/0);
  const NodeId j3f = p.AddFilter(j3, 0.5);
  const NodeId j4 = p.AddHashJoin(j2, j3f, /*build_field=*/1,
                                  /*probe_field=*/1);
  const NodeId j5 = p.AddHashJoin(j4, scan_c, /*build_field=*/2,
                                  /*probe_field=*/0);
  p.SetRoot(p.AddFilter(j5, 0.7));
  EXPECT_TRUE(p.Validate(q.catalog).ok());
  q.plan = std::move(p);
  return q;
}

// A random bushy plan over six sources with a filter on every scan: each
// filter is a one-term run, feeding a probe (the scalar kernels' fused
// filter -> probe path) or an operand sink directly.
plan::QuerySetup OneFilterPerScanSetup() {
  plan::GeneratorConfig gen;
  gen.num_sources = 6;
  gen.min_cardinality = 1000;
  gen.max_cardinality = 10000;
  gen.filter_probability = 1.0;
  gen.seed = 5;
  Result<plan::QuerySetup> q =
      plan::GenerateBushyQuery(gen, /*use_optimizer=*/false);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q.value());
}

plan::QuerySetup SetupFor(Setup which) {
  switch (which) {
    case Setup::kStackedFiltersSlowA:
      return StackedFilterSetup(/*scale=*/0.05);
    case Setup::kFiltersAboveJoinsSlowA:
      return FiltersAboveJoinsSetup(/*scale=*/0.05);
    case Setup::kOneFilterPerScanSlowR0:
      return OneFilterPerScanSetup();
    default:
      return plan::PaperFigure5Query(/*scale=*/0.05);
  }
}

Mediator MakeMediator(Setup which, bool scalar) {
  // 5% scale, one slowed relation: rate drift triggers replanning (and on
  // the filtered setups, degradation of a chain with leading filters, so
  // the partial-run path through temp_skip_ops executes too).
  plan::QuerySetup setup = SetupFor(which);
  const size_t slowed = which == Setup::kFig7SlowF ? 5 : 0;  // F or A/R0
  setup.catalog.sources[slowed].delay.mean_us *= 8.0;
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        BaseConfig(scalar));
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m.value());
}

class KernelEquivalence : public ::testing::TestWithParam<Setup> {};

TEST_P(KernelEquivalence, AllStrategiesIdenticalAcrossKernelModes) {
  Mediator scalar = MakeMediator(GetParam(), /*scalar=*/true);
  Mediator vec = MakeMediator(GetParam(), /*scalar=*/false);
  EXPECT_EQ(scalar.reference().checksum.value(),
            vec.reference().checksum.value());

  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    Result<ExecutionMetrics> rs = scalar.Execute(kind);
    Result<ExecutionMetrics> rv = vec.Execute(kind);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_TRUE(rv.ok()) << rv.status().ToString();
    ExpectIdentical(*rs, *rv, StrategyName(kind));
  }

  Result<ExecutionMetrics> ss = scalar.ExecuteScrambling();
  Result<ExecutionMetrics> sv = vec.ExecuteScrambling();
  ASSERT_TRUE(ss.ok() && sv.ok());
  ExpectIdentical(*ss, *sv, "scrambling");
}

INSTANTIATE_TEST_SUITE_P(Setups, KernelEquivalence,
                         ::testing::Values(Setup::kFig6SlowA,
                                           Setup::kFig7SlowF,
                                           Setup::kStackedFiltersSlowA,
                                           Setup::kFiltersAboveJoinsSlowA,
                                           Setup::kOneFilterPerScanSlowR0),
                         [](const auto& info) {
                           switch (info.param) {
                             case Setup::kFig6SlowA:
                               return "Fig6SlowA";
                             case Setup::kFig7SlowF:
                               return "Fig7SlowF";
                             case Setup::kStackedFiltersSlowA:
                               return "StackedFiltersSlowA";
                             case Setup::kFiltersAboveJoinsSlowA:
                               return "FiltersAboveJoinsSlowA";
                             default:
                               return "OneFilterPerScanSlowR0";
                           }
                         });

}  // namespace
}  // namespace dqsched::core

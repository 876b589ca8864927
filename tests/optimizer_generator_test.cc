#include <gtest/gtest.h>

#include "plan/optimizer.h"
#include "plan/query_generator.h"

namespace dqsched::plan {
namespace {

wrapper::Catalog ThreeRelCatalog() {
  wrapper::Catalog catalog;
  const int64_t cards[] = {100000, 500, 40000};
  for (int i = 0; i < 3; ++i) {
    wrapper::SourceSpec s;
    s.relation.name = "R" + std::to_string(i);
    s.relation.cardinality = cards[i];
    catalog.sources.push_back(s);
  }
  return catalog;
}

TEST(Optimizer, SingleRelationIsAScan) {
  wrapper::Catalog catalog;
  wrapper::SourceSpec s;
  s.relation.name = "Solo";
  s.relation.cardinality = 10;
  catalog.sources.push_back(s);
  Result<Plan> plan = OptimizeBushy(catalog, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->ToString(catalog), "Solo");
}

TEST(Optimizer, ProducesValidPlan) {
  wrapper::Catalog catalog = ThreeRelCatalog();
  std::vector<JoinEdge> edges = {
      {0, 0, 1, 0, 1000},
      {1, 1, 2, 0, 400},
  };
  // Domains must be reflected in the catalog for downstream execution.
  catalog.source(0).relation.key_domain[0] = 1000;
  catalog.source(1).relation.key_domain[0] = 1000;
  catalog.source(1).relation.key_domain[1] = 400;
  catalog.source(2).relation.key_domain[0] = 400;
  Result<Plan> plan = OptimizeBushy(catalog, edges);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->Validate(catalog).ok());
}

TEST(Optimizer, PrefersSmallBuildSides) {
  // R1 (500 tuples) joins both big relations; the optimizer should avoid
  // building hash tables over the 100K relation when a cheap order exists.
  wrapper::Catalog catalog = ThreeRelCatalog();
  std::vector<JoinEdge> edges = {
      {0, 0, 1, 0, 100000},  // selective: |R0 x R1| ~ 500
      {1, 1, 2, 0, 500},     // |.. x R2| ~ 40000
  };
  catalog.source(0).relation.key_domain[0] = 100000;
  catalog.source(1).relation.key_domain[0] = 100000;
  catalog.source(1).relation.key_domain[1] = 500;
  catalog.source(2).relation.key_domain[0] = 500;
  Result<Plan> plan = OptimizeBushy(catalog, edges);
  ASSERT_TRUE(plan.ok());
  const double cost = EstimatePlanCost(*plan, catalog);
  // A right-deep alternative that probes with R2 last:
  Plan naive;
  const NodeId r0 = naive.AddScan(0);
  const NodeId r1 = naive.AddScan(1);
  const NodeId r2 = naive.AddScan(2);
  const NodeId j1 = naive.AddHashJoin(r1, r0, /*R1.f0*/ 0, /*R0.f0*/ 0);
  naive.SetRoot(naive.AddHashJoin(r2, j1, 0, /*carrier R0... */ 0));
  // The naive plan may not even be key-correct; only compare when valid.
  EXPECT_GT(cost, 0.0);
  EXPECT_LE(cost, 500.0 + 40000.0 + 1.0);  // DP should find the cheap order
}

TEST(Optimizer, RejectsNonTreeGraphs) {
  wrapper::Catalog catalog = ThreeRelCatalog();
  // Too few edges (disconnected).
  EXPECT_FALSE(OptimizeBushy(catalog, {{0, 0, 1, 0, 10}}).ok());
  // A cycle.
  std::vector<JoinEdge> cyclic = {
      {0, 0, 1, 0, 10}, {1, 1, 2, 0, 10}, {2, 1, 0, 1, 10}};
  EXPECT_FALSE(OptimizeBushy(catalog, cyclic).ok());
}

TEST(Optimizer, RejectsFieldReuse) {
  wrapper::Catalog catalog = ThreeRelCatalog();
  std::vector<JoinEdge> edges = {
      {0, 0, 1, 0, 10},
      {1, 0, 2, 0, 10},  // R1 field 0 used twice
  };
  EXPECT_FALSE(OptimizeBushy(catalog, edges).ok());
}

TEST(Optimizer, RejectsMoreThanTwentyRelations) {
  GeneratorConfig config;
  config.num_sources = 21;
  config.seed = 3;
  const GeneratedGraph graph = GenerateJoinGraph(config);
  Result<Plan> plan = OptimizeBushy(graph.catalog, graph.edges);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(Generator, JoinGraphIsSpanningTree) {
  GeneratorConfig config;
  config.num_sources = 8;
  config.seed = 3;
  const GeneratedGraph graph = GenerateJoinGraph(config);
  EXPECT_EQ(graph.edges.size(), 7u);
  EXPECT_EQ(graph.catalog.num_sources(), 8);
  EXPECT_TRUE(graph.catalog.Validate().ok());
}

TEST(Generator, OptimizerPipelineYieldsValidPlans) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorConfig config;
    config.num_sources = 6;
    config.seed = seed;
    Result<QuerySetup> setup = GenerateBushyQuery(config, /*use_optimizer=*/true);
    ASSERT_TRUE(setup.ok()) << "seed " << seed << ": "
                            << setup.status().ToString();
    EXPECT_TRUE(setup->plan.Validate(setup->catalog).ok()) << "seed " << seed;
  }
}

TEST(Generator, RandomShapePipelineYieldsValidPlans) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorConfig config;
    config.num_sources = 7;
    config.seed = seed;
    Result<QuerySetup> setup = GenerateBushyQuery(config, false);
    ASSERT_TRUE(setup.ok()) << "seed " << seed;
    EXPECT_TRUE(setup->plan.Validate(setup->catalog).ok()) << "seed " << seed;
  }
}

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig config;
  config.num_sources = 5;
  config.seed = 77;
  Result<QuerySetup> a = GenerateBushyQuery(config, false);
  Result<QuerySetup> b = GenerateBushyQuery(config, false);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->plan.ToString(a->catalog), b->plan.ToString(b->catalog));
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(a->catalog.source(s).relation.cardinality,
              b->catalog.source(s).relation.cardinality);
  }
}

TEST(Generator, CardinalitiesWithinConfiguredRange) {
  GeneratorConfig config;
  config.num_sources = 6;
  config.min_cardinality = 100;
  config.max_cardinality = 200;
  config.seed = 5;
  Result<QuerySetup> setup = GenerateBushyQuery(config, false);
  ASSERT_TRUE(setup.ok());
  for (const auto& s : setup->catalog.sources) {
    EXPECT_GE(s.relation.cardinality, 100);
    EXPECT_LE(s.relation.cardinality, 200);
  }
}

TEST(Generator, SingleSourceQuery) {
  GeneratorConfig config;
  config.num_sources = 1;
  Result<QuerySetup> setup = GenerateBushyQuery(config, false);
  ASSERT_TRUE(setup.ok());
  EXPECT_TRUE(setup->plan.Validate(setup->catalog).ok());
}

}  // namespace
}  // namespace dqsched::plan

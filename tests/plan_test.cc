#include "plan/plan_node.h"

#include <gtest/gtest.h>

#include <limits>

#include "plan/canonical_plans.h"

namespace dqsched::plan {
namespace {

wrapper::Catalog TwoSourceCatalog() {
  wrapper::Catalog catalog;
  for (const char* name : {"A", "B"}) {
    wrapper::SourceSpec s;
    s.relation.name = name;
    s.relation.cardinality = 100;
    catalog.sources.push_back(s);
  }
  return catalog;
}

TEST(Plan, BuildsSimpleJoin) {
  const auto catalog = TwoSourceCatalog();
  Plan plan;
  const NodeId a = plan.AddScan(0);
  const NodeId b = plan.AddScan(1);
  const NodeId j = plan.AddHashJoin(a, b, 0, 0);
  plan.SetRoot(j);
  EXPECT_TRUE(plan.Validate(catalog).ok());
  EXPECT_EQ(plan.size(), 3);
  EXPECT_EQ(plan.node(j).type, OpType::kHashJoin);
  EXPECT_EQ(plan.ToString(catalog), "HJ(A,B)");
}

TEST(Plan, FilterRendersSelectivity) {
  const auto catalog = TwoSourceCatalog();
  Plan plan;
  const NodeId a = plan.AddScan(0);
  plan.SetRoot(plan.AddFilter(a, 0.5));
  // Single-scan plan over source 0 only; source 1 unused is fine.
  EXPECT_TRUE(plan.Validate(catalog).ok());
  EXPECT_EQ(plan.ToString(catalog), "F0.50(A)");
}

TEST(PlanValidation, RejectsEmptyPlan) {
  Plan plan;
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsUnsetRoot) {
  Plan plan;
  plan.AddScan(0);
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsUnknownSource) {
  Plan plan;
  plan.SetRoot(plan.AddScan(7));
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsDoubleScanOfOneSource) {
  Plan plan;
  const NodeId a1 = plan.AddScan(0);
  const NodeId a2 = plan.AddScan(0);
  plan.SetRoot(plan.AddHashJoin(a1, a2, 0, 0));
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsSharedChild) {
  Plan plan;
  const NodeId a = plan.AddScan(0);
  const NodeId b = plan.AddScan(1);
  const NodeId j1 = plan.AddHashJoin(a, b, 0, 0);
  const NodeId j2 = plan.AddHashJoin(j1, b, 0, 0);  // b referenced twice
  plan.SetRoot(j2);
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsSelfJoinNode) {
  Plan plan;
  const NodeId a = plan.AddScan(0);
  plan.SetRoot(plan.AddHashJoin(a, a, 0, 0));
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsBadSelectivity) {
  Plan plan;
  plan.SetRoot(plan.AddFilter(plan.AddScan(0), 1.5));
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
  Plan nan_plan;
  nan_plan.SetRoot(nan_plan.AddFilter(
      nan_plan.AddScan(0), std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(nan_plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsKeyFieldOutOfRange) {
  Plan plan;
  const NodeId a = plan.AddScan(0);
  const NodeId b = plan.AddScan(1);
  plan.SetRoot(plan.AddHashJoin(a, b, storage::kTupleKeyFields, 0));
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(PlanValidation, RejectsDanglingNodes) {
  Plan plan;
  const NodeId a = plan.AddScan(0);
  plan.AddScan(1);  // orphan
  plan.SetRoot(a);
  EXPECT_FALSE(plan.Validate(TwoSourceCatalog()).ok());
}

TEST(CanonicalPlans, PaperFigure5Validates) {
  const QuerySetup q = PaperFigure5Query();
  EXPECT_TRUE(q.plan.Validate(q.catalog).ok());
  EXPECT_EQ(q.catalog.num_sources(), 6);
  EXPECT_EQ(q.plan.ToString(q.catalog), "HJ(HJ(HJ(HJ(A,B),F),HJ(E,D)),C)");
}

TEST(CanonicalPlans, ScalingAppliesToCardinalities) {
  const QuerySetup q = PaperFigure5Query(0.1);
  EXPECT_EQ(q.catalog.source(0).relation.cardinality, 15000);
  EXPECT_EQ(q.catalog.source(5).relation.cardinality, 1000);
}

TEST(CanonicalPlans, MediumAndSmallSizesMatchPaper) {
  // "4 medium size (100K-200K tuples) input relations and 2 small ones
  // (10K-20K tuples)".
  const QuerySetup q = PaperFigure5Query();
  int medium = 0, small = 0;
  for (const auto& s : q.catalog.sources) {
    const int64_t c = s.relation.cardinality;
    if (c >= 100000 && c <= 200000) ++medium;
    if (c >= 10000 && c < 100000) ++small;
  }
  EXPECT_EQ(medium, 4);
  EXPECT_EQ(small, 2);
}

TEST(CanonicalPlans, TinyAndChainValidate) {
  EXPECT_TRUE(
      TinyTwoSourceQuery().plan.Validate(TinyTwoSourceQuery().catalog).ok());
  const QuerySetup chain = ChainThreeSourceQuery();
  EXPECT_TRUE(chain.plan.Validate(chain.catalog).ok());
  EXPECT_EQ(chain.plan.ToString(chain.catalog), "HJ(A,HJ(B,C))");
}

TEST(Catalog, FindByName) {
  const QuerySetup q = PaperFigure5Query();
  EXPECT_EQ(q.catalog.Find("A"), 0);
  EXPECT_EQ(q.catalog.Find("F"), 5);
  EXPECT_EQ(q.catalog.Find("Z"), kInvalidId);
}

TEST(Catalog, ValidationRejectsDuplicatesAndBadValues) {
  wrapper::Catalog catalog = TwoSourceCatalog();
  catalog.sources[1].relation.name = "A";
  EXPECT_FALSE(catalog.Validate().ok());
  catalog = TwoSourceCatalog();
  catalog.sources[0].relation.cardinality = -1;
  EXPECT_FALSE(catalog.Validate().ok());
  catalog = TwoSourceCatalog();
  catalog.sources[0].relation.key_domain[2] = 0;
  EXPECT_FALSE(catalog.Validate().ok());
  EXPECT_FALSE(wrapper::Catalog{}.Validate().ok());
}

}  // namespace
}  // namespace dqsched::plan

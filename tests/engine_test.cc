// Engine-core tests: each driver's seed policy is pinned to the workload
// the baselines were recorded on, and the process-wide reference memo
// hands back the right answer for every generator input.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <utility>

#include "plan/canonical_plans.h"

namespace dqsched::core {
namespace {

Result<PreparedQuery> PrepareFigure5(const SeedPolicy& seeds) {
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  return PrepareQuery(std::move(setup.catalog), setup.plan, sim::CostModel{},
                      seeds);
}

// A later edit to the shared seed code must not silently change the
// workload: the baselines, and perfbench's copies of the mediator and
// fleet rows, depend on these exact answers.
TEST(Engine, SeedPoliciesPinEachDriversWorkload) {
  const SourceId n = plan::PaperFigure5Query(0.05).catalog.num_sources();
  struct Case {
    const char* driver;
    SeedPolicy seeds;
    int64_t result_card;
    uint64_t checksum;
  };
  const Case cases[] = {
      {"mediator", SeedPolicy::Mediator(42), 8921, 13008922677320698473ULL},
      {"multi-query query 1", SeedPolicy::MixQuery(42, 1, n), 10103,
       518068098434159350ULL},
      {"fleet template 1", SeedPolicy::Fleet(42, 1), 9078,
       16770964308822425350ULL},
  };
  for (const Case& c : cases) {
    Result<PreparedQuery> q = PrepareFigure5(c.seeds);
    ASSERT_TRUE(q.ok()) << c.driver << ": " << q.status().ToString();
    EXPECT_EQ(q->reference.result_card, c.result_card) << c.driver;
    EXPECT_EQ(q->reference.checksum.value(), c.checksum) << c.driver;
  }
  // Query 1's data seeds again, with rowid tags from 0: the checksum folds
  // rowids in, so a memo key that missed the tags would return the answer
  // above instead of this data's own.
  Result<PreparedQuery> q = PrepareFigure5(SeedPolicy::MixQuery(42, 1, 0));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->reference.checksum.value(),
            plan::ExecuteReference(q->compiled, q->data).checksum.value());
}

}  // namespace
}  // namespace dqsched::core

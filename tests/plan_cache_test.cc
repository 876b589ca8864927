// Incremental-plan-cache equivalence: a warm Dqs (carrying its plan cache
// across phases) must emit exactly the SchedulingPlan a cold Dqs computes
// from scratch on the same state — through rate drift, degradations, CF
// activations, fragment completions, and DQO memory splits (DESIGN.md §9).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/dqp.h"
#include "core/dqs.h"
#include "plan/canonical_plans.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void Init(plan::QuerySetup setup, int64_t memory = 64 << 20) {
    setup_ = std::move(setup);
    auto compiled = plan::Compile(setup_.plan, setup_.catalog);
    ASSERT_TRUE(compiled.ok());
    compiled_ = std::move(compiled.value());
    ASSERT_TRUE(plan::Annotate(&compiled_, setup_.catalog, cost_).ok());
    ctx_ = std::make_unique<exec::ExecContext>(&cost_, comm_config_, memory);
    data_.reserve(static_cast<size_t>(setup_.catalog.num_sources()));
    for (SourceId s = 0; s < setup_.catalog.num_sources(); ++s) {
      data_.push_back(storage::GenerateRelation(
          setup_.catalog.source(s).relation, s, Rng(s + 1)));
      ctx_->comm.AddSource(
          std::make_unique<wrapper::SimWrapper>(
              s, &data_.back(), setup_.catalog.source(s).delay, s + 11),
          static_cast<double>(cost_.MinWaitingTime()));
    }
    state_ = std::make_unique<ExecutionState>(&compiled_, ctx_.get(),
                                              ExecutionOptions{});
  }

  static void ExpectPlansIdentical(const SchedulingPlan& warm,
                                   const SchedulingPlan& cold, int phase) {
    ASSERT_EQ(warm.fragments, cold.fragments) << "planning phase " << phase;
    ASSERT_EQ(warm.critical_ns.size(), cold.critical_ns.size());
    for (size_t i = 0; i < warm.critical_ns.size(); ++i) {
      // Bitwise, not approximate: the cache claims byte-identity.
      EXPECT_EQ(warm.critical_ns[i], cold.critical_ns[i])
          << "phase " << phase << " priority " << i;
      EXPECT_EQ(std::signbit(warm.critical_ns[i]),
                std::signbit(cold.critical_ns[i]));
    }
  }

  /// Runs the single-query DSE loop with a warm scheduler, re-deriving
  /// every plan with a cold scheduler on the identical state. The cold
  /// call runs second: the warm call's state mutations (degradations, CF
  /// activations, splits) are idempotent fixed points by then, so both
  /// see the same state and comm estimates.
  void RunDseComparingWarmAndCold(Dqs& warm) {
    Dqp dqp{DqpConfig{}};
    Dqo dqo;
    int phase = 0;
    while (!state_->QueryDone()) {
      ASSERT_LT(++phase, 100000) << "livelock";
      SchedulingPlan warm_sp;
      const Status warm_st = warm.ComputePlan(*state_, *ctx_, dqo, &warm_sp);
      ASSERT_TRUE(warm_st.ok()) << warm_st.ToString();
      Dqs cold{DqsConfig{}};
      SchedulingPlan cold_sp;
      const Status cold_st = cold.ComputePlan(*state_, *ctx_, dqo, &cold_sp);
      ASSERT_TRUE(cold_st.ok()) << cold_st.ToString();
      ExpectPlansIdentical(warm_sp, cold_sp, phase);

      Result<Event> evt = dqp.RunPhase(*state_, warm_sp, *ctx_);
      ASSERT_TRUE(evt.ok()) << evt.status().ToString();
      switch (evt->kind) {
        case EventKind::kEndOfQf:
          state_->OnFragmentFinished(evt->fragment, *ctx_);
          break;
        case EventKind::kMemoryOverflow:
          ASSERT_TRUE(dqo.HandleMemoryOverflow(
                          *state_, *ctx_,
                          state_->FragmentChain(evt->fragment))
                          .ok());
          break;
        case EventKind::kRateChange:
        case EventKind::kTimeout:
        case EventKind::kPlanExhausted:
          break;  // replan
        default:
          FAIL() << "unexpected event " << EventKindName(evt->kind);
      }
    }
  }

  sim::CostModel cost_;
  comm::CommConfig comm_config_;
  plan::QuerySetup setup_;
  plan::CompiledPlan compiled_;
  std::vector<storage::Relation> data_;
  std::unique_ptr<exec::ExecContext> ctx_;
  std::unique_ptr<ExecutionState> state_;
};

TEST_F(PlanCacheTest, WarmMatchesColdThroughDegradationAndCompletion) {
  // The paper workload exercises every invalidation source: estimator
  // warm-up rate drift, four degradations, CF activations as ancestors
  // finish, and fragment completions down to the result chain.
  Init(plan::PaperFigure5Query(0.05));
  Dqs warm{DqsConfig{}};
  RunDseComparingWarmAndCold(warm);
  EXPECT_TRUE(state_->QueryDone());
  EXPECT_GE(state_->degradations(), 1);
  EXPECT_GE(state_->cf_activations(), 1);
  // The cache must actually have been exercised, not rebuilt every phase.
  EXPECT_GT(warm.incremental_replans(), 0);
  EXPECT_GT(warm.full_replans(), 0);
  EXPECT_EQ(warm.full_replans() + warm.incremental_replans(),
            warm.planning_phases());
}

TEST_F(PlanCacheTest, WarmMatchesColdThroughDqoSplits) {
  // 600 KB over ChainThreeSourceQuery forces DQO memory splits (see
  // MemoryOverflowRecoversViaDqoSplit); every split bumps the structural
  // version and must flush the candidate cache.
  Init(plan::ChainThreeSourceQuery(2.0), /*memory=*/600000);
  Dqs warm{DqsConfig{}};
  RunDseComparingWarmAndCold(warm);
  EXPECT_TRUE(state_->QueryDone());
  EXPECT_GE(state_->dqo_splits(), 1);
}

TEST_F(PlanCacheTest, RateDriftReplanIsServedIncrementally) {
  Init(plan::PaperFigure5Query(0.05));
  Dqs warm{DqsConfig{}};
  Dqp dqp{DqpConfig{}};
  Dqo dqo;
  // Phase 1 (cold by definition), then run until the first RateChange.
  SchedulingPlan sp;
  ASSERT_TRUE(warm.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
  EXPECT_EQ(warm.full_replans(), 1);
  int guard = 0;
  for (;;) {
    ASSERT_LT(++guard, 100000);
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kRateChange) break;
    ASSERT_NE(evt->kind, EventKind::kEndOfQf)
        << "query finished before any rate drift";
  }
  // The drift replan touches no structure: it must be incremental. (The
  // estimator warm-up typically degrades chains in the same call, which
  // bumps the structural version *inside* the phase — after the cache
  // check — so the phase itself still counts as incremental.)
  ASSERT_TRUE(warm.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
  EXPECT_EQ(warm.incremental_replans(), 1);
}

}  // namespace
}  // namespace dqsched::core

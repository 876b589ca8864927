// Invariant auditor tests: canonical plans and real executions pass every
// audit; hand-corrupted plans and states are rejected with a precise
// Status. Each corruption case targets one violation class of
// src/core/invariant_auditor.h.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dqp.h"
#include "core/dqs.h"
#include "core/invariant_auditor.h"
#include "plan/canonical_plans.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {
namespace {

using ::testing::Test;

/// Expects `status` failed and its message carries `needle`.
void ExpectRejected(const Status& status, const std::string& needle) {
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << "status was: " << status.ToString();
}

class InvariantAuditorTest : public Test {
 protected:
  void Init(plan::QuerySetup setup, int64_t memory = 64 << 20) {
    setup_ = std::move(setup);
    auto compiled = plan::Compile(setup_.plan, setup_.catalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
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

  /// One plan/execute/finish round; returns the plan for inspection.
  SchedulingPlan Round() {
    SchedulingPlan sp;
    const Status planned = dqs_.ComputePlan(*state_, *ctx_, dqo_, &sp);
    EXPECT_TRUE(planned.ok()) << planned.ToString();
    Result<Event> evt = dqp_.RunPhase(*state_, sp, *ctx_);
    EXPECT_TRUE(evt.ok()) << evt.status().ToString();
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
    return sp;
  }

  sim::CostModel cost_;
  comm::CommConfig comm_config_;
  plan::QuerySetup setup_;
  plan::CompiledPlan compiled_;
  std::vector<storage::Relation> data_;
  std::unique_ptr<exec::ExecContext> ctx_;
  std::unique_ptr<ExecutionState> state_;
  Dqs dqs_{DqsConfig{}};
  Dqp dqp_{DqpConfig{}};
  Dqo dqo_;
};

// ---------------------------------------------------------------------------
// Happy paths: everything the engine actually produces must audit clean.

TEST_F(InvariantAuditorTest, CanonicalPlansPass) {
  for (auto setup :
       {plan::TinyTwoSourceQuery(), plan::ChainThreeSourceQuery(),
        plan::PaperFigure5Query(0.02)}) {
    Init(std::move(setup));
    EXPECT_TRUE(AuditCompiledPlan(compiled_).ok());
  }
}

TEST_F(InvariantAuditorTest, FreshAndRunningStatePasses) {
  Init(plan::PaperFigure5Query(0.02));
  EXPECT_TRUE(AuditExecutionState(*state_, *ctx_).ok());
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 100000) {
    // Audit the plan while it is fresh — execution below may legitimately
    // finish (deactivate) fragments it scheduled.
    SchedulingPlan sp;
    const Status planned = dqs_.ComputePlan(*state_, *ctx_, dqo_, &sp);
    ASSERT_TRUE(planned.ok()) << planned.ToString();
    Status st = AuditAll(*state_, sp, *ctx_);
    ASSERT_TRUE(st.ok()) << st.ToString();
    Result<Event> evt = dqp_.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok()) << evt.status().ToString();
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
  }
  EXPECT_TRUE(state_->QueryDone());
  EXPECT_TRUE(AuditExecutionState(*state_, *ctx_).ok());
}

// ---------------------------------------------------------------------------
// Decomposition corruptions.

TEST_F(InvariantAuditorTest, RejectsFilterClaimedByTwoChains) {
  // Rebuild the tiny query with a filter on A's chain, then clone that
  // filter into B's chain: the decomposition is no longer a partition.
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  setup.plan = plan::Plan{};
  const NodeId scan_a = setup.plan.AddScan(0);
  const NodeId filt = setup.plan.AddFilter(scan_a, 0.5);
  const NodeId scan_b = setup.plan.AddScan(1);
  setup.plan.SetRoot(setup.plan.AddHashJoin(filt, scan_b, 0, 0));
  Init(std::move(setup));
  ASSERT_TRUE(AuditCompiledPlan(compiled_).ok());

  plan::ChainOp stolen;
  ChainId owner = kInvalidId;
  for (const plan::ChainInfo& info : compiled_.chains) {
    for (const plan::ChainOp& op : info.ops) {
      if (op.kind == plan::ChainOpKind::kFilter) {
        stolen = op;
        owner = info.id;
      }
    }
  }
  ASSERT_NE(owner, kInvalidId);
  const ChainId thief = owner == 0 ? 1 : 0;
  compiled_.chains[static_cast<size_t>(thief)].ops.push_back(stolen);
  ExpectRejected(AuditCompiledPlan(compiled_),
                 "operator partition violated: filter node");
}

TEST_F(InvariantAuditorTest, RejectsProbeClaimedByTwoChains) {
  Init(plan::PaperFigure5Query(0.02));
  // Move chain 0's content aside: find any probe op and clone it into a
  // different chain.
  plan::ChainOp stolen;
  ChainId owner = kInvalidId;
  for (const plan::ChainInfo& info : compiled_.chains) {
    for (const plan::ChainOp& op : info.ops) {
      if (op.kind == plan::ChainOpKind::kProbe) {
        stolen = op;
        owner = info.id;
      }
    }
  }
  ASSERT_NE(owner, kInvalidId);
  const ChainId thief = owner == 0 ? 1 : 0;
  compiled_.chains[static_cast<size_t>(thief)].ops.push_back(stolen);
  ExpectRejected(AuditCompiledPlan(compiled_),
                 "operator partition violated: probe of join");
}

TEST_F(InvariantAuditorTest, RejectsCyclicBlockingEdges) {
  // Synthetic decomposition where p0 and p1 block each other: p0 probes
  // the join p1 builds and vice versa. Every per-chain table is kept
  // self-consistent so only the acyclicity audit can catch it.
  plan::CompiledPlan bad;
  bad.num_joins = 2;
  bad.operand_of_join = {0, 1};
  bad.join_build_field = {0, 0};
  bad.result_chain = 2;
  bad.chains.resize(3);
  for (ChainId c = 0; c < 3; ++c) {
    bad.chains[static_cast<size_t>(c)].id = c;
    bad.chains[static_cast<size_t>(c)].name = std::string(1, 'x') +
                                              std::to_string(c);
  }
  bad.chains[0].sink_join = 0;
  bad.chains[1].sink_join = 1;
  bad.chains[2].is_result = true;
  plan::ChainOp probe1{plan::ChainOpKind::kProbe, 0, 1.0, /*join=*/1, 0};
  plan::ChainOp probe0{plan::ChainOpKind::kProbe, 1, 1.0, /*join=*/0, 0};
  bad.chains[0].ops = {probe1};
  bad.chains[0].blockers = {1};
  bad.chains[1].ops = {probe0};
  bad.chains[1].blockers = {0};
  ExpectRejected(AuditCompiledPlan(bad), "blocking edges form a cycle");
}

// ---------------------------------------------------------------------------
// Runtime-state corruptions.

TEST_F(InvariantAuditorTest, RejectsMemoryAccountantImbalance) {
  Init(plan::TinyTwoSourceQuery());
  ASSERT_TRUE(AuditExecutionState(*state_, *ctx_).ok());
  // A grant that no operand accounts for: 4 KB leak.
  ASSERT_TRUE(ctx_->memory.Grant(4096).ok());
  ExpectRejected(AuditExecutionState(*state_, *ctx_),
                 "memory balance violated");
  ctx_->memory.Release(4096);
  EXPECT_TRUE(AuditExecutionState(*state_, *ctx_).ok());
}

TEST_F(InvariantAuditorTest, RejectsTupleTheftAfterDegradation) {
  Init(plan::PaperFigure5Query(0.02));
  // Run until the scheduler has degraded at least one chain and some
  // source queue holds buffered tuples to steal.
  SourceId victim = kInvalidId;
  int guard = 0;
  while (++guard < 100000 && !state_->QueryDone()) {
    Round();
    if (state_->degradations() == 0) continue;
    for (SourceId s = 0; s < ctx_->comm.num_sources(); ++s) {
      if (ctx_->comm.queue(s).size() > 0) {
        victim = s;
        break;
      }
    }
    if (victim != kInvalidId) break;
  }
  ASSERT_NE(victim, kInvalidId);
  ASSERT_GE(state_->degradations(), 1);
  ASSERT_TRUE(AuditExecutionState(*state_, *ctx_).ok());

  // Pop one tuple behind the engine's back: it is gone from the queue but
  // no fragment consumed it.
  const_cast<comm::TupleQueue&>(ctx_->comm.queue(victim)).Pop(1);
  ExpectRejected(AuditExecutionState(*state_, *ctx_),
                 "tuple conservation violated for source " +
                     std::to_string(victim));
}

// ---------------------------------------------------------------------------
// Scheduling-plan corruptions.

TEST_F(InvariantAuditorTest, RejectsBlockedChainInPlan) {
  Init(plan::TinyTwoSourceQuery());
  // The probing chain waits for the build chain's operand, so it is not
  // C-schedulable at t=0.
  ChainId blocked = kInvalidId;
  for (ChainId c = 0; c < compiled_.num_chains(); ++c) {
    if (!state_->CSchedulable(c)) blocked = c;
  }
  ASSERT_NE(blocked, kInvalidId);
  SchedulingPlan sp;
  sp.fragments = {state_->ChainFragment(blocked)};
  sp.critical_ns = {1.0};
  ExpectRejected(AuditSchedulingPlan(*state_, sp, *ctx_),
                 "C-schedulability violated");
}

TEST_F(InvariantAuditorTest, RejectsPlanExceedingAvailableMemory) {
  Init(plan::PaperFigure5Query(0.02));
  // Run until some degraded chain resumed as a CF (unopened, with a real
  // operand to load) while another chain's MF is still materializing.
  int cf_frag = -1;
  int mf_frag = -1;
  int guard = 0;
  while (++guard < 100000 && !state_->QueryDone()) {
    Round();
    cf_frag = mf_frag = -1;
    for (ChainId c = 0; c < compiled_.num_chains(); ++c) {
      const int slot = state_->ChainFragment(c);
      if (state_->CfActivated(c) && !state_->ChainDone(c) &&
          state_->FragmentActive(slot) &&
          !state_->fragment(slot).opened() &&
          state_->fragment(slot).BytesToOpen(*ctx_) > 0) {
        cf_frag = slot;
      }
    }
    for (int f = compiled_.num_chains(); f < state_->num_fragments(); ++f) {
      if (state_->FragmentActive(f) &&
          state_->fragment(f).BytesToOpen(*ctx_) == 0) {
        mf_frag = f;
      }
    }
    if (cf_frag >= 0 && mf_frag >= 0) break;
  }
  ASSERT_GE(cf_frag, 0) << "no unopened CF materialized within the guard";
  ASSERT_GE(mf_frag, 0);

  // Steal memory until the CF's open cost no longer fits, then schedule it
  // together with the (free) MF: the pair must be rejected as
  // M-unschedulable. A single-fragment plan would be exempt (progress
  // guarantee), so the MF rides along.
  const int64_t need = state_->fragment(cf_frag).BytesToOpen(*ctx_);
  const int64_t steal = ctx_->memory.available() - need + 1;
  ASSERT_GT(steal, 0);
  ASSERT_TRUE(ctx_->memory.Grant(steal).ok());
  SchedulingPlan sp;
  sp.fragments = {cf_frag, mf_frag};
  sp.critical_ns = {2.0, 1.0};
  ExpectRejected(AuditSchedulingPlan(*state_, sp, *ctx_),
                 "M-schedulability violated");
  ctx_->memory.Release(steal);
  EXPECT_TRUE(AuditSchedulingPlan(*state_, sp, *ctx_).ok());
}

TEST_F(InvariantAuditorTest, RejectsInactiveAndDuplicateFragments) {
  Init(plan::TinyTwoSourceQuery());
  ChainId runnable = kInvalidId;
  for (ChainId c = 0; c < compiled_.num_chains(); ++c) {
    if (state_->CSchedulable(c)) runnable = c;
  }
  ASSERT_NE(runnable, kInvalidId);
  const int frag = state_->ChainFragment(runnable);
  SchedulingPlan sp;
  sp.fragments = {frag, frag};
  sp.critical_ns = {1.0, 1.0};
  ExpectRejected(AuditSchedulingPlan(*state_, sp, *ctx_),
                 "scheduled twice");
  // Mismatched parallel arrays.
  sp.fragments = {frag};
  sp.critical_ns = {1.0, 2.0};
  ExpectRejected(AuditSchedulingPlan(*state_, sp, *ctx_),
                 "scheduling plan arrays diverge");
}

}  // namespace
}  // namespace dqsched::core

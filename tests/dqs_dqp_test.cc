// Scheduler (DQS) and processor (DQP) behaviour tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/dqp.h"
#include "core/dqs.h"
#include "core/strategy.h"
#include "plan/canonical_plans.h"
#include "plan/reference_executor.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {
namespace {

class DqsDqpTest : public ::testing::Test {
 protected:
  void Init(plan::QuerySetup setup, int64_t memory = 64 << 20,
            const ExecutionOptions& options = {}) {
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
                                              options);
  }

  /// The fixture's answer must equal the reference executor's.
  void ExpectReferenceAnswer() {
    const plan::ReferenceResult ref = plan::ExecuteReference(compiled_, data_);
    EXPECT_EQ(ctx_->result.count(), ref.result_card);
    EXPECT_EQ(ctx_->result.checksum().value(), ref.checksum.value());
  }

  ChainId ChainOf(const char* name) {
    const SourceId src = setup_.catalog.Find(name);
    for (const auto& chain : compiled_.chains) {
      if (chain.source == src) return chain.id;
    }
    return kInvalidId;
  }

  sim::CostModel cost_;
  comm::CommConfig comm_config_;
  plan::QuerySetup setup_;
  plan::CompiledPlan compiled_;
  std::vector<storage::Relation> data_;
  std::unique_ptr<exec::ExecContext> ctx_;
  std::unique_ptr<ExecutionState> state_;
};

TEST_F(DqsDqpTest, CriticalDegreeMatchesFormula) {
  Init(plan::TinyTwoSourceQuery(1000, 1000, /*mean_delay_us=*/50.0));
  // n_p = 1000; w (prior) = MinWaitingTime; c from annotation.
  const double w = static_cast<double>(cost_.MinWaitingTime());
  const double c = compiled_.chain(1).est_cpu_per_tuple_ns;
  EXPECT_DOUBLE_EQ(Dqs::ChainCritical(*state_, *ctx_, 1), 1000.0 * (w - c));
}

TEST_F(DqsDqpTest, BmiMatchesFormula) {
  Init(plan::TinyTwoSourceQuery());
  const double w = static_cast<double>(cost_.MinWaitingTime());
  const double io = static_cast<double>(cost_.TupleIoTime());
  EXPECT_DOUBLE_EQ(Dqs::Bmi(*state_, *ctx_, 0), w / (2.0 * io));
}

TEST_F(DqsDqpTest, DegradationWaitsForWarmEstimatesThenFires) {
  Init(plan::PaperFigure5Query(0.02));
  Dqs dqs(DqsConfig{});
  Dqp dqp(DqpConfig{});
  Dqo dqo;
  // Plan 1: no observations yet -> no irreversible degradations; only the
  // C-schedulable chains (p_A, p_E) are scheduled.
  SchedulingPlan sp;
  const Status planned = dqs.ComputePlan(*state_, *ctx_, dqo, &sp);
  ASSERT_TRUE(planned.ok()) << planned.ToString();
  EXPECT_EQ(state_->degradations(), 0);
  EXPECT_EQ(sp.fragments.size(), 2u);

  // Execution: the estimators warm within microseconds, each raising a
  // RateChange; within a handful of replans the four blocked critical
  // chains (p_B, p_F, p_D, p_C) all degrade into MFs.
  for (int round = 0; round < 8 && state_->degradations() < 4; ++round) {
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
  }
  EXPECT_EQ(state_->degradations(), 4);
  // p_A (+ p_E unless it already finished) plus the four MFs.
  EXPECT_GE(sp.fragments.size(), 5u);
  // Decisions landed long before any relation finished retrieval.
  EXPECT_LT(ctx_->clock.now(), Milliseconds(100));
}

TEST_F(DqsDqpTest, HighBmtSuppressesDegradation) {
  Init(plan::PaperFigure5Query(0.02));
  DqsConfig config;
  config.bmt = 1000.0;  // materialization never profitable
  Dqs dqs(config);
  Dqo dqo;
  SchedulingPlan sp;
  ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
  EXPECT_EQ(state_->degradations(), 0);
  EXPECT_EQ(sp.fragments.size(), 2u);  // only p_A and p_E
}

TEST_F(DqsDqpTest, PrioritiesDescend) {
  Init(plan::PaperFigure5Query(0.02));
  Dqs dqs(DqsConfig{});
  Dqo dqo;
  SchedulingPlan sp;
  ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
  for (size_t i = 1; i < sp.critical_ns.size(); ++i) {
    EXPECT_GE(sp.critical_ns[i - 1], sp.critical_ns[i]);
  }
  // The gating chain p_A tops the plan (subtree criticality).
  EXPECT_EQ(sp.fragments.front(), state_->ChainFragment(ChainOf("A")));
}

TEST_F(DqsDqpTest, SlowedSourceRisesInPriorityAfterRateChange) {
  plan::QuerySetup setup = plan::PaperFigure5Query(0.02);
  // Slow E dramatically: its critical degree should dominate eventually.
  setup.catalog.sources[4].delay.mean_us = 2000.0;
  Init(std::move(setup));
  Dqs dqs(DqsConfig{});
  Dqp dqp(DqpConfig{});
  Dqo dqo;
  // Run a few plan/execute cycles so the estimator observes E's slowness.
  for (int i = 0; i < 8; ++i) {
    SchedulingPlan sp;
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
    if (state_->ChainDone(ChainOf("A"))) break;
  }
  // E's estimated wait should now reflect ~2000 us, far above the prior.
  EXPECT_GT(ctx_->comm.EstimatedWaitNs(4), 1e6);
}

TEST_F(DqsDqpTest, DqpReturnsEndOfQfAndChainsComplete) {
  Init(plan::TinyTwoSourceQuery(500, 300, 2.0));
  Dqs dqs(DqsConfig{});
  Dqp dqp(DqpConfig{});
  Dqo dqo;
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 10000) {
    SchedulingPlan sp;
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
  }
  EXPECT_TRUE(state_->QueryDone());
  // Expected fanout 1 per probe tuple (Poisson-distributed matches).
  EXPECT_NEAR(static_cast<double>(ctx_->result.count()), 300.0, 60.0);
}

TEST_F(DqsDqpTest, TimeoutEventFiresOnLongStall) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery(50, 50, 10.0);
  // The build source has an enormous initial delay.
  setup.catalog.sources[0].delay.kind = wrapper::DelayKind::kInitial;
  setup.catalog.sources[0].delay.initial_delay_ms = 1000.0;
  Init(std::move(setup));
  DqpConfig config;
  config.stall_timeout = Milliseconds(50);
  Dqp dqp(config);
  Dqs dqs(DqsConfig{});
  Dqo dqo;
  bool timed_out = false;
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 10000) {
    SchedulingPlan sp;
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kTimeout) {
      timed_out = true;
      break;
    }
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
  }
  // Source A's one-second initial delay must starve the engine past the
  // 50 ms stall budget at some point.
  EXPECT_TRUE(timed_out);
  EXPECT_GE(ctx_->clock.stalled_time(), Milliseconds(50));
}

TEST_F(DqsDqpTest, BatchSizeOneStillCompletes) {
  Init(plan::TinyTwoSourceQuery(60, 40, 2.0));
  DqpConfig config;
  config.batch_size = 1;
  Dqp dqp(config);
  Dqs dqs(DqsConfig{});
  Dqo dqo;
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 100000) {
    SchedulingPlan sp;
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok());
    if (evt->kind == EventKind::kEndOfQf) {
      state_->OnFragmentFinished(evt->fragment, *ctx_);
    }
  }
  EXPECT_TRUE(state_->QueryDone());
}

TEST_F(DqsDqpTest, MemoryOverflowRecoversViaDqoSplit) {
  // ChainThreeSourceQuery's result chain probes two operands (~393 KB of
  // indexes) over ~320 KB of resident operands; a 600 KB budget forces a
  // memory overflow that only a DQO split can relieve.
  Init(plan::ChainThreeSourceQuery(2.0), /*memory=*/600000);
  Dqs dqs(DqsConfig{});
  Dqp dqp(DqpConfig{});
  Dqo dqo;
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 100000) {
    SchedulingPlan sp;
    const Status planned = dqs.ComputePlan(*state_, *ctx_, dqo, &sp);
    ASSERT_TRUE(planned.ok()) << planned.ToString();
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
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
      default:
        break;
    }
  }
  EXPECT_TRUE(state_->QueryDone());
  EXPECT_LE(ctx_->memory.peak(), 600000);
  EXPECT_GE(state_->dqo_splits(), 1);
}

TEST_F(DqsDqpTest, UnchangedStreamsBorrowTheirRelation) {
  // A stream that reaches its sink unchanged is kept as a run of its
  // source relation, not copied (DESIGN.md §5). On the Figure 5 query with
  // A slowed, run by DSE's plan-and-run loop, the operands that A and E
  // build and every MF temp borrow; the operands built from J1's, J2's and
  // J4's outputs hold those probe outputs in pages.
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  setup.catalog.sources[0].delay.mean_us *= 8.0;
  Init(std::move(setup));
  Dqs dqs(DqsConfig{});
  Dqp dqp(DqpConfig{});
  Dqo dqo;
  // Per join, whether its operand borrowed, read when it is sealed: its
  // probing chain releases it on closing.
  std::vector<int> borrowed(static_cast<size_t>(compiled_.num_joins), -1);
  int guard = 0;
  while (!state_->QueryDone() && ++guard < 100000) {
    SchedulingPlan sp;
    ASSERT_TRUE(dqs.ComputePlan(*state_, *ctx_, dqo, &sp).ok());
    Result<Event> evt = dqp.RunPhase(*state_, sp, *ctx_);
    ASSERT_TRUE(evt.ok()) << evt.status().ToString();
    if (evt->kind == EventKind::kRateChange) {
      ctx_->comm.MarkPlanned(ctx_->clock.now());
    }
    if (evt->kind != EventKind::kEndOfQf) continue;
    state_->OnFragmentFinished(evt->fragment, *ctx_);
    for (JoinId j = 0; j < compiled_.num_joins; ++j) {
      const exec::Operand& operand = state_->operands().Get(j);
      if (borrowed[static_cast<size_t>(j)] < 0 && operand.sealed()) {
        ASSERT_FALSE(operand.spilled());
        borrowed[static_cast<size_t>(j)] = operand.tuples().borrowed();
      }
    }
  }
  ASSERT_TRUE(state_->QueryDone());
  ExpectReferenceAnswer();

  for (JoinId j = 0; j < compiled_.num_joins; ++j) {
    const plan::ChainInfo& builder =
        compiled_.chain(compiled_.operand_of_join[static_cast<size_t>(j)]);
    SCOPED_TRACE("operand of join " + std::to_string(j) + ", built by " +
                 builder.name);
    // Scans (A, E) borrow; probe outputs (J1, J2, J4) are copied.
    EXPECT_EQ(borrowed[static_cast<size_t>(j)], builder.ops.empty() ? 1 : 0);
  }
  int64_t borrowed_operands = 0;
  for (int b : borrowed) borrowed_operands += b;
  EXPECT_EQ(borrowed_operands, 2);

  int degraded = 0;
  for (ChainId c = 0; c < state_->num_chains(); ++c) {
    if (!state_->Degraded(c)) continue;
    ++degraded;
    EXPECT_TRUE(ctx_->temps.Borrowed(state_->MfTemp(c)))
        << compiled_.chain(c).name;
  }
  EXPECT_GT(degraded, 0);
}

TEST_F(DqsDqpTest, MaterializeAllBorrowsEveryRelation) {
  // MA's phase 1 writes each relation, unchanged, to a temp: every temp
  // borrows its relation, and phase 2 reads them in place.
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  setup.catalog.sources[0].delay.mean_us *= 8.0;
  Init(std::move(setup), 64 << 20, OptionsFor(StrategyKind::kMa));
  Result<ExecutionMetrics> run =
      RunStrategy(StrategyKind::kMa, *state_, *ctx_, StrategyConfig{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectReferenceAnswer();
  for (SourceId s = 0; s < setup_.catalog.num_sources(); ++s) {
    const TempId temp = state_->MaTempOf(s);
    ASSERT_NE(temp, kInvalidId);
    EXPECT_TRUE(ctx_->temps.Borrowed(temp))
        << setup_.catalog.source(s).relation.name;
    EXPECT_EQ(ctx_->temps.Cardinality(temp),
              setup_.catalog.source(s).relation.cardinality);
  }
}

}  // namespace
}  // namespace dqsched::core

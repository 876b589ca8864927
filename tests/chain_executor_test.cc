#include "exec/chain_executor.h"

#include <gtest/gtest.h>

#include <memory>

#include "exec/exec_context.h"
#include "storage/relation.h"
#include "wrapper/wrapper.h"

namespace dqsched::exec {
namespace {

class ChainExecutorTest : public ::testing::Test {
 protected:
  ChainExecutorTest()
      : ctx_(&cost_, MakeCommConfig(), 64 << 20), operands_(4) {}

  static comm::CommConfig MakeCommConfig() {
    comm::CommConfig c;
    c.queue_capacity = 256;
    return c;
  }

  /// A source whose tuples have keys[0] = seq % 10 (deterministic joins).
  void AddSource(int64_t n) {
    auto rel = std::make_unique<storage::Relation>();
    rel->name = "S";
    rel->tuples.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rel->tuples[static_cast<size_t>(i)].keys[0] = i % 10;
      rel->tuples[static_cast<size_t>(i)].rowid = storage::MakeRowid(
          static_cast<SourceId>(relations_.size()), i);
    }
    relations_.push_back(std::move(rel));
    wrapper::DelayConfig delay;
    delay.kind = wrapper::DelayKind::kConstant;
    delay.mean_us = 1.0;
    ctx_.comm.AddSource(
        std::make_unique<wrapper::SimWrapper>(
            static_cast<SourceId>(relations_.size() - 1),
            relations_.back().get(), delay, 1),
        1000.0);
  }

  /// Runs `frag` to completion, stalling on arrivals as needed.
  void Drain(FragmentRuntime& frag) {
    while (!frag.Finished(ctx_)) {
      if (frag.Available(ctx_) > 0) {
        ASSERT_TRUE(frag.ProcessBatch(ctx_, 64).ok());
      } else {
        const SimTime next = frag.NextArrival(ctx_);
        ASSERT_NE(next, kSimTimeNever);
        ctx_.clock.StallUntil(next);
      }
    }
    frag.Close(ctx_);
  }

  sim::CostModel cost_;
  ExecContext ctx_;
  OperandRegistry operands_;
  std::vector<std::unique_ptr<storage::Relation>> relations_;
};

TEST_F(ChainExecutorTest, ScanToResultCountsEverything) {
  AddSource(500);
  FragmentSpec spec;
  spec.name = "scan";
  spec.sink = SinkKind::kResult;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(0),
                       &operands_, &ctx_.result);
  Drain(frag);
  EXPECT_EQ(ctx_.result.count(), 500);
  EXPECT_EQ(frag.stats().consumed, 500);
  EXPECT_EQ(frag.stats().produced, 500);
  EXPECT_TRUE(frag.closed());
}

TEST_F(ChainExecutorTest, FilterDropsDeterministically) {
  AddSource(2000);
  FragmentSpec spec;
  spec.name = "filter";
  plan::ChainOp op;
  op.kind = plan::ChainOpKind::kFilter;
  op.node = 7;
  op.selectivity = 0.5;
  spec.ops.push_back(op);
  spec.sink = SinkKind::kResult;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(0),
                       &operands_, &ctx_.result);
  Drain(frag);
  EXPECT_NEAR(static_cast<double>(ctx_.result.count()), 1000.0, 100.0);
}

TEST_F(ChainExecutorTest, BuildThenProbeJoins) {
  AddSource(100);  // build side: keys 0..9, 10 each
  AddSource(50);   // probe side: keys 0..9, 5 each
  Operand& operand = operands_.Register(0, "J0", 0);

  FragmentSpec bspec;
  bspec.name = "build";
  bspec.sink = SinkKind::kOperand;
  bspec.sink_join = 0;
  FragmentRuntime build(std::move(bspec), std::make_unique<QueueSource>(0),
                        &operands_, &ctx_.result);
  Drain(build);
  EXPECT_TRUE(operand.sealed());
  EXPECT_EQ(operand.cardinality(), 100);

  FragmentSpec pspec;
  pspec.name = "probe";
  plan::ChainOp op;
  op.kind = plan::ChainOpKind::kProbe;
  op.join = 0;
  op.probe_key_field = 0;
  pspec.ops.push_back(op);
  pspec.sink = SinkKind::kResult;
  FragmentRuntime probe(std::move(pspec), std::make_unique<QueueSource>(1),
                        &operands_, &ctx_.result);
  Drain(probe);
  // Every probe tuple matches 10 build tuples: 50 * 10 results.
  EXPECT_EQ(ctx_.result.count(), 500);
}

TEST_F(ChainExecutorTest, ProbeChargesCpuPerTupleAndMatch) {
  AddSource(100);
  AddSource(50);
  operands_.Register(0, "J0", 0);
  FragmentSpec bspec;
  bspec.name = "build";
  bspec.sink = SinkKind::kOperand;
  bspec.sink_join = 0;
  FragmentRuntime build(std::move(bspec), std::make_unique<QueueSource>(0),
                        &operands_, &ctx_.result);
  Drain(build);

  FragmentSpec pspec;
  pspec.name = "probe";
  plan::ChainOp op;
  op.kind = plan::ChainOpKind::kProbe;
  op.join = 0;
  pspec.ops.push_back(op);
  pspec.sink = SinkKind::kResult;
  FragmentRuntime probe(std::move(pspec), std::make_unique<QueueSource>(1),
                        &operands_, &ctx_.result);
  const SimDuration busy_before = ctx_.clock.busy_time();
  Drain(probe);
  // At least: open (100 inserts) + 50 probes + 500 produces + moves.
  const int64_t min_instr = 100 * cost_.instr_hash_insert +
                            50 * cost_.instr_hash_probe +
                            500 * cost_.instr_produce_result;
  EXPECT_GE(ctx_.clock.busy_time() - busy_before, cost_.InstrTime(min_instr));
}

TEST_F(ChainExecutorTest, TempSinkMaterializes) {
  AddSource(300);
  const TempId temp = ctx_.temps.Create("mat");
  FragmentSpec spec;
  spec.name = "MF";
  spec.sink = SinkKind::kTemp;
  spec.sink_temp = temp;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(0),
                       &operands_, &ctx_.result);
  Drain(frag);
  EXPECT_TRUE(ctx_.temps.IsSealed(temp));
  EXPECT_EQ(ctx_.temps.Cardinality(temp), 300);
  // The unfiltered stream is kept as a run of the relation, not copied.
  EXPECT_TRUE(ctx_.temps.Borrowed(temp));
}

TEST_F(ChainExecutorTest, SinksBorrowOnlyUnchangedRelationSpans) {
  // A sink borrows a batch only while it is still the popped span of a
  // relation: a queue pop or a read of a borrowed temp that no operator
  // rewrote. The vectorized kernels leave a batch in place through a
  // filter that keeps every tuple; the scalar kernels always copy it.
  auto filter = [](double selectivity) {
    plan::ChainOp op;
    op.kind = plan::ChainOpKind::kFilter;
    op.node = 7;
    op.selectivity = selectivity;
    return op;
  };
  struct Case {
    const char* name;
    std::vector<plan::ChainOp> ops;
    bool scalar;
    bool borrows;
  };
  const Case cases[] = {
      {"no ops", {}, false, true},
      {"keep-all filter", {filter(1.0)}, false, true},
      {"keep-all filter, scalar", {filter(1.0)}, true, false},
      {"dropping filter", {filter(0.5)}, false, false},
  };
  SourceId source = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AddSource(700);
    const TempId temp = ctx_.temps.Create(c.name);
    FragmentSpec spec;
    spec.name = c.name;
    spec.ops = c.ops;
    spec.kernels.scalar = c.scalar;
    spec.sink = SinkKind::kTemp;
    spec.sink_temp = temp;
    FragmentRuntime frag(std::move(spec),
                         std::make_unique<QueueSource>(source++), &operands_,
                         &ctx_.result);
    Drain(frag);
    EXPECT_EQ(ctx_.temps.Borrowed(temp), c.borrows);
  }

  // A borrowed temp read back into an operand (the CF of a degraded build
  // chain) hands the operand the same run; a probe's output is copied.
  AddSource(200);
  const TempId mf = ctx_.temps.Create("mf");
  FragmentSpec mspec;
  mspec.name = "mf";
  mspec.sink = SinkKind::kTemp;
  mspec.sink_temp = mf;
  FragmentRuntime mat(std::move(mspec), std::make_unique<QueueSource>(source),
                      &operands_, &ctx_.result);
  Drain(mat);
  ASSERT_TRUE(ctx_.temps.Borrowed(mf));
  Operand& operand = operands_.Register(0, "J0", 0);
  FragmentSpec bspec;
  bspec.name = "cf";
  bspec.sink = SinkKind::kOperand;
  bspec.sink_join = 0;
  FragmentRuntime build(std::move(bspec),
                        std::make_unique<TempSource>(mf, /*async_io=*/true),
                        &operands_, &ctx_.result);
  Drain(build);
  ASSERT_TRUE(operand.tuples().borrowed());
  EXPECT_EQ(&operand.tuples()[0], relations_.back()->tuples.data());

  AddSource(50);
  operands_.Register(1, "J1", 0);
  FragmentSpec pspec;
  pspec.name = "probe";
  plan::ChainOp probe;
  probe.kind = plan::ChainOpKind::kProbe;
  probe.join = 0;
  pspec.ops.push_back(probe);
  pspec.sink = SinkKind::kOperand;
  pspec.sink_join = 1;
  FragmentRuntime joined(std::move(pspec),
                         std::make_unique<QueueSource>(source + 1),
                         &operands_, &ctx_.result);
  Drain(joined);
  EXPECT_EQ(operands_.Get(1).cardinality(), 50 * 20);
  EXPECT_FALSE(operands_.Get(1).tuples().borrowed());
}

TEST_F(ChainExecutorTest, StopSealsPartialMaterialization) {
  AddSource(1000);
  const TempId temp = ctx_.temps.Create("partial");
  FragmentSpec spec;
  spec.name = "MF";
  spec.sink = SinkKind::kTemp;
  spec.sink_temp = temp;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(0),
                       &operands_, &ctx_.result);
  ctx_.clock.StallUntil(Microseconds(200));
  ASSERT_TRUE(frag.ProcessBatch(ctx_, 64).ok());
  frag.Stop(ctx_);
  EXPECT_TRUE(frag.closed());
  EXPECT_TRUE(ctx_.temps.IsSealed(temp));
  EXPECT_EQ(ctx_.temps.Cardinality(temp), 64);
  // The unconsumed remainder stays in the queue for a successor.
  EXPECT_GT(ctx_.comm.RemainingTuples(0), 0);
}

TEST_F(ChainExecutorTest, OpenFailsWithoutMemoryAndReportsResourceExhausted) {
  AddSource(10000);
  AddSource(10);
  ExecContext tight(&cost_, MakeCommConfig(), /*memory=*/200000);
  // Build the operand in the tight context via direct appends (spills).
  Operand& operand = operands_.Register(0, "big", 0);
  std::vector<storage::Tuple> tuples(10000);
  for (int i = 0; i < 10000; ++i) tuples[static_cast<size_t>(i)].keys[0] = i;
  operand.Append(tight, tuples.data(), 10000, true);
  operand.Seal(tight);
  ASSERT_TRUE(operand.spilled());

  // Fill the remaining budget so the reload cannot fit.
  ASSERT_TRUE(tight.memory.Grant(tight.memory.available()).ok());

  FragmentSpec spec;
  spec.name = "probe";
  plan::ChainOp op;
  op.kind = plan::ChainOpKind::kProbe;
  op.join = 0;
  spec.ops.push_back(op);
  spec.sink = SinkKind::kResult;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(1),
                       &operands_, &tight.result);
  EXPECT_EQ(frag.Open(tight).code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(frag.opened());
}

TEST_F(ChainExecutorTest, TakeSourceInvalidatesRuntime) {
  AddSource(10);
  FragmentSpec spec;
  spec.name = "husk";
  spec.sink = SinkKind::kResult;
  FragmentRuntime frag(std::move(spec), std::make_unique<QueueSource>(0),
                       &operands_, &ctx_.result);
  auto source = frag.TakeSource();
  EXPECT_NE(source, nullptr);
  EXPECT_TRUE(frag.closed());
}

TEST_F(ChainExecutorTest, CloseReleasesProbedOperands) {
  AddSource(100);
  AddSource(10);
  operands_.Register(0, "rel", 0);
  FragmentSpec bspec;
  bspec.name = "build";
  bspec.sink = SinkKind::kOperand;
  bspec.sink_join = 0;
  FragmentRuntime build(std::move(bspec), std::make_unique<QueueSource>(0),
                        &operands_, &ctx_.result);
  Drain(build);
  FragmentSpec pspec;
  pspec.name = "probe";
  plan::ChainOp op;
  op.kind = plan::ChainOpKind::kProbe;
  op.join = 0;
  pspec.ops.push_back(op);
  pspec.sink = SinkKind::kResult;
  FragmentRuntime probe(std::move(pspec), std::make_unique<QueueSource>(1),
                        &operands_, &ctx_.result);
  Drain(probe);
  EXPECT_EQ(ctx_.memory.granted(), 0);  // everything released at close
}

}  // namespace
}  // namespace dqsched::exec

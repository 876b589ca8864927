#include "exec/operand.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "exec/exec_context.h"

namespace dqsched::exec {
namespace {

class OperandTest : public ::testing::Test {
 protected:
  OperandTest() : ctx_(&cost_, comm::CommConfig{}, /*memory=*/1 << 20) {}

  std::vector<storage::Tuple> MakeTuples(int64_t n) {
    std::vector<storage::Tuple> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)].keys[0] = i % 10;
      out[static_cast<size_t>(i)].rowid = static_cast<uint64_t>(i);
    }
    return out;
  }

  sim::CostModel cost_;
  ExecContext ctx_;
};

TEST_F(OperandTest, InMemoryLifecycle) {
  Operand op(0, "test", 0);
  const auto tuples = MakeTuples(100);
  op.Append(ctx_, tuples.data(), 100, true);
  EXPECT_FALSE(op.spilled());
  EXPECT_EQ(ctx_.memory.granted(), 100 * cost_.tuple_size_bytes);
  op.Seal(ctx_);
  ASSERT_TRUE(op.Load(ctx_, true).ok());
  EXPECT_TRUE(op.loaded());
  EXPECT_EQ(op.cardinality(), 100);
  // 10 matches for each key 0..9.
  int matches = 0;
  op.index().ForEachMatch(3, [&](size_t) { ++matches; });
  EXPECT_EQ(matches, 10);
  op.ReleaseAll(ctx_);
  EXPECT_EQ(ctx_.memory.granted(), 0);
}

TEST_F(OperandTest, LoadChargesInsertCpu) {
  Operand op(0, "cpu", 0);
  const auto tuples = MakeTuples(1000);
  op.Append(ctx_, tuples.data(), 1000, true);
  op.Seal(ctx_);
  const SimTime before = ctx_.clock.now();
  ASSERT_TRUE(op.Load(ctx_, true).ok());
  EXPECT_GE(ctx_.clock.now() - before,
            cost_.InstrTime(1000 * cost_.instr_hash_insert));
}

TEST_F(OperandTest, SpillsOnMemoryPressure) {
  ExecContext tight(&cost_, comm::CommConfig{}, /*memory=*/1000);
  Operand op(0, "spill", 0);
  const auto tuples = MakeTuples(100);  // 4000 bytes > 1000 budget
  op.Append(tight, tuples.data(), 100, true);
  EXPECT_TRUE(op.spilled());
  EXPECT_EQ(tight.memory.granted(), 0);  // grants returned after spilling
  op.Seal(tight);
  EXPECT_EQ(op.cardinality(), 100);
}

TEST_F(OperandTest, SpilledLoadFailsWithoutMemoryAndRollsBack) {
  ExecContext tight(&cost_, comm::CommConfig{}, /*memory=*/1000);
  Operand op(0, "fail", 0);
  const auto tuples = MakeTuples(100);
  op.Append(tight, tuples.data(), 100, true);
  op.Seal(tight);
  const Status s = tight.memory.Grant(0);  // sanity
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(op.Load(tight, true).code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(op.loaded());
  EXPECT_EQ(tight.memory.granted(), 0);  // full rollback
}

TEST_F(OperandTest, SpilledReloadWorks) {
  ExecContext ctx(&cost_, comm::CommConfig{}, /*memory=*/20000);
  Operand op(0, "reload", 0);
  // Squeeze memory so the append spills, then release the filler.
  const int64_t filler = ctx.memory.available() - 5000;
  ASSERT_TRUE(ctx.memory.Grant(filler).ok());
  const auto tuples = MakeTuples(200);  // 8000 B > the 5000 left
  op.Append(ctx, tuples.data(), 200, true);
  ASSERT_TRUE(op.spilled());
  op.Seal(ctx);
  ctx.memory.Release(filler);
  ASSERT_TRUE(op.Load(ctx, true).ok());
  EXPECT_EQ(op.cardinality(), 200);
  int matches = 0;
  op.index().ForEachMatch(5, [&](size_t) { ++matches; });
  EXPECT_EQ(matches, 20);  // keys cycle mod 10 over 200 tuples

  // Across host pages (1024 tuples): runs of 97 spill at the 16th run, with
  // ~1.4 pages resident, and grow to 3300 tuples (3.2 pages). Two-page disk
  // chunks put chunk flushes inside the spilled page runs. The reload must
  // return every tuple in order with the charges pinned below.
  sim::CostModel cost = cost_;
  cost.disk_chunk_pages = 2;
  struct Want {
    bool async_io;
    std::tuple<int64_t, int64_t, int64_t, int64_t, SimDuration> disk;
    SimTime clock;
  };
  for (const Want& want :
       {Want{false, {17, 17, 1, 18, 68421322}, 72231322},
        Want{true, {17, 17, 1, 18, 68421322}, 71751322}}) {
    SCOPED_TRACE(want.async_io ? "async I/O" : "sync I/O");
    ExecContext big(&cost, comm::CommConfig{}, /*memory=*/1 << 20);
    Operand paged(0, "paged", 0);
    const int64_t squeeze = big.memory.available() - 62000;
    ASSERT_TRUE(big.memory.Grant(squeeze).ok());
    const int64_t n = 3300;
    const auto rows = MakeTuples(n);
    for (int64_t at = 0; at < n; at += 97) {
      paged.Append(big, rows.data() + at, std::min<int64_t>(97, n - at),
                   want.async_io);
      EXPECT_EQ(paged.spilled(), at >= 15 * 97) << at;
    }
    paged.Seal(big);
    big.memory.Release(squeeze);
    ASSERT_TRUE(paged.Load(big, want.async_io).ok());
    ASSERT_EQ(static_cast<int64_t>(paged.tuples().size()), n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(paged.tuples()[static_cast<size_t>(i)].rowid,
                static_cast<uint64_t>(i));
    }
    int paged_matches = 0;
    paged.index().ForEachMatch(5, [&](size_t) { ++paged_matches; });
    EXPECT_EQ(paged_matches, 330);
    const storage::TempStoreStats& temps = big.temps.stats();
    EXPECT_EQ(std::make_tuple(temps.temps_created, temps.tuples_written,
                              temps.tuples_read, temps.cache_served_reads),
              std::make_tuple(1, n, n, 0));
    const sim::DiskStats& disk = big.disk.stats();
    EXPECT_EQ(std::make_tuple(disk.pages_read, disk.pages_written,
                              disk.positionings, disk.io_calls, disk.busy),
              want.disk);
    EXPECT_EQ(big.clock.now(), want.clock);
    paged.ReleaseAll(big);
  }
}

TEST_F(OperandTest, BytesToLoadReflectsState) {
  Operand op(0, "btl", 0);
  const auto tuples = MakeTuples(100);
  op.Append(ctx_, tuples.data(), 100, true);
  op.Seal(ctx_);
  // In memory: only the index is needed.
  EXPECT_EQ(op.BytesToLoad(ctx_), HashIndex::EstimateBytes(100));
  ASSERT_TRUE(op.Load(ctx_, true).ok());
  EXPECT_EQ(op.BytesToLoad(ctx_), 0);
}

TEST_F(OperandTest, EmptyOperand) {
  Operand op(0, "empty", 0);
  op.Seal(ctx_);
  ASSERT_TRUE(op.Load(ctx_, true).ok());
  EXPECT_EQ(op.cardinality(), 0);
  int matches = 0;
  op.index().ForEachMatch(1, [&](size_t) { ++matches; });
  EXPECT_EQ(matches, 0);
  op.ReleaseAll(ctx_);
}

TEST_F(OperandTest, RegistryRegistersInOrder) {
  OperandRegistry registry(2);
  Operand& a = registry.Register(0, "first", 1);
  Operand& b = registry.Register(1, "second", 2);
  EXPECT_EQ(&registry.Get(0), &a);
  EXPECT_EQ(&registry.Get(1), &b);
  EXPECT_EQ(registry.Get(1).key_field(), 2);
}

}  // namespace
}  // namespace dqsched::exec

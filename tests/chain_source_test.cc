#include "exec/chain_source.h"

#include <gtest/gtest.h>

#include <memory>

#include "exec/exec_context.h"
#include "storage/relation.h"
#include "wrapper/wrapper.h"

namespace dqsched::exec {
namespace {

class ChainSourceTest : public ::testing::Test {
 protected:
  ChainSourceTest() : ctx_(&cost_, MakeCommConfig(), 64 << 20) {}

  static comm::CommConfig MakeCommConfig() {
    comm::CommConfig c;
    c.queue_capacity = 32;
    return c;
  }

  /// Registers a constant-rate wrapper delivering `n` tuples every 10 us.
  void AddSource(int64_t n) {
    storage::RelationSpec spec;
    spec.name = "S" + std::to_string(relations_.size());
    spec.cardinality = n;
    relations_.push_back(std::make_unique<storage::Relation>(
        storage::GenerateRelation(spec, static_cast<SourceId>(relations_.size()),
                                  Rng(relations_.size() + 1))));
    wrapper::DelayConfig delay;
    delay.kind = wrapper::DelayKind::kConstant;
    delay.mean_us = 10.0;
    ctx_.comm.AddSource(
        std::make_unique<wrapper::SimWrapper>(
            static_cast<SourceId>(relations_.size() - 1),
            relations_.back().get(), delay, 1),
        10000.0);
  }

  TempId MakeSealedTemp(int64_t n) {
    const TempId id = ctx_.temps.Create("t");
    std::vector<storage::Tuple> tuples(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      tuples[static_cast<size_t>(i)].rowid = static_cast<uint64_t>(i);
    }
    ctx_.temps.Append(id, tuples.data(), n, true);
    ctx_.temps.Seal(id);
    return id;
  }

  sim::CostModel cost_;
  ExecContext ctx_;
  std::vector<std::unique_ptr<storage::Relation>> relations_;
};

TEST_F(ChainSourceTest, QueueSourceFollowsArrivals) {
  AddSource(10);
  QueueSource src(0);
  EXPECT_EQ(src.Available(ctx_), 0);
  EXPECT_FALSE(src.Exhausted(ctx_));
  EXPECT_EQ(src.NextArrival(ctx_), Microseconds(10));
  ctx_.clock.StallUntil(Microseconds(35));
  EXPECT_EQ(src.Available(ctx_), 3);
  storage::Tuple out[16];
  const auto pop = src.Pop(ctx_, out, 16);
  EXPECT_EQ(pop.count, 3);
  EXPECT_FALSE(pop.from_temp);
  // Live batches are read in place from the wrapper's relation.
  EXPECT_EQ(pop.data, relations_[0]->tuples.data());
  EXPECT_EQ(src.remote_source(), 0);
}

TEST_F(ChainSourceTest, QueueSourceBackpressure) {
  AddSource(100);
  QueueSource src(0);
  ctx_.clock.StallUntil(Microseconds(10000));
  EXPECT_EQ(src.Available(ctx_), 32);  // capacity
  EXPECT_TRUE(src.Backpressured(ctx_));
  storage::Tuple out[32];
  src.Pop(ctx_, out, 32);
  // The producer resumed; it is no longer suspended on a full queue.
  EXPECT_FALSE(src.Backpressured(ctx_));
}

TEST_F(ChainSourceTest, QueueSourceExhaustion) {
  AddSource(5);
  QueueSource src(0);
  ctx_.clock.StallUntil(Microseconds(1000));
  storage::Tuple out[8];
  EXPECT_EQ(src.Pop(ctx_, out, 8).count, 5);
  EXPECT_TRUE(src.Exhausted(ctx_));
  EXPECT_EQ(src.NextArrival(ctx_), kSimTimeNever);
}

TEST_F(ChainSourceTest, SyncTempSourceBlocksOnChunks) {
  const int64_t n = 64 * 204;  // one full chunk, too big for the I/O cache
  const TempId id = MakeSealedTemp(n);
  TempSource src(id, /*async_io=*/false);
  EXPECT_EQ(src.Available(ctx_), n);
  storage::Tuple out[128];
  const SimTime before = ctx_.clock.now();
  const auto pop = src.Pop(ctx_, out, 128);
  EXPECT_EQ(pop.count, 128);
  EXPECT_TRUE(pop.from_temp);
  // Synchronous read: the whole chunk transfer hit the clock.
  EXPECT_GE(ctx_.clock.now() - before, 64 * cost_.PageTransferTime());
}

TEST_F(ChainSourceTest, AsyncTempSourcePrefetches) {
  const int64_t n = 3 * 64 * 204;
  const TempId id = MakeSealedTemp(n);
  TempSource src(id, /*async_io=*/true);
  // Nothing transferred yet: available 0, arrival = first chunk completion
  // (a small slow-start chunk of 4 pages, for low first-tuple latency).
  EXPECT_EQ(src.Available(ctx_), 0);
  const SimTime first_chunk = src.NextArrival(ctx_);
  EXPECT_GT(first_chunk, ctx_.clock.now());
  // The read queues behind the temp's own asynchronous write flushes; the
  // first (slow-start, 4-page) chunk lands shortly after the arm frees.
  EXPECT_LE(first_chunk, ctx_.disk.FreeAt(ctx_.clock.now()) +
                             cost_.DiskPositionTime() +
                             5 * cost_.PageTransferTime());
  ctx_.clock.StallUntil(first_chunk);
  EXPECT_EQ(src.Available(ctx_), 4 * 204);
  // Keep consuming: the pipeline ramps to full-size chunks.
  ctx_.clock.StallUntil(ctx_.clock.now() + Seconds(1));
  storage::Tuple out[256];
  const SimTime before = ctx_.clock.now();
  const auto pop = src.Pop(ctx_, out, 256);
  EXPECT_EQ(pop.count, 256);
  // Asynchronous: no device wait — only the prefetch pipeline's per-I/O
  // issue CPU may tick the clock.
  EXPECT_LE(ctx_.clock.now() - before,
            2 * cost_.InstrTime(cost_.instr_per_io));
  EXPECT_EQ(out[0].rowid, 0u);
  EXPECT_EQ(out[255].rowid, 255u);
}

TEST_F(ChainSourceTest, CacheSizedTempIsInstantlyAvailable) {
  const TempId id = MakeSealedTemp(500);  // 3 pages <= 8-page cache
  TempSource src(id, /*async_io=*/true);
  EXPECT_EQ(src.Available(ctx_), 500);
  storage::Tuple out[500];
  EXPECT_EQ(src.Pop(ctx_, out, 500).count, 500);
  EXPECT_TRUE(src.Exhausted(ctx_));
}

TEST_F(ChainSourceTest, ConcatReadsTempThenQueue) {
  AddSource(4);
  const TempId id = MakeSealedTemp(300);
  ConcatSource src(std::make_unique<TempSource>(id, true),
                   std::make_unique<QueueSource>(0));
  ctx_.clock.StallUntil(Microseconds(100));  // queue holds 4 live tuples
  storage::Tuple out[512];
  // First batches come from the temp, flagged from_temp and copied out.
  auto pop = src.Pop(ctx_, out, 512);
  EXPECT_EQ(pop.count, 300);
  EXPECT_TRUE(pop.from_temp);
  EXPECT_EQ(pop.data, out);
  // Then the live remainder, a span of the relation.
  pop = src.Pop(ctx_, out, 512);
  EXPECT_EQ(pop.count, 4);
  EXPECT_FALSE(pop.from_temp);
  EXPECT_EQ(pop.data, relations_[0]->tuples.data());
  EXPECT_TRUE(src.Exhausted(ctx_));
}

TEST_F(ChainSourceTest, ConcatNeverMixesOriginsInOneBatch) {
  AddSource(50);
  const TempId id = MakeSealedTemp(10);
  ConcatSource src(std::make_unique<TempSource>(id, true),
                   std::make_unique<QueueSource>(0));
  ctx_.clock.StallUntil(Microseconds(2000));
  storage::Tuple out[64];
  const auto pop = src.Pop(ctx_, out, 64);
  EXPECT_EQ(pop.count, 10);  // stops at the temp/live boundary
  EXPECT_TRUE(pop.from_temp);
}

TEST_F(ChainSourceTest, ConcatReportsSecondSourceIdentity) {
  AddSource(5);
  const TempId id = MakeSealedTemp(5);
  ConcatSource src(std::make_unique<TempSource>(id, true),
                   std::make_unique<QueueSource>(0));
  EXPECT_EQ(src.remote_source(), 0);
}

}  // namespace
}  // namespace dqsched::exec

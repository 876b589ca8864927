#include "storage/temp_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cost_model.h"
#include "sim/disk.h"
#include "sim/sim_clock.h"

namespace dqsched::storage {
namespace {

class TempStoreTest : public ::testing::Test {
 protected:
  TempStoreTest() : disk_(&cost_), store_(&cost_, &disk_, &clock_) {}

  std::vector<Tuple> MakeTuples(int64_t n, uint64_t base = 0) {
    std::vector<Tuple> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)].rowid = base + static_cast<uint64_t>(i);
    }
    return out;
  }

  sim::CostModel cost_;
  sim::SimClock clock_;
  sim::SimDisk disk_;
  TempStore store_;
};

std::tuple<int64_t, int64_t, int64_t, int64_t> StatsOf(const TempStore& s) {
  const TempStoreStats& t = s.stats();
  return {t.temps_created, t.tuples_written, t.tuples_read,
          t.cache_served_reads};
}

std::tuple<int64_t, int64_t, int64_t, int64_t, SimDuration> StatsOf(
    const sim::SimDisk& d) {
  const sim::DiskStats& t = d.stats();
  return {t.pages_read, t.pages_written, t.positionings, t.io_calls, t.busy};
}

TEST_F(TempStoreTest, AppendSealReadRoundTrip) {
  const TempId id = store_.Create("t");
  const auto tuples = MakeTuples(1000);
  store_.Append(id, tuples.data(), 1000, /*async_io=*/true);
  store_.Seal(id);
  EXPECT_TRUE(store_.IsSealed(id));
  EXPECT_EQ(store_.Cardinality(id), 1000);

  std::vector<Tuple> out(1000);
  SimTime ready = 0;
  const int64_t n =
      store_.Read(id, 0, out.data(), 1000, /*async_io=*/true, &ready).count;
  ASSERT_EQ(n, 1000);
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].rowid, static_cast<uint64_t>(i));
  }

  // Across host pages (1024 tuples): 3*1024+7 tuples appended in runs of
  // 301 and read back in runs of 500, so both cursors cross page
  // boundaries; two-page disk chunks put chunk I/O between them.
  sim::CostModel cost = cost_;
  cost.disk_chunk_pages = 2;
  struct Want {
    bool async_io;
    std::tuple<int64_t, int64_t, int64_t, int64_t, SimDuration> disk;
    SimTime clock;
  };
  for (const Want& want :
       {Want{false, {16, 16, 1, 16, 65690656}, 66140656},
        Want{true, {16, 16, 1, 16, 65690656}, 65870656}}) {
    SCOPED_TRACE(want.async_io ? "async I/O" : "sync I/O");
    sim::SimClock clock;
    sim::SimDisk disk(&cost);
    TempStore store(&cost, &disk, &clock);
    const int64_t total = 3 * 1024 + 7;
    const auto paged = MakeTuples(total, 7);
    const TempId t = store.Create("paged");
    for (int64_t at = 0; at < total; at += 301) {
      store.Append(t, paged.data() + at, std::min<int64_t>(301, total - at),
                   want.async_io);
    }
    store.Seal(t);
    ASSERT_EQ(store.Cardinality(t), total);
    std::vector<Tuple> back(static_cast<size_t>(total));
    for (int64_t at = 0; at < total;) {
      const int64_t got =
          store.Read(t, at, back.data() + at, 500, want.async_io, &ready)
              .count;
      ASSERT_GT(got, 0) << at;
      at += got;
      clock.BusyUntil(ready);
    }
    for (int64_t i = 0; i < total; ++i) {
      ASSERT_EQ(back[static_cast<size_t>(i)].rowid,
                static_cast<uint64_t>(7 + i));
    }
    EXPECT_EQ(StatsOf(store), std::make_tuple(1, total, total, 0));
    EXPECT_EQ(StatsOf(disk), want.disk);
    EXPECT_EQ(clock.now(), want.clock);
  }
}

TEST_F(TempStoreTest, SmallTempIsCacheServed) {
  // 1000 tuples = 5 pages <= 8-page I/O cache: reads are free.
  const TempId id = store_.Create("small");
  const auto tuples = MakeTuples(1000);
  store_.Append(id, tuples.data(), 1000, true);
  store_.Seal(id);
  const int64_t reads_before = disk_.stats().pages_read;
  std::vector<Tuple> out(1000);
  SimTime ready = 0;
  store_.Read(id, 0, out.data(), 1000, true, &ready);
  EXPECT_EQ(disk_.stats().pages_read, reads_before);
  EXPECT_EQ(store_.stats().cache_served_reads, 1);
  EXPECT_TRUE(store_.FitsIoCache(id));
}

TEST_F(TempStoreTest, LargeTempChargesDiskOnWriteAndRead) {
  // One chunk's worth: 64 pages * 204 tuples.
  const int64_t n = 64 * 204;
  const TempId id = store_.Create("big");
  const auto tuples = MakeTuples(n);
  store_.Append(id, tuples.data(), n, true);
  EXPECT_EQ(disk_.stats().pages_written, 64);
  store_.Seal(id);
  EXPECT_FALSE(store_.FitsIoCache(id));

  std::vector<Tuple> out(static_cast<size_t>(n));
  SimTime ready = 0;
  store_.Read(id, 0, out.data(), n, true, &ready);
  EXPECT_EQ(disk_.stats().pages_read, 64);
  EXPECT_GT(ready, 0);
}

TEST_F(TempStoreTest, SealFlushesRemainder) {
  const int64_t n = 64 * 204 + 100;  // one chunk + a partial page tail
  const TempId id = store_.Create("tail");
  const auto tuples = MakeTuples(n);
  store_.Append(id, tuples.data(), n, true);
  EXPECT_EQ(disk_.stats().pages_written, 64);
  store_.Seal(id);
  EXPECT_EQ(disk_.stats().pages_written, 65);
  EXPECT_EQ(store_.Pages(id), 65);
}

TEST_F(TempStoreTest, SynchronousIoAdvancesClock) {
  const int64_t n = 64 * 204;
  const TempId id = store_.Create("sync");
  const auto tuples = MakeTuples(n);
  const SimTime before = clock_.now();
  store_.Append(id, tuples.data(), n, /*async_io=*/false);
  EXPECT_GE(clock_.now() - before, 64 * cost_.PageTransferTime());
}

TEST_F(TempStoreTest, AsynchronousWriteDoesNotBlockCpu) {
  const int64_t n = 64 * 204;
  const TempId id = store_.Create("async");
  const auto tuples = MakeTuples(n);
  const SimTime before = clock_.now();
  store_.Append(id, tuples.data(), n, /*async_io=*/true);
  // Only the per-I/O instruction cost hits the clock.
  EXPECT_EQ(clock_.now() - before, cost_.InstrTime(cost_.instr_per_io));
}

TEST_F(TempStoreTest, IssueReadAndCopy) {
  const int64_t n = 64 * 204;
  const TempId id = store_.Create("prefetch");
  const auto tuples = MakeTuples(n, 100);
  store_.Append(id, tuples.data(), n, true);
  store_.Seal(id);
  const SimTime done = store_.IssueRead(id, n);
  EXPECT_GT(done, clock_.now());
  std::vector<Tuple> out(10);
  store_.ReadIssued(id, 5, out.data(), 10);
  EXPECT_EQ(out[0].rowid, 105u);

  // Copies that cross host-page boundaries (1024 tuples), including into
  // the last, partial page (13056 = 12*1024 + 768).
  for (const auto& [cursor, len] :
       {std::pair<int64_t, int64_t>{1020, 10}, {2040, 1100},
        {n - 1030, 1030}}) {
    std::vector<Tuple> run(static_cast<size_t>(len));
    store_.ReadIssued(id, cursor, run.data(), len);
    for (int64_t i = 0; i < len; ++i) {
      ASSERT_EQ(run[static_cast<size_t>(i)].rowid,
                static_cast<uint64_t>(100 + cursor + i))
          << cursor << "+" << i;
    }
  }
  EXPECT_EQ(StatsOf(store_), std::make_tuple(1, n, 10 + 10 + 1100 + 1030, 0));
  EXPECT_EQ(StatsOf(disk_), std::make_tuple(64, 64, 1, 2, 196762624));
  EXPECT_EQ(clock_.now(), 60000);
}

TEST_F(TempStoreTest, AdoptSealedMultiPageSegment) {
  // A cached segment spanning four host pages (1024 tuples) is adopted
  // without write charges and reads back in order, cursor runs of 700
  // crossing every page boundary.
  const int64_t n = 3 * 1024 + 7;
  const auto tuples = MakeTuples(n, 40);
  TuplePages segment;
  segment.Append(tuples.data(), n);
  const TempId id = store_.AdoptSealed("cached", segment);
  EXPECT_TRUE(store_.IsSealed(id));
  EXPECT_EQ(store_.Cardinality(id), n);
  EXPECT_EQ(store_.Pages(id), 16);
  std::vector<Tuple> back(static_cast<size_t>(n));
  SimTime ready = 0;
  for (int64_t at = 0; at < n;) {
    const int64_t got =
        store_.Read(id, at, back.data() + at, 700, /*async_io=*/true, &ready)
            .count;
    ASSERT_GT(got, 0) << at;
    at += got;
  }
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)].rowid,
              static_cast<uint64_t>(40 + i));
  }
  EXPECT_EQ(StatsOf(store_), std::make_tuple(1, 0, n, 0));
  EXPECT_EQ(StatsOf(disk_), std::make_tuple(16, 0, 1, 1, 43845328));
  EXPECT_EQ(std::make_tuple(ready, clock_.now()),
            std::make_tuple(43875328, 30000));
}

TEST_F(TempStoreTest, TakeTuplesHandsOffPagesWithoutCharges) {
  // Cache admission moves a sealed temp's pages out: the tuples arrive in
  // order across page boundaries, the temp reads as dropped, and nothing
  // simulated is charged by the hand-off.
  const int64_t n = 3 * 1024 + 7;
  const TempId id = store_.Create("mf");
  const auto tuples = MakeTuples(n, 9);
  store_.Append(id, tuples.data(), n, /*async_io=*/true);
  store_.Seal(id);
  const auto temp_stats = StatsOf(store_);
  const auto disk_stats = StatsOf(disk_);
  const SimTime now = clock_.now();

  const TuplePages pages = store_.TakeTuples(id);
  ASSERT_EQ(pages.size(), n);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(pages[static_cast<size_t>(i)].rowid,
              static_cast<uint64_t>(9 + i));
  }
  EXPECT_TRUE(store_.IsDropped(id));
  EXPECT_EQ(StatsOf(store_), temp_stats);
  EXPECT_EQ(StatsOf(disk_), disk_stats);
  EXPECT_EQ(clock_.now(), now);
}

TEST_F(TempStoreTest, BorrowedTempReadsInPlaceWithPagedCharges) {
  // The same tuples appended as relation spans and as copies: the borrowed
  // temp hands out spans of the relation, the paged one copies into the
  // reader's buffer, and every stat, disk charge and clock reading is the
  // same for both.
  const int64_t n = 2 * 64 * 204 + 31;  // two chunks and a tail
  const auto relation = MakeTuples(n, 3);
  struct Run {
    std::tuple<int64_t, int64_t, int64_t, int64_t> stats;
    std::tuple<int64_t, int64_t, int64_t, int64_t, SimDuration> disk;
    SimTime clock;
  };
  auto run = [&](bool in_relation) {
    sim::SimClock clock;
    sim::SimDisk disk(&cost_);
    TempStore store(&cost_, &disk, &clock);
    const TempId id = store.Create("mf");
    for (int64_t at = 0; at < n; at += 500) {
      store.Append(id, relation.data() + at, std::min<int64_t>(500, n - at),
                   /*async_io=*/true, in_relation);
    }
    store.Seal(id);
    EXPECT_EQ(store.Borrowed(id), in_relation);
    std::vector<Tuple> out(700);
    SimTime ready = 0;
    for (int64_t at = 0; at < n / 2;) {
      const TempRead read =
          store.Read(id, at, out.data(), 700, /*async_io=*/false, &ready);
      EXPECT_EQ(read.in_relation, in_relation);
      EXPECT_EQ(read.data, in_relation ? relation.data() + at : out.data());
      EXPECT_EQ(read.data[0].rowid, static_cast<uint64_t>(3 + at));
      at += read.count;
    }
    store.IssueRead(id, n);
    const TempRead issued = store.ReadIssued(id, n - 600, out.data(), 600);
    EXPECT_EQ(issued.count, 600);
    EXPECT_EQ(issued.in_relation, in_relation);
    EXPECT_EQ(issued.data[599].rowid, static_cast<uint64_t>(3 + n - 1));
    return Run{StatsOf(store), StatsOf(disk), clock.now()};
  };
  const Run borrowed = run(true);
  const Run paged = run(false);
  EXPECT_EQ(borrowed.stats, paged.stats);
  EXPECT_EQ(borrowed.disk, paged.disk);
  EXPECT_EQ(borrowed.clock, paged.clock);
}

TEST_F(TempStoreTest, HandOffsKeepABorrowedRunAndCopyPages) {
  // TakeTuples, AdoptSealed and ReadAll carry a borrowed run as a borrow
  // and a paged temp's tuples as pages.
  const int64_t n = 3 * 1024 + 7;
  const auto relation = MakeTuples(n, 11);
  const TempId mf = store_.Create("mf");
  store_.Append(mf, relation.data(), 1000, true, /*in_relation=*/true);
  store_.Append(mf, relation.data() + 1000, n - 1000, true,
                /*in_relation=*/true);
  store_.Seal(mf);
  ASSERT_TRUE(store_.Borrowed(mf));

  // ReadAll of the borrowed temp into an empty store borrows the run.
  TuplePages reloaded;
  SimTime ready = 0;
  EXPECT_EQ(store_.ReadAll(mf, &reloaded, true, &ready), n);
  EXPECT_TRUE(reloaded.borrowed());
  EXPECT_EQ(&reloaded[0], relation.data());

  // Admission takes the run itself; adoption borrows it again.
  TuplePages segment = store_.TakeTuples(mf);
  EXPECT_TRUE(store_.IsDropped(mf));
  ASSERT_TRUE(segment.borrowed());
  ASSERT_EQ(segment.size(), n);
  EXPECT_EQ(&segment[n - 1], relation.data() + n - 1);
  const TempId hit = store_.AdoptSealed("cached", segment);
  EXPECT_TRUE(store_.Borrowed(hit));
  EXPECT_EQ(store_.Cardinality(hit), n);
  std::vector<Tuple> out(10);
  const TempRead read = store_.Read(hit, 5, out.data(), 10, true, &ready);
  EXPECT_EQ(read.data, relation.data() + 5);

  // A paged temp (copied appends) hands off pages: TakeTuples moves them,
  // AdoptSealed and ReadAll copy them.
  const TempId paged = store_.Create("paged");
  store_.Append(paged, relation.data(), n, true);
  store_.Seal(paged);
  EXPECT_FALSE(store_.Borrowed(paged));
  TuplePages copy;
  store_.ReadAll(paged, &copy, true, &ready);
  EXPECT_FALSE(copy.borrowed());
  TuplePages pages = store_.TakeTuples(paged);
  EXPECT_FALSE(pages.borrowed());
  const TempId adopted = store_.AdoptSealed("cached_paged", pages);
  EXPECT_FALSE(store_.Borrowed(adopted));
  for (int64_t i : {int64_t{0}, int64_t{1023}, int64_t{1024}, n - 1}) {
    const size_t k = static_cast<size_t>(i);
    EXPECT_EQ(copy[k].rowid, relation[k].rowid);
    EXPECT_EQ(pages[k].rowid, relation[k].rowid);
  }
  EXPECT_EQ(store_.Read(adopted, n - 1, out.data(), 1, true, &ready)
                .data[0]
                .rowid,
            relation[static_cast<size_t>(n - 1)].rowid);
}

TEST_F(TempStoreTest, ReadBeyondEndReturnsZero) {
  const TempId id = store_.Create("t");
  const auto tuples = MakeTuples(10);
  store_.Append(id, tuples.data(), 10, true);
  store_.Seal(id);
  std::vector<Tuple> out(10);
  SimTime ready = 0;
  EXPECT_EQ(store_.Read(id, 10, out.data(), 10, true, &ready).count, 0);
}

TEST_F(TempStoreTest, SealEmptyTemp) {
  const TempId id = store_.Create("empty");
  store_.Seal(id);
  EXPECT_EQ(store_.Cardinality(id), 0);
  EXPECT_EQ(store_.Pages(id), 0);
}

TEST_F(TempStoreTest, StatsAccumulate) {
  const TempId id = store_.Create("s");
  const auto tuples = MakeTuples(100);
  store_.Append(id, tuples.data(), 100, true);
  store_.Seal(id);
  std::vector<Tuple> out(100);
  SimTime ready = 0;
  store_.Read(id, 0, out.data(), 100, true, &ready);
  EXPECT_EQ(store_.stats().temps_created, 1);
  EXPECT_EQ(store_.stats().tuples_written, 100);
  EXPECT_EQ(store_.stats().tuples_read, 100);
}

}  // namespace
}  // namespace dqsched::storage

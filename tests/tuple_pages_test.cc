#include "storage/tuple_pages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dqsched::storage {
namespace {

constexpr int64_t kPage = TuplePages::kPageTuples;

std::vector<Tuple> MakeTuples(int64_t n, uint64_t base = 0) {
  std::vector<Tuple> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Tuple& t = out[static_cast<size_t>(i)];
    t.rowid = base + static_cast<uint64_t>(i);
    t.keys[0] = static_cast<int64_t>(base) - i;
  }
  return out;
}

/// Appends the first `n` of `tuples` in runs of `run` (the last shorter).
void AppendInRuns(TuplePages* pages, const std::vector<Tuple>& tuples,
                  int64_t n, int64_t run) {
  for (int64_t at = 0; at < n; at += run) {
    pages->Append(tuples.data() + at, std::min(run, n - at));
  }
}

TEST(TuplePages, SizesAroundPageBoundaries) {
  for (const int64_t n : {int64_t{0}, int64_t{1}, kPage - 1, kPage, kPage + 1,
                          3 * kPage + 7}) {
    for (const int64_t run : {int64_t{1}, int64_t{7}, n + 1}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " run=" << run);
      const std::vector<Tuple> tuples = MakeTuples(n, 1000);
      TuplePages pages;
      AppendInRuns(&pages, tuples, n, run);
      ASSERT_EQ(pages.size(), n);
      for (int64_t i = 0; i < n; ++i) {
        const Tuple& got = pages[static_cast<size_t>(i)];
        ASSERT_EQ(got.rowid, tuples[static_cast<size_t>(i)].rowid) << i;
        ASSERT_EQ(got.keys[0], tuples[static_cast<size_t>(i)].keys[0]) << i;
      }
      // Span iteration: one run per page, in order, covering exactly size().
      int64_t seen = 0;
      int64_t spans = 0;
      pages.ForEachSpan([&](const Tuple* run_data, int64_t k) {
        EXPECT_GT(k, 0);
        EXPECT_LE(k, kPage);
        for (int64_t j = 0; j < k; ++j) {
          ASSERT_EQ(run_data[j].rowid,
                    tuples[static_cast<size_t>(seen + j)].rowid);
        }
        seen += k;
        ++spans;
      });
      EXPECT_EQ(seen, n);
      EXPECT_EQ(spans, (n + kPage - 1) / kPage);
    }
  }
}

TEST(TuplePages, CopyOutAcrossPageBoundaries) {
  const int64_t n = 3 * kPage + 7;
  const std::vector<Tuple> tuples = MakeTuples(n);
  TuplePages pages;
  AppendInRuns(&pages, tuples, n, 5);
  std::vector<Tuple> out(static_cast<size_t>(n));
  auto check = [&](int64_t from, int64_t len) {
    pages.CopyOut(from, out.data(), len);
    for (int64_t j = 0; j < len; ++j) {
      ASSERT_EQ(out[static_cast<size_t>(j)].rowid,
                static_cast<uint64_t>(from + j))
          << "from=" << from << " len=" << len << " j=" << j;
    }
  };
  // Every offset, copied to the end: each one up to the last page crosses
  // at least one boundary.
  for (int64_t from = 0; from <= n; ++from) check(from, n - from);
  // Every offset and length within 16 of each boundary that straddles it.
  for (int64_t boundary = kPage; boundary < n; boundary += kPage) {
    for (int64_t from = boundary - 16; from < boundary; ++from) {
      for (int64_t len = boundary - from + 1;
           len <= boundary - from + 16 && from + len <= n; ++len) {
        check(from, len);
      }
    }
  }
}

TEST(TuplePages, MovedFromStoreIsEmpty) {
  const std::vector<Tuple> tuples = MakeTuples(kPage + 3);
  TuplePages a;
  a.Append(tuples.data(), kPage + 3);
  TuplePages b(std::move(a));
  EXPECT_EQ(a.size(), 0);
  int64_t spans = 0;
  a.ForEachSpan([&](const Tuple*, int64_t) { ++spans; });
  EXPECT_EQ(spans, 0);
  ASSERT_EQ(b.size(), kPage + 3);
  EXPECT_EQ(b[kPage + 2].rowid, static_cast<uint64_t>(kPage + 2));

  TuplePages c;
  c.Append(tuples.data(), 2);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0);
  ASSERT_EQ(c.size(), kPage + 3);
  EXPECT_EQ(c[kPage].rowid, static_cast<uint64_t>(kPage));

  // A moved-from store is reusable.
  a.Append(tuples.data(), 1);
  EXPECT_EQ(a.size(), 1);
}

TEST(TuplePages, ClearReturnsPagesForReuse) {
  const std::vector<Tuple> tuples = MakeTuples(3);
  TuplePages pages;
  pages.Append(tuples.data(), 3);
  const Tuple* first = &pages[0];
  pages.Clear();
  EXPECT_EQ(pages.size(), 0);
  int64_t spans = 0;
  pages.ForEachSpan([&](const Tuple*, int64_t) { ++spans; });
  EXPECT_EQ(spans, 0);
  // The pool is a free list: the page just released is the next one taken.
  pages.Append(tuples.data() + 1, 1);
  EXPECT_EQ(&pages[0], first);
  EXPECT_EQ(pages[0].rowid, 1u);
}

TEST(TuplePages, ConcurrentAppendAndClearShareThePool) {
  // Two stores on two threads fill and release pages through the one pool;
  // every fill must read back exactly what was appended.
  auto worker = [](uint64_t base, bool* ok) {
    const std::vector<Tuple> tuples = MakeTuples(2 * kPage + 11, base);
    TuplePages pages;
    for (int round = 0; round < 1000; ++round) {
      const int64_t n = 1 + (round * 37) % (2 * kPage + 11);
      AppendInRuns(&pages, tuples, n, 1 + round % 13);
      for (int64_t i = 0; i < n; ++i) {
        if (pages[static_cast<size_t>(i)].rowid !=
            base + static_cast<uint64_t>(i)) {
          *ok = false;
          return;
        }
      }
      pages.Clear();
    }
    *ok = true;
  };
  bool ok_a = false;
  bool ok_b = false;
  std::thread a(worker, uint64_t{0}, &ok_a);
  std::thread b(worker, uint64_t{1} << 40, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

// --- Borrowed runs -------------------------------------------------------
// `relation` stands for a source relation: immutable, outliving every store.

/// Checks every read path of `pages` against tuples [0, n) of `want`:
/// operator[], ForEachSpan, and CopyOut and Read over ranges that cross
/// `mark` (a page boundary, or the point where a borrowed run was copied).
void ExpectReadsAgree(const TuplePages& pages, const std::vector<Tuple>& want,
                      int64_t mark) {
  const int64_t n = pages.size();
  ASSERT_LE(n, static_cast<int64_t>(want.size()));
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(pages[static_cast<size_t>(i)].rowid,
              want[static_cast<size_t>(i)].rowid)
        << i;
  }
  int64_t seen = 0;
  pages.ForEachSpan([&](const Tuple* run, int64_t k) {
    for (int64_t j = 0; j < k; ++j) {
      ASSERT_EQ(run[j].rowid, want[static_cast<size_t>(seen + j)].rowid);
    }
    seen += k;
  });
  EXPECT_EQ(seen, n);
  std::vector<Tuple> out(static_cast<size_t>(2 * n));  // CopyOut, then Read
  for (const int64_t from :
       {int64_t{0}, std::max<int64_t>(0, mark - 3), mark, n - 1}) {
    if (from < 0 || from >= n) continue;
    const int64_t len = std::min<int64_t>(n - from, 9);
    pages.CopyOut(from, out.data(), len);
    const Tuple* span = pages.Read(from, len, out.data() + len);
    for (int64_t j = 0; j < len; ++j) {
      const uint64_t expect = want[static_cast<size_t>(from + j)].rowid;
      ASSERT_EQ(out[static_cast<size_t>(j)].rowid, expect) << from << "+" << j;
      ASSERT_EQ(span[j].rowid, expect) << from << "+" << j;
    }
    if (pages.borrowed()) {
      EXPECT_EQ(span, &pages[static_cast<size_t>(from)]);
    }
  }
}

TEST(TuplePagesBorrow, EmptyStoreBorrowsARelationSpan) {
  const std::vector<Tuple> relation = MakeTuples(50);
  TuplePages pages;
  pages.Append(relation.data() + 5, 10, /*in_relation=*/true);
  EXPECT_TRUE(pages.borrowed());
  ASSERT_EQ(pages.size(), 10);
  EXPECT_EQ(&pages[0], relation.data() + 5);
  // An empty span leaves an empty store unborrowed.
  TuplePages empty;
  empty.Append(relation.data(), 0, /*in_relation=*/true);
  EXPECT_FALSE(empty.borrowed());
  EXPECT_EQ(empty.size(), 0);
  // A copying append to an empty store takes pages as before.
  TuplePages copied;
  copied.Append(relation.data(), 10);
  EXPECT_FALSE(copied.borrowed());
  EXPECT_NE(&copied[0], relation.data());
}

TEST(TuplePagesBorrow, ContinuingSpanExtendsTheRunWithoutAPage) {
  const std::vector<Tuple> relation = MakeTuples(3 * kPage + 7);
  // Put a known page on top of the pool's free list.
  TuplePages marker;
  marker.Append(relation.data(), 1);
  const Tuple* top = &marker[0];
  marker.Clear();

  TuplePages pages;
  int64_t at = 0;
  for (const int64_t run : {int64_t{1}, int64_t{300}, kPage, 2 * kPage - 294}) {
    pages.Append(relation.data() + at, run, /*in_relation=*/true);
    at += run;
    ASSERT_TRUE(pages.borrowed()) << at;
    ASSERT_EQ(pages.size(), at);
  }
  EXPECT_EQ(&pages[static_cast<size_t>(at - 1)], relation.data() + at - 1);
  int64_t spans = 0;
  pages.ForEachSpan([&](const Tuple* run, int64_t k) {
    EXPECT_EQ(run, relation.data());
    EXPECT_EQ(k, at);
    ++spans;
  });
  EXPECT_EQ(spans, 1);
  ExpectReadsAgree(pages, relation, kPage);
  // The borrow took no page: the marker page is still the next one out.
  TuplePages next;
  next.Append(relation.data(), 1);
  EXPECT_EQ(&next[0], top);
}

TEST(TuplePagesBorrow, OtherAppendsCopyTheRunFirstAndKeepOrder) {
  const std::vector<Tuple> relation = MakeTuples(3 * kPage + 40);
  const int64_t run = kPage + 5;  // the borrowed run crosses a page
  std::vector<Tuple> want(relation.begin(), relation.begin() + run);

  // A relation span that does not continue the run.
  TuplePages skip;
  skip.Append(relation.data(), run, /*in_relation=*/true);
  skip.Append(relation.data() + run + 1, 20, /*in_relation=*/true);
  EXPECT_FALSE(skip.borrowed());
  std::vector<Tuple> want_skip = want;
  want_skip.insert(want_skip.end(), relation.begin() + run + 1,
                   relation.begin() + run + 21);
  ASSERT_EQ(skip.size(), run + 20);
  ExpectReadsAgree(skip, want_skip, run);

  // A copying append, even of the tuples that would continue the run.
  TuplePages copy;
  copy.Append(relation.data(), run, /*in_relation=*/true);
  copy.Append(relation.data() + run, 2 * kPage);
  EXPECT_FALSE(copy.borrowed());
  ExpectReadsAgree(copy, relation, run);
  EXPECT_NE(&copy[0], relation.data());

  // Scratch tuples after the run, then relation tuples again: once paged,
  // the store stays paged.
  const std::vector<Tuple> scratch = MakeTuples(3, 1u << 20);
  TuplePages mixed;
  mixed.Append(relation.data(), run, /*in_relation=*/true);
  mixed.Append(scratch.data(), 3);
  mixed.Append(relation.data() + run, 4, /*in_relation=*/true);
  EXPECT_FALSE(mixed.borrowed());
  std::vector<Tuple> want_mixed = want;
  want_mixed.insert(want_mixed.end(), scratch.begin(), scratch.end());
  want_mixed.insert(want_mixed.end(), relation.begin() + run,
                    relation.begin() + run + 4);
  ExpectReadsAgree(mixed, want_mixed, run);
}

TEST(TuplePagesBorrow, ReadsAgreeInBothStates) {
  const std::vector<Tuple> relation = MakeTuples(2 * kPage + 9);
  const int64_t n = static_cast<int64_t>(relation.size());
  TuplePages borrowed;
  TuplePages paged;
  borrowed.Append(relation.data(), n, /*in_relation=*/true);
  AppendInRuns(&paged, relation, n, 97);
  ASSERT_TRUE(borrowed.borrowed());
  ASSERT_FALSE(paged.borrowed());
  ExpectReadsAgree(borrowed, relation, kPage);
  ExpectReadsAgree(paged, relation, kPage);
  // A read of a borrowed store never touches the caller's buffer.
  Tuple untouched[4];
  untouched[0].rowid = 777;
  EXPECT_EQ(borrowed.Read(kPage - 2, 4, untouched), relation.data() + kPage - 2);
  EXPECT_EQ(untouched[0].rowid, 777u);
  EXPECT_EQ(paged.Read(kPage - 2, 4, untouched), untouched);
  EXPECT_EQ(untouched[0].rowid, static_cast<uint64_t>(kPage - 2));
}

TEST(TuplePagesBorrow, MoveAndClearEndTheBorrow) {
  const std::vector<Tuple> relation = MakeTuples(40);
  TuplePages a;
  a.Append(relation.data(), 30, /*in_relation=*/true);
  TuplePages b(std::move(a));
  EXPECT_FALSE(a.borrowed());
  EXPECT_EQ(a.size(), 0);
  ASSERT_TRUE(b.borrowed());
  EXPECT_EQ(&b[0], relation.data());
  // The moved-from store starts a new borrow of its own.
  a.Append(relation.data() + 30, 5, /*in_relation=*/true);
  EXPECT_TRUE(a.borrowed());
  EXPECT_EQ(&a[0], relation.data() + 30);

  TuplePages c;
  c.Append(relation.data(), 2);
  c = std::move(b);
  EXPECT_FALSE(b.borrowed());
  ASSERT_TRUE(c.borrowed());
  EXPECT_EQ(c.size(), 30);
  EXPECT_EQ(&c[29], relation.data() + 29);

  c.Clear();
  EXPECT_FALSE(c.borrowed());
  EXPECT_EQ(c.size(), 0);
  int64_t spans = 0;
  c.ForEachSpan([&](const Tuple*, int64_t) { ++spans; });
  EXPECT_EQ(spans, 0);
  // A span continuing the cleared run is a fresh borrow, not an extension.
  c.Append(relation.data() + 30, 3, /*in_relation=*/true);
  EXPECT_TRUE(c.borrowed());
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(&c[0], relation.data() + 30);

  // AppendAll borrows a borrowed store's run and copies a paged one.
  TuplePages all;
  all.AppendAll(c);
  EXPECT_TRUE(all.borrowed());
  EXPECT_EQ(&all[0], relation.data() + 30);
  TuplePages copied;
  copied.AppendAll(a);  // borrowed [30, 35)
  copied.AppendAll(c);  // [30, 33) does not continue it: copies
  EXPECT_FALSE(copied.borrowed());
  ASSERT_EQ(copied.size(), 8);
  EXPECT_EQ(copied[4].rowid, 34u);
  EXPECT_EQ(copied[5].rowid, 30u);
}

#if defined(__SANITIZE_ADDRESS__)
// Pooled pages are poisoned: a stale pointer into a cleared store is caught
// as a use-after-poison instead of silently reading the next owner's data.
TEST(TuplePagesDeathTest, ReadAfterClearAborts) {
  const std::vector<Tuple> tuples = MakeTuples(3);
  TuplePages pages;
  pages.Append(tuples.data(), 3);
  const Tuple* stale = &pages[1];
  pages.Clear();
  EXPECT_DEATH(
      {
        volatile uint64_t rowid = stale->rowid;
        (void)rowid;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace dqsched::storage

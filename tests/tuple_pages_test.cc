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

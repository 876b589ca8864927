#include "exec/hash_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/tuple_pages.h"

namespace dqsched::exec {
namespace {

std::vector<storage::Tuple> TuplesWithKeys(std::vector<int64_t> keys,
                                           int field = 0) {
  std::vector<storage::Tuple> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i].keys[field] = keys[i];
    out[i].rowid = i;
  }
  return out;
}

std::vector<size_t> Matches(const HashIndex& index, int64_t key) {
  std::vector<size_t> out;
  index.ForEachMatch(key, [&](size_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HashIndex, FindsUniqueKeys) {
  const auto tuples = TuplesWithKeys({10, 20, 30});
  HashIndex index;
  index.Build(tuples, 0);
  EXPECT_EQ(Matches(index, 10), std::vector<size_t>{0});
  EXPECT_EQ(Matches(index, 30), std::vector<size_t>{2});
  EXPECT_TRUE(Matches(index, 99).empty());
}

TEST(HashIndex, FindsAllDuplicates) {
  const auto tuples = TuplesWithKeys({5, 5, 7, 5});
  HashIndex index;
  index.Build(tuples, 0);
  EXPECT_EQ(Matches(index, 5), (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(Matches(index, 7), std::vector<size_t>{2});
}

TEST(HashIndex, EmptyBuild) {
  HashIndex index;
  index.Build({}, 0);
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.entry_count(), 0);
  EXPECT_TRUE(Matches(index, 1).empty());
}

TEST(HashIndex, UnbuiltIndexMatchesNothing) {
  HashIndex index;
  EXPECT_FALSE(index.built());
  EXPECT_TRUE(Matches(index, 1).empty());
}

TEST(HashIndex, RespectsKeyField) {
  auto tuples = TuplesWithKeys({1, 2, 3}, /*field=*/2);
  HashIndex index;
  index.Build(tuples, 2);
  EXPECT_EQ(Matches(index, 2), std::vector<size_t>{1});
}

TEST(HashIndex, LargeBuildCompleteAndConsistent) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 50000; ++i) keys.push_back(i % 1000);
  const auto tuples = TuplesWithKeys(keys);
  HashIndex index;
  index.Build(tuples, 0);
  for (int64_t k = 0; k < 1000; k += 97) {
    EXPECT_EQ(Matches(index, k).size(), 50u);
  }
}

// EstimateBytes is the simulated memory grant and stays pinned at the
// open-addressing figures the cost model was calibrated on; the host
// layout is decoupled from it and only has to fit inside it.
TEST(HashIndex, MemoryEstimateMatchesAllocation) {
  EXPECT_EQ(HashIndex::EstimateBytes(0), 256);
  EXPECT_EQ(HashIndex::EstimateBytes(1000), 32768);
  EXPECT_EQ(HashIndex::EstimateBytes(100000), 4194304);
  for (int64_t n : {0, 1, 7, 8, 9, 1000, 1023, 1024, 1025, 100000}) {
    const auto tuples = TuplesWithKeys(std::vector<int64_t>(n, 1));
    HashIndex index;
    index.Build(tuples, 0);
    EXPECT_GT(index.AllocatedBytes(), 0) << n;
    EXPECT_LE(index.AllocatedBytes(), HashIndex::EstimateBytes(n)) << n;
  }
}

storage::TuplePages PagesOf(const std::vector<storage::Tuple>& tuples) {
  storage::TuplePages pages;
  pages.Append(tuples.data(), static_cast<int64_t>(tuples.size()));
  return pages;
}

// The adoption oracle: an index matches the rows it was built over, and
// neither a reordering of those rows nor a changed rowid.
TEST(HashIndex, MatchesOnlyTheRowsItWasBuiltOver) {
  const auto tuples = TuplesWithKeys({4, 9, 4, 1, 9, 4});
  HashIndex index;
  EXPECT_FALSE(index.Matches(PagesOf(tuples), 0));  // unbuilt
  index.Build(tuples, 0);
  EXPECT_TRUE(index.Matches(PagesOf(tuples), 0));

  auto reordered = tuples;
  std::swap(reordered[0], reordered[1]);
  EXPECT_FALSE(index.Matches(PagesOf(reordered), 0));

  auto changed = tuples;
  changed[3].rowid += 100;
  EXPECT_FALSE(index.Matches(PagesOf(changed), 0));

  auto shorter = tuples;
  shorter.pop_back();
  EXPECT_FALSE(index.Matches(PagesOf(shorter), 0));
  // The same rows keyed on another field.
  EXPECT_FALSE(index.Matches(PagesOf(tuples), 1));
}

TEST(HashIndex, NegativeKeys) {
  const auto tuples = TuplesWithKeys({-5, -5, 0});
  HashIndex index;
  index.Build(tuples, 0);
  EXPECT_EQ(Matches(index, -5).size(), 2u);
  EXPECT_EQ(Matches(index, 0).size(), 1u);
}

// --- Differential test against an insertion-ordered reference ----------
//
// The reference maps each key to the indexes that carry it, in insertion
// order. Every probe API must return exactly that sequence: the order is
// what keeps the executors' output (and so every charge) byte-identical.

using Reference = std::map<int64_t, std::vector<size_t>>;

Reference ReferenceOf(const std::vector<storage::Tuple>& tuples, int field) {
  Reference ref;
  for (size_t i = 0; i < tuples.size(); ++i) {
    ref[tuples[i].keys[field]].push_back(i);
  }
  return ref;
}

/// `n` tuples keyed on field 1 by `key_of(i)`, with distinct rowids.
template <typename KeyOf>
std::vector<storage::Tuple> KeyedTuples(int64_t n, KeyOf key_of) {
  std::vector<storage::Tuple> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    storage::Tuple& t = out[static_cast<size_t>(i)];
    t.keys[1] = key_of(i);
    t.keys[0] = -i;  // another field, never the key
    t.rowid = storage::Mix64(static_cast<uint64_t>(i) + 99);
  }
  return out;
}

/// Probes every key of `ref` plus keys absent from it through all three
/// APIs and compares each against the reference sequence.
void ExpectMatchesReference(const HashIndex& index,
                            const std::vector<storage::Tuple>& tuples,
                            const Reference& ref,
                            const std::vector<int64_t>& absent) {
  EXPECT_EQ(index.entry_count(), static_cast<int64_t>(tuples.size()));
  auto check = [&](int64_t key, const std::vector<size_t>& want) {
    SCOPED_TRACE("key " + std::to_string(key));
    std::vector<size_t> walked;
    index.ForEachMatch(key, [&](size_t i) { walked.push_back(i); });
    EXPECT_EQ(walked, want);

    uint64_t first = 0;
    const uint32_t count =
        index.CountMatches(index.BucketOf(key), key, &first);
    ASSERT_EQ(count, want.size());
    std::vector<size_t> expanded;
    std::vector<uint64_t> rowids;
    if (count > 0) {
      index.ForEachMatchFromN(first, key, count,
                              [&](const HashIndex::Entry& e) {
                                EXPECT_EQ(e.key, key);
                                expanded.push_back(e.index);
                                rowids.push_back(e.rowid);
                              });
    }
    EXPECT_EQ(expanded, want);
    std::vector<uint64_t> want_rowids;
    for (size_t i : want) want_rowids.push_back(tuples[i].rowid);
    EXPECT_EQ(rowids, want_rowids);
  };
  for (const auto& [key, want] : ref) check(key, want);
  for (int64_t key : absent) {
    if (ref.count(key) == 0) check(key, {});
  }
}

/// Builds `tuples` through both overloads (a vector and TuplePages) and
/// checks each against the reference.
void ExpectBothBuildsMatch(const std::vector<storage::Tuple>& tuples,
                           const std::vector<int64_t>& absent) {
  const int kField = 1;
  const Reference ref = ReferenceOf(tuples, kField);
  {
    SCOPED_TRACE("vector build");
    HashIndex index;
    index.Build(tuples, kField);
    ExpectMatchesReference(index, tuples, ref, absent);
  }
  {
    SCOPED_TRACE("paged build");
    storage::TuplePages pages;
    pages.Append(tuples.data(), static_cast<int64_t>(tuples.size()));
    HashIndex index;
    index.Build(pages, kField);
    ExpectMatchesReference(index, tuples, ref, absent);
  }
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

class HashIndexDifferential : public ::testing::TestWithParam<int64_t> {};

TEST_P(HashIndexDifferential, UniqueKeys) {
  Rng rng(1);
  const int64_t n = GetParam();
  std::vector<int64_t> keys(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) keys[static_cast<size_t>(i)] = 3 * i + 1;
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  ExpectBothBuildsMatch(
      KeyedTuples(n, [&](int64_t i) { return keys[static_cast<size_t>(i)]; }),
      {0, 2, -1, 3 * n + 1, kMin, kMax});
}

TEST_P(HashIndexDifferential, FanoutFour) {
  Rng rng(2);
  const int64_t n = GetParam();
  const uint64_t domain = static_cast<uint64_t>(n / 4 + 1);
  ExpectBothBuildsMatch(KeyedTuples(n,
                                    [&](int64_t) {
                                      return static_cast<int64_t>(
                                          rng.Uniform(domain));
                                    }),
                        {-1, static_cast<int64_t>(domain), kMax});
}

TEST_P(HashIndexDifferential, ThreeDistinctKeys) {
  Rng rng(3);
  ExpectBothBuildsMatch(
      KeyedTuples(GetParam(),
                  [&](int64_t) {
                    return static_cast<int64_t>(rng.Uniform(3)) * 1000;
                  }),
      {1, 999, 3000});
}

TEST_P(HashIndexDifferential, NegativeKeys) {
  Rng rng(4);
  const uint64_t domain = static_cast<uint64_t>(GetParam() / 2 + 1);
  ExpectBothBuildsMatch(KeyedTuples(GetParam(),
                                    [&](int64_t) {
                                      return -1 - static_cast<int64_t>(
                                                      rng.Uniform(domain));
                                    }),
                        {0, 1, -static_cast<int64_t>(domain) - 1});
}

TEST_P(HashIndexDifferential, ExtremeKeys) {
  Rng rng(5);
  const int64_t extremes[] = {kMin, kMax, kMin + 1, kMax - 1, 0};
  ExpectBothBuildsMatch(KeyedTuples(GetParam(),
                                    [&](int64_t) {
                                      return extremes[rng.Uniform(5)];
                                    }),
                        {1, -1, kMin + 2, kMax - 2});
}

INSTANTIATE_TEST_SUITE_P(Sizes, HashIndexDifferential,
                         ::testing::Values(0, 1, 1023, 1024, 1025, 50000));

/// A rebuild of one index over different rows forgets the previous rows,
/// whether it shrinks or grows.
TEST(HashIndex, RebuildReplacesContent) {
  HashIndex index;
  const auto big = KeyedTuples(5000, [](int64_t i) { return i % 7; });
  const auto small = KeyedTuples(10, [](int64_t i) { return 100 + i % 3; });
  index.Build(big, 1);
  index.Build(small, 1);
  ExpectMatchesReference(index, small, ReferenceOf(small, 1), {0, 6});
  index.Build(big, 1);
  ExpectMatchesReference(index, big, ReferenceOf(big, 1), {100, 7});
}

}  // namespace
}  // namespace dqsched::exec

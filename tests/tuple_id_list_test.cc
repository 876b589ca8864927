// TupleIdList semantics: bit-vector correctness across word boundaries,
// the full/partial/empty transitions, and the ascending iteration
// order the kernels' determinism contract leans on.

#include "exec/tuple_id_list.h"

#include <gtest/gtest.h>

#include <vector>

namespace dqsched::exec {
namespace {

TEST(TupleIdList, StartsEmptyAndAddAllFills) {
  TupleIdList list;
  list.Resize(100);
  EXPECT_EQ(list.capacity(), 100u);
  EXPECT_EQ(list.Count(), 0u);
  EXPECT_TRUE(list.Empty());
  EXPECT_FALSE(list.Full());

  list.AddAll();
  EXPECT_EQ(list.Count(), 100u);
  EXPECT_TRUE(list.Full());
  for (uint32_t i = 0; i < 100; ++i) EXPECT_TRUE(list.Contains(i));
}

TEST(TupleIdList, AddAllMasksThePartialLastWord) {
  // Capacity 70 leaves 6 live bits in the second word; the 58 dead bits
  // must stay zero or Count/ForEach would invent tuples.
  TupleIdList list;
  list.Resize(70);
  list.AddAll();
  EXPECT_EQ(list.Count(), 70u);
  uint32_t seen = 0;
  list.ForEach([&](uint32_t id) {
    EXPECT_LT(id, 70u);
    ++seen;
  });
  EXPECT_EQ(seen, 70u);
}

TEST(TupleIdList, ExactWordCapacities) {
  for (uint32_t cap : {1u, 63u, 64u, 65u, 127u, 128u}) {
    TupleIdList list;
    list.Resize(cap);
    list.AddAll();
    EXPECT_EQ(list.Count(), cap) << cap;
    list.Refine([](uint32_t) { return true; });
    EXPECT_EQ(list.Count(), cap) << cap;
    EXPECT_TRUE(list.Full()) << cap;
  }
}

TEST(TupleIdList, AddIsIdempotentOnCount) {
  TupleIdList list;
  list.Resize(10);
  list.Add(3);
  list.Add(3);
  list.Add(7);
  EXPECT_EQ(list.Count(), 2u);
  EXPECT_TRUE(list.Contains(3));
  EXPECT_TRUE(list.Contains(7));
  EXPECT_FALSE(list.Contains(4));
}

TEST(TupleIdList, RefineFromFullUsesTheDensePathCorrectly) {
  TupleIdList list;
  list.Resize(200);
  list.AddAll();
  list.Refine([](uint32_t id) { return id % 3 == 0; });
  EXPECT_EQ(list.Count(), 67u);  // 0, 3, ..., 198
  EXPECT_FALSE(list.Full());
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(list.Contains(i), i % 3 == 0) << i;
  }
}

TEST(TupleIdList, RefinePartialSkipsZeroWordsWithoutLosingBits) {
  TupleIdList list;
  list.Resize(512);
  // Only word 3 (ids 192..255) populated; words 0-2 and 4-7 are zero and
  // must be skipped, not misread.
  for (uint32_t i = 192; i < 256; ++i) list.Add(i);
  EXPECT_EQ(list.Count(), 64u);
  uint32_t calls = 0;
  list.Refine([&](uint32_t id) {
    ++calls;
    return id < 224;
  });
  EXPECT_EQ(calls, 64u);  // predicate ran only on selected ids
  EXPECT_EQ(list.Count(), 32u);
}

TEST(TupleIdList, FullToPartialToEmptyTransitions) {
  TupleIdList list;
  list.Resize(64);
  list.AddAll();
  EXPECT_TRUE(list.Full());
  list.Refine([](uint32_t id) { return id < 32; });
  EXPECT_FALSE(list.Full());
  EXPECT_FALSE(list.Empty());
  list.Refine([](uint32_t) { return false; });
  EXPECT_TRUE(list.Empty());
  uint32_t calls = 0;
  list.Refine([&](uint32_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);  // nothing left to evaluate
  EXPECT_TRUE(list.Empty());
}

TEST(TupleIdList, ForEachAndMaterializeAreAscending) {
  TupleIdList list;
  list.Resize(300);
  // Insert out of order; iteration must still be ascending.
  for (uint32_t id : {299u, 0u, 65u, 64u, 128u, 13u}) list.Add(id);
  std::vector<uint32_t> seen;
  list.ForEach([&](uint32_t id) { seen.push_back(id); });
  const std::vector<uint32_t> want = {0, 13, 64, 65, 128, 299};
  EXPECT_EQ(seen, want);

  std::vector<uint32_t> mat(list.Count());
  EXPECT_EQ(list.Materialize(mat.data()), 6u);
  EXPECT_EQ(mat, want);
}

TEST(TupleIdList, ResizeReusesStorageAndClears) {
  TupleIdList list;
  list.Resize(256);
  list.AddAll();
  list.Resize(32);  // shrink: must clear, not inherit stale bits
  EXPECT_EQ(list.capacity(), 32u);
  EXPECT_TRUE(list.Empty());
  list.AddAll();
  EXPECT_EQ(list.Count(), 32u);
  list.Resize(256);  // grow again within the old high-water mark
  EXPECT_TRUE(list.Empty());
}

}  // namespace
}  // namespace dqsched::exec

#include "exec/hash_index.h"

#include "common/macros.h"

namespace dqsched::exec {

uint64_t HashIndex::BucketCountFor(int64_t n) {
  uint64_t buckets = 8;
  while (static_cast<int64_t>(buckets) < n) buckets <<= 1;
  return buckets;
}

int64_t HashIndex::EstimateBytes(int64_t n) {
  // 2 x BucketCountFor(n) slots of 16 bytes (load factor <= 0.5). The
  // host layout takes 24 bytes per entry plus 4 per bucket, at most 28
  // per bucket.
  return static_cast<int64_t>(2 * BucketCountFor(n) * 16);
}

void HashIndex::Build(const std::vector<storage::Tuple>& tuples, int field) {
  const int64_t n = static_cast<int64_t>(tuples.size());
  Reset(n, field);
  CountRun(tuples.data(), n, field);
  PrefixSum();
  ScatterRun(tuples.data(), n, 0, field);
}

void HashIndex::Reset(int64_t n, int field) {
  DQS_CHECK_MSG(field >= 0 && field < storage::kTupleKeyFields,
                "bad key field %d", field);
  DQS_CHECK_MSG(n < (int64_t{1} << 31),
                "hash index capped at 2^31 entries (32-bit positions)");
  const uint64_t buckets = BucketCountFor(n);
  offsets_.assign(buckets + 2, 0);
  mask_ = buckets - 1;
  if (n > capacity_) {
    entries_ =
        std::make_unique_for_overwrite<Entry[]>(static_cast<size_t>(n));
    capacity_ = n;
  }
  size_ = n;
}

void HashIndex::CountRun(const storage::Tuple* run, int64_t n, int field) {
  uint32_t* counts = offsets_.data() + 2;
  const size_t f = static_cast<size_t>(field);
  for (int64_t i = 0; i < n; ++i) ++counts[BucketOf(run[i].keys[f])];
}

void HashIndex::PrefixSum() {
  for (size_t b = 2; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
}

void HashIndex::ScatterRun(const storage::Tuple* run, int64_t n,
                           int64_t base, int field) {
  uint32_t* cursors = offsets_.data() + 1;
  const size_t f = static_cast<size_t>(field);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t key = run[i].keys[f];
    Entry& e = entries_[cursors[BucketOf(key)]++];
    e.key = key;
    e.rowid = run[i].rowid;
    e.index = static_cast<uint32_t>(base + i);
  }
}

}  // namespace dqsched::exec

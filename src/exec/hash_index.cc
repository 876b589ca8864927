#include "exec/hash_index.h"

#include "common/macros.h"

namespace dqsched::exec {

uint64_t HashIndex::SlotCountFor(int64_t n) {
  // Load factor <= 0.5, minimum 16 slots, power of two.
  uint64_t want = static_cast<uint64_t>(n < 8 ? 8 : n) * 2;
  uint64_t slots = 16;
  while (slots < want) slots <<= 1;
  return slots;
}

int64_t HashIndex::EstimateBytes(int64_t n) {
  return static_cast<int64_t>(SlotCountFor(n) * sizeof(Slot));
}

void HashIndex::Build(const std::vector<storage::Tuple>& tuples, int field) {
  const int64_t n = static_cast<int64_t>(tuples.size());
  Reset(n, field);
  InsertRun(tuples.data(), n, 0, field);
}

void HashIndex::Reset(int64_t n, int field) {
  DQS_CHECK_MSG(field >= 0 && field < storage::kTupleKeyFields,
                "bad key field %d", field);
  DQS_CHECK_MSG(n < (int64_t{1} << 31),
                "hash index capped at 2^31 entries (32-bit slot index)");
  slots_.assign(SlotCountFor(n), Slot{});
  entries_ = n;
  built_ = true;
}

void HashIndex::InsertRun(const storage::Tuple* run, int64_t n,
                          int64_t base, int field) {
  const uint64_t mask = slots_.size() - 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t key = run[i].keys[static_cast<size_t>(field)];
    uint64_t pos = storage::Mix64(static_cast<uint64_t>(key)) & mask;
    // The insertion walk passes every earlier entry of its run, so the
    // key's first occurrence (if any) is seen on the way to the empty
    // slot; its `count` accumulates the duplicate total the vectorized
    // probe's count pass reads in O(1).
    uint64_t first = kNoMatch;
    while (slots_[pos].index >= 0) {
      if (first == kNoMatch && slots_[pos].key == key) first = pos;
      pos = (pos + 1) & mask;
    }
    slots_[pos].key = key;
    slots_[pos].index = static_cast<int32_t>(base + i);
    if (first == kNoMatch) {
      slots_[pos].count = 1;
    } else {
      ++slots_[first].count;
    }
  }
}

}  // namespace dqsched::exec

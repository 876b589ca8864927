// Open-addressing hash index over a build operand's tuples.
//
// Built once when a probe chain opens, probed many times, never mutated
// afterwards. Duplicate keys are stored as separate entries; a probe walks
// the run of its home slot collecting every match (linear probing keeps
// equal keys clustered, so lookups touch a contiguous slot range).

#ifndef DQSCHED_EXEC_HASH_INDEX_H_
#define DQSCHED_EXEC_HASH_INDEX_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "sim/cost_model.h"
#include "storage/tuple.h"
#include "storage/tuple_pages.h"

namespace dqsched::exec {

/// Maps int64 keys to indexes into the operand's tuple vector.
class HashIndex {
 public:
  HashIndex() = default;

  /// Builds the index over `tuples` keyed on keys[field]. Any previous
  /// content is discarded.
  void Build(const std::vector<storage::Tuple>& tuples, int field);

  /// The same build over a paged operand, one page run at a time. A
  /// template only so that `Build({}, field)` still resolves to the vector
  /// overload: `{}` deduces no template argument.
  template <std::same_as<storage::TuplePages> Pages>
  void Build(const Pages& tuples, int field) {
    Reset(tuples.size(), field);
    int64_t base = 0;
    tuples.ForEachSpan([&](const storage::Tuple* run, int64_t n) {
      InsertRun(run, n, base, field);
      base += n;
    });
  }

  /// Invokes fn(size_t index) for every entry whose key equals `key`.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    if (slots_.empty()) return;
    const uint64_t mask = slots_.size() - 1;
    uint64_t pos = storage::Mix64(static_cast<uint64_t>(key)) & mask;
    while (slots_[pos].index >= 0) {
      if (slots_[pos].key == key) fn(static_cast<size_t>(slots_[pos].index));
      pos = (pos + 1) & mask;
    }
  }

  /// Hints the cache to load `key`'s home slot. Issue it one probe ahead
  /// of ForEachMatch so the slot line is resident when the walk starts.
  void Prefetch(int64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (slots_.empty()) return;
    const uint64_t mask = slots_.size() - 1;
    __builtin_prefetch(
        &slots_[storage::Mix64(static_cast<uint64_t>(key)) & mask]);
#else
    (void)key;
#endif
  }

  /// `key`'s home slot position — the hash half of a probe, split out so a
  /// vectorized kernel can hash a whole batch (issuing prefetches) before
  /// walking any run. Only valid while the index is built and non-empty.
  uint64_t HomeSlot(int64_t key) const {
    return storage::Mix64(static_cast<uint64_t>(key)) & (slots_.size() - 1);
  }

  /// Hints the cache to load slot `pos` (a HomeSlot result).
  void PrefetchSlot(uint64_t pos) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[pos]);
#else
    (void)pos;
#endif
  }

  /// No-match sentinel for FindFirstMatchFrom.
  static constexpr uint64_t kNoMatch = ~uint64_t{0};

  /// Walks the run from `pos` (key's HomeSlot) and returns the position of
  /// the first entry matching `key`, or kNoMatch. The hash+count pass of a
  /// two-pass vectorized probe stops here: the first occurrence's slot
  /// carries the build-time duplicate count, so the pass never walks past
  /// the first hit.
  uint64_t FindFirstMatchFrom(uint64_t pos, int64_t key) const {
    const uint64_t mask = slots_.size() - 1;
    while (slots_[pos].index >= 0) {
      if (slots_[pos].key == key) return pos;
      pos = (pos + 1) & mask;
    }
    return kNoMatch;
  }

  /// Number of entries sharing the key of the entry at `pos`. Only valid
  /// when `pos` is a FindFirstMatchFrom result (the first occurrence of
  /// its key — later duplicates carry 0).
  uint32_t MatchCountAt(uint64_t pos) const { return slots_[pos].count; }

  /// Invokes fn(size_t index) for exactly `n` matches of `key`, walking
  /// the run from `pos` (a FindFirstMatchFrom result) in the same order as
  /// ForEachMatch and stopping as soon as the n-th match is collected.
  template <typename Fn>
  void ForEachMatchFromN(uint64_t pos, int64_t key, uint32_t n,
                         Fn&& fn) const {
    const uint64_t mask = slots_.size() - 1;
    while (n > 0) {
      if (slots_[pos].key == key && slots_[pos].index >= 0) {
        fn(static_cast<size_t>(slots_[pos].index));
        --n;
      }
      pos = (pos + 1) & mask;
    }
  }

  int64_t entry_count() const { return entries_; }
  bool built() const { return built_; }

  /// Bytes this index occupies (matches EstimateBytes for the same n).
  int64_t AllocatedBytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(Slot));
  }

  /// Memory an index over `n` entries will occupy — the quantity granted
  /// from the accountant before building. Consistent with
  /// CostModel::hash_index_entry_bytes (2x slots at 16 bytes).
  static int64_t EstimateBytes(int64_t n);

  void Clear() {
    slots_.clear();
    slots_.shrink_to_fit();
    entries_ = 0;
    built_ = false;
  }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t index = -1;   // -1 = empty
    uint32_t count = 0;   // duplicate count, on the key's first occurrence
  };
  static_assert(sizeof(Slot) == 16, "slot layout drives memory accounting");

  static uint64_t SlotCountFor(int64_t n);

  /// Discards any content and sizes the slots for `n` entries.
  void Reset(int64_t n, int field);
  /// Inserts run[0, n) as entries base .. base + n - 1.
  void InsertRun(const storage::Tuple* run, int64_t n, int64_t base,
                 int field);

  std::vector<Slot> slots_;
  int64_t entries_ = 0;
  bool built_ = false;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_HASH_INDEX_H_

// Bucket-sorted hash index over a build operand's tuples.
//
// Built once when a probe chain opens, probed many times, never mutated
// afterwards. The build is a counting sort: it hashes every row to a
// bucket, takes a prefix sum of the bucket sizes, and scatters the rows
// into their buckets in one stable pass. A bucket is one contiguous run of
// entries, and the scatter keeps the rows of a bucket in input order, so a
// key's matches come out in insertion order. Every entry carries the build
// tuple's key, rowid and index: a probe that needs only the rowid never
// touches the operand's tuples.

#ifndef DQSCHED_EXEC_HASH_INDEX_H_
#define DQSCHED_EXEC_HASH_INDEX_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/tuple.h"
#include "storage/tuple_pages.h"

namespace dqsched::exec {

/// Maps int64 keys to the build tuples that carry them.
class HashIndex {
 public:
  /// One build row.
  struct Entry {
    int64_t key;
    uint64_t rowid;  // the build tuple's rowid
    uint32_t index;  // the build tuple's position in the operand
  };
  static_assert(sizeof(Entry) == 24, "entry layout drives host bytes");

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
    tuples.ForEachSpan([&](const storage::Tuple* run, int64_t n) {
      CountRun(run, n, field);
    });
    PrefixSum();
    int64_t base = 0;
    tuples.ForEachSpan([&](const storage::Tuple* run, int64_t n) {
      ScatterRun(run, n, base, field);
      base += n;
    });
  }

  /// Invokes fn(size_t index) for every entry whose key equals `key`, in
  /// insertion order.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    if (!built()) return;
    const uint64_t b = BucketOf(key);
    const uint32_t end = offsets_[b + 1];
    for (uint32_t i = offsets_[b]; i < end; ++i) {
      if (entries_[i].key == key) fn(static_cast<size_t>(entries_[i].index));
    }
  }

  /// Hints the cache to load `key`'s bucket bounds. Call it one probe
  /// ahead of ForEachMatch.
  void Prefetch(int64_t key) const {
    if (built()) PrefetchBucket(BucketOf(key));
  }

  /// `key`'s bucket — the hash half of a probe, split out so a vectorized
  /// kernel can hash a whole batch (issuing prefetches) before scanning
  /// any bucket. Only valid while the index is built.
  uint64_t BucketOf(int64_t key) const {
    return storage::Mix64(static_cast<uint64_t>(key)) & mask_;
  }

  /// Hints the cache to load the bounds of `bucket` (a BucketOf result).
  void PrefetchBucket(uint64_t bucket) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&offsets_[bucket]);
#else
    (void)bucket;
#endif
  }

  /// The count pass of a two-pass probe: returns the number of entries of
  /// `bucket` (key's BucketOf) whose key equals `key`, and stores the
  /// position of the first of them in *first.
  uint32_t CountMatches(uint64_t bucket, int64_t key, uint64_t* first) const {
    uint32_t i = offsets_[bucket];
    const uint32_t end = offsets_[bucket + 1];
    while (i < end && entries_[i].key != key) ++i;
    *first = i;
    uint32_t n = 0;
    for (; i < end; ++i) n += entries_[i].key == key ? 1 : 0;
    return n;
  }

  /// The expansion pass: invokes fn(const Entry&) for exactly the `n`
  /// matches of `key` counted from `first` (a CountMatches result), in the
  /// same order as ForEachMatch.
  template <typename Fn>
  void ForEachMatchFromN(uint64_t first, int64_t key, uint32_t n,
                         Fn&& fn) const {
    for (const Entry* e = &entries_[first]; n > 0; ++e) {
      if (e->key == key) {
        fn(*e);
        --n;
      }
    }
  }

  int64_t entry_count() const { return size_; }
  bool built() const { return !offsets_.empty(); }

  /// Host bytes this index holds; never above EstimateBytes of the largest
  /// n built since the last Clear (a rebuild keeps the larger capacity).
  int64_t AllocatedBytes() const {
    return capacity_ * static_cast<int64_t>(sizeof(Entry)) +
           static_cast<int64_t>(offsets_.capacity() * sizeof(uint32_t));
  }

  /// Memory an index over `n` entries is granted from the accountant
  /// before building — the simulated grant, sized for the open-addressing
  /// table CostModel::hash_index_entry_bytes was calibrated on. It is
  /// fixed independently of the host layout, which stays below it.
  static int64_t EstimateBytes(int64_t n);

  void Clear() {
    offsets_.clear();
    offsets_.shrink_to_fit();
    entries_.reset();
    capacity_ = 0;
    size_ = 0;
    mask_ = 0;
  }

 private:
  /// Buckets for `n` entries: a power of two, at least n and at least 8.
  static uint64_t BucketCountFor(int64_t n);

  /// Discards any content, sizes the entries for `n` rows and zeroes the
  /// bucket counts.
  void Reset(int64_t n, int field);
  /// Counts the rows of run[0, n) into their buckets.
  void CountRun(const storage::Tuple* run, int64_t n, int field);
  /// Turns the bucket counts into each bucket's first free position.
  void PrefixSum();
  /// Places run[0, n) as entries base .. base + n - 1, each at its
  /// bucket's next free position.
  void ScatterRun(const storage::Tuple* run, int64_t n, int64_t base,
                  int field);

  /// Bucket b holds entries [offsets_[b], offsets_[b + 1]). During the
  /// build, offsets_[b + 2] counts bucket b and offsets_[b + 1] is its
  /// scatter cursor, which ends at the bucket's end: the array needs no
  /// second pass to turn cursors back into bounds.
  std::vector<uint32_t> offsets_;
  /// Not value-initialized: the scatter writes every entry before any
  /// probe reads it.
  std::unique_ptr<Entry[]> entries_;
  int64_t capacity_ = 0;
  int64_t size_ = 0;
  uint64_t mask_ = 0;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_HASH_INDEX_H_

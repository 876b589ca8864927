// Paged tuple storage for operands and temp relations.
//
// A TuplePages is an append-only tuple sequence kept in fixed pages of
// kPageTuples tuples. Pages come from one process-wide free list that never
// hands memory back to the operating system, so the next query's operands
// and temps reuse pages the last one released instead of faulting fresh
// memory in, and a store never copies its tuples to grow. Every page has the
// same size, so the free list never holds more pages than were live at once.
//
// Host pages are unrelated to the simulated disk pages of the cost model:
// every simulated charge depends on tuple counts only.

#ifndef DQSCHED_STORAGE_TUPLE_PAGES_H_
#define DQSCHED_STORAGE_TUPLE_PAGES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace dqsched::storage {

/// Append-only tuple sequence in pooled fixed-size pages. Not thread-safe
/// itself; distinct stores may be used from distinct threads (the shared
/// page pool is locked).
class TuplePages {
 public:
  /// Tuples per page (a power of two: indexing is a shift and a mask).
  static constexpr int64_t kPageTuples = 1024;

  TuplePages() = default;
  ~TuplePages() { Clear(); }
  TuplePages(TuplePages&& other) noexcept;
  TuplePages& operator=(TuplePages&& other) noexcept;
  TuplePages(const TuplePages&) = delete;
  TuplePages& operator=(const TuplePages&) = delete;

  int64_t size() const { return size_; }

  const Tuple& operator[](size_t i) const {
    return pages_[i / kPageTuples][i % kPageTuples];
  }

  /// Appends `n` tuples, taking pages from the pool as the tail fills.
  void Append(const Tuple* data, int64_t n);

  /// Copies tuples [from, from + n) into `out`; the range must lie within
  /// size().
  void CopyOut(int64_t from, Tuple* out, int64_t n) const;

  /// Invokes fn(const Tuple* run, int64_t n) once per page, in order, with
  /// the page's filled run; the runs cover exactly size() tuples.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    int64_t left = size_;
    for (const Tuple* page : pages_) {
      const int64_t n = left < kPageTuples ? left : kPageTuples;
      fn(page, n);
      left -= n;
    }
  }

  /// Empties the store and returns its pages to the pool.
  void Clear();

 private:
  std::vector<Tuple*> pages_;
  int64_t size_ = 0;
};

}  // namespace dqsched::storage

#endif  // DQSCHED_STORAGE_TUPLE_PAGES_H_

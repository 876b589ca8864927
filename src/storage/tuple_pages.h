// Paged tuple storage for operands and temp relations.
//
// A TuplePages is an append-only tuple sequence kept in fixed pages of
// kPageTuples tuples. Pages come from one process-wide free list that never
// hands memory back to the operating system, so the next query's operands
// and temps reuse pages the last one released instead of faulting fresh
// memory in, and a store never copies its tuples to grow. Every page has the
// same size, so the free list never holds more pages than were live at once.
//
// A store may instead hold one borrowed run: consecutive tuples of a source
// relation, kept by pointer (DESIGN.md §5). Relations are immutable and
// outlive every store that borrows from them, so an unfiltered stream from
// a source costs no copy and no page until something else is appended.
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

/// Append-only tuple sequence in pooled fixed-size pages, or one borrowed
/// run of a source relation. Not thread-safe itself; distinct stores may
/// be used from distinct threads (the shared page pool is locked).
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

  /// True while the store holds a borrowed run instead of pages.
  bool borrowed() const { return run_ != nullptr; }

  const Tuple& operator[](size_t i) const {
    if (run_ != nullptr) return run_[i];
    return pages_[i / kPageTuples][i % kPageTuples];
  }

  /// Appends `n` tuples. `in_relation` says they are a span of a source
  /// relation, which outlives the store: an empty store then borrows them
  /// and a span that continues its borrowed run extends it. Any other
  /// append copies, moving a borrowed run into pages first.
  void Append(const Tuple* data, int64_t n, bool in_relation = false);

  /// Copies tuples [from, from + n) into `out`; the range must lie within
  /// size().
  void CopyOut(int64_t from, Tuple* out, int64_t n) const;

  /// Tuples [from, from + n) as one contiguous span: in place when the
  /// store is borrowed, otherwise copied into `out` (room for `n`).
  const Tuple* Read(int64_t from, int64_t n, Tuple* out) const;

  /// Invokes fn(const Tuple* run, int64_t n) once per page (once for a
  /// borrowed run), in order, with the filled run; the runs cover exactly
  /// size() tuples.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    if (run_ != nullptr) {
      fn(run_, size_);
      return;
    }
    int64_t left = size_;
    for (const Tuple* page : pages_) {
      const int64_t n = left < kPageTuples ? left : kPageTuples;
      fn(page, n);
      left -= n;
    }
  }

  /// Appends every tuple of `other`, borrowing its run when it is
  /// borrowed (the run's relation outlives both stores).
  void AppendAll(const TuplePages& other) {
    other.ForEachSpan([this, &other](const Tuple* run, int64_t n) {
      Append(run, n, other.borrowed());
    });
  }

  /// Empties the store, returning its pages to the pool or ending its
  /// borrow.
  void Clear();

 private:
  /// Copies the borrowed run into pooled pages.
  void CopyRun();

  const Tuple* run_ = nullptr;  // the borrowed run; pages_ is then empty
  std::vector<Tuple*> pages_;
  int64_t size_ = 0;
};

}  // namespace dqsched::storage

#endif  // DQSCHED_STORAGE_TUPLE_PAGES_H_

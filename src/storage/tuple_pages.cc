#include "storage/tuple_pages.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <mutex>
#include <new>
#include <utility>

#include "common/macros.h"

namespace dqsched::storage {
namespace {

constexpr size_t kPageBytes = sizeof(Tuple) * TuplePages::kPageTuples;

/// The process-wide free list of pages. A pool per execution would die with
/// its query and a thread-local one with its thread (the parallel runner
/// starts fresh threads every round), so both would hand their pages back
/// to the allocator, which returns them to the OS. Pooled pages are
/// poisoned so AddressSanitizer reports a read through a stale store; the
/// destructor frees them at exit so the leak checker sees none.
class PagePool {
 public:
  ~PagePool() {
    for (Tuple* page : free_) {
      ASAN_UNPOISON_MEMORY_REGION(page, kPageBytes);
      ::operator delete(page);
    }
  }

  Tuple* Take() {
    Tuple* page = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        page = free_.back();
        free_.pop_back();
      }
    }
    if (page == nullptr) {
      return static_cast<Tuple*>(::operator new(kPageBytes));
    }
    ASAN_UNPOISON_MEMORY_REGION(page, kPageBytes);
    return page;
  }

  void Give(const std::vector<Tuple*>& pages) {
    for (Tuple* page : pages) ASAN_POISON_MEMORY_REGION(page, kPageBytes);
    std::lock_guard<std::mutex> lock(mu_);
    free_.insert(free_.end(), pages.begin(), pages.end());
  }

 private:
  std::mutex mu_;
  std::vector<Tuple*> free_;  // guarded by mu_
};

PagePool& Pool() {
  static PagePool pool;
  return pool;
}

}  // namespace

TuplePages::TuplePages(TuplePages&& other) noexcept
    : run_(std::exchange(other.run_, nullptr)),
      pages_(std::move(other.pages_)),
      size_(std::exchange(other.size_, 0)) {
  other.pages_.clear();
}

TuplePages& TuplePages::operator=(TuplePages&& other) noexcept {
  if (this != &other) {
    Clear();
    run_ = std::exchange(other.run_, nullptr);
    pages_ = std::move(other.pages_);
    other.pages_.clear();
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void TuplePages::Append(const Tuple* data, int64_t n, bool in_relation) {
  if (n <= 0) return;
  if (in_relation) {
    if (size_ == 0) {
      run_ = data;
      size_ = n;
      return;
    }
    if (run_ != nullptr && data == run_ + size_) {
      size_ += n;
      return;
    }
  }
  if (run_ != nullptr) CopyRun();
  while (n > 0) {
    const int64_t offset = size_ % kPageTuples;
    if (offset == 0) pages_.push_back(Pool().Take());
    const int64_t take = std::min(n, kPageTuples - offset);
    std::copy_n(data, take, pages_.back() + offset);
    data += take;
    n -= take;
    size_ += take;
  }
}

void TuplePages::CopyRun() {
  const Tuple* run = std::exchange(run_, nullptr);
  const int64_t n = std::exchange(size_, 0);
  Append(run, n);
}

void TuplePages::CopyOut(int64_t from, Tuple* out, int64_t n) const {
  DQS_DCHECK_MSG(from >= 0 && n >= 0 && from + n <= size_,
                 "CopyOut [%lld, +%lld) of %lld tuples",
                 static_cast<long long>(from), static_cast<long long>(n),
                 static_cast<long long>(size_));
  if (run_ != nullptr) {
    std::copy_n(run_ + from, n, out);
    return;
  }
  while (n > 0) {
    const int64_t offset = from % kPageTuples;
    const int64_t take = std::min(n, kPageTuples - offset);
    std::copy_n(pages_[static_cast<size_t>(from / kPageTuples)] + offset,
                take, out);
    from += take;
    out += take;
    n -= take;
  }
}

const Tuple* TuplePages::Read(int64_t from, int64_t n, Tuple* out) const {
  if (run_ == nullptr) {
    CopyOut(from, out, n);
    return out;
  }
  DQS_DCHECK_MSG(from >= 0 && n >= 0 && from + n <= size_,
                 "Read [%lld, +%lld) of %lld tuples",
                 static_cast<long long>(from), static_cast<long long>(n),
                 static_cast<long long>(size_));
  return run_ + from;
}

void TuplePages::Clear() {
  if (!pages_.empty()) Pool().Give(pages_);
  pages_.clear();
  run_ = nullptr;
  size_ = 0;
}

}  // namespace dqsched::storage

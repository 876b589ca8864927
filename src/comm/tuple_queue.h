// Bounded per-wrapper tuple queue with window-protocol semantics.
//
// "The query engine ... creates a queue of a given size in order to buffer
// the received tuples. ... If the relevant destination queue is full,
// sub-query processing at the wrapper is suspended" (paper Section 2.1).
// The queue itself is a plain bounded ring buffer; suspension/resumption
// lives in SimWrapper + CommManager.
//
// Layout: power-of-two storage indexed by monotonically increasing absolute
// counters (`pushed_`, `popped_`) masked into the ring. The counters double
// as the lossless-delivery accounting the invariant auditor checks, and the
// bulk PushBatch/PopBatch move spans with at most two memcpy segments
// (storage::Tuple is trivially copyable).

#ifndef DQSCHED_COMM_TUPLE_QUEUE_H_
#define DQSCHED_COMM_TUPLE_QUEUE_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "storage/tuple.h"

namespace dqsched::comm {

static_assert(std::is_trivially_copyable_v<storage::Tuple>,
              "ring-buffer transport memcpys tuples");

/// Bounded FIFO of tuples with producer-close (end of stream) and lossless
/// sequence accounting.
class TupleQueue {
 public:
  explicit TupleQueue(int64_t capacity) : capacity_(capacity) {
    DQS_CHECK_MSG(capacity > 0, "queue capacity must be > 0");
    // Storage rounds up to a power of two so positions are `counter & mask`;
    // `capacity_` still bounds occupancy at the requested (exact) size.
    int64_t storage = 1;
    while (storage < capacity) storage <<= 1;
    mask_ = storage - 1;
    ring_.resize(static_cast<size_t>(storage));
  }

  int64_t capacity() const { return capacity_; }
  int64_t size() const { return pushed_ - popped_; }
  bool Empty() const { return pushed_ == popped_; }
  bool Full() const { return size() >= capacity_; }
  /// Free slots before the producer must suspend.
  int64_t SpaceLeft() const { return capacity_ - size(); }

  /// Enqueues a contiguous span of `n` tuples. Aborts when the span does not
  /// fit or the queue is closed — flow control must be enforced by the
  /// producer (check SpaceLeft() first).
  void PushBatch(const storage::Tuple* src, int64_t n) {
    DQS_CHECK_MSG(n <= SpaceLeft(), "push of %lld into queue with %lld free",
                  static_cast<long long>(n),
                  static_cast<long long>(SpaceLeft()));
    DQS_CHECK_MSG(!producer_closed_, "push into closed queue");
    const int64_t pos = pushed_ & mask_;
    const int64_t ring = mask_ + 1;
    const int64_t first = n < ring - pos ? n : ring - pos;
    std::memcpy(ring_.data() + pos, src,
                static_cast<size_t>(first) * sizeof(storage::Tuple));
    if (n > first) {
      std::memcpy(ring_.data(), src + first,
                  static_cast<size_t>(n - first) * sizeof(storage::Tuple));
    }
    pushed_ += n;
  }

  /// Enqueues one tuple. Bulk producers must use PushBatch (see dqs_analyze);
  /// this remains for tests and single-tuple corner cases.
  void Push(const storage::Tuple& t) { PushBatch(&t, 1); }

  /// Dequeues up to `max` tuples into `out`; returns the count.
  int64_t PopBatch(storage::Tuple* out, int64_t max) {
    int64_t n = size() < max ? size() : max;
    if (n <= 0) return 0;
    const int64_t pos = popped_ & mask_;
    const int64_t ring = mask_ + 1;
    const int64_t first = n < ring - pos ? n : ring - pos;
    std::memcpy(out, ring_.data() + pos,
                static_cast<size_t>(first) * sizeof(storage::Tuple));
    if (n > first) {
      std::memcpy(out + first, ring_.data(),
                  static_cast<size_t>(n - first) * sizeof(storage::Tuple));
    }
    popped_ += n;
    return n;
  }

  /// Producer signals it will deliver nothing more.
  void CloseProducer() { producer_closed_ = true; }
  bool producer_closed() const { return producer_closed_; }

  /// No data now and none ever coming.
  bool Exhausted() const { return producer_closed_ && Empty(); }

  /// Lossless-delivery accounting (invariant tests). The absolute ring
  /// counters are the conservation counters: pushed == popped + size always.
  int64_t total_pushed() const { return pushed_; }
  int64_t total_popped() const { return popped_; }

 private:
  int64_t capacity_;
  int64_t mask_;
  std::vector<storage::Tuple> ring_;
  bool producer_closed_ = false;
  int64_t pushed_ = 0;
  int64_t popped_ = 0;
};

}  // namespace dqsched::comm

#endif  // DQSCHED_COMM_TUPLE_QUEUE_H_

// Bounded per-wrapper queue with window-protocol semantics.
//
// "The query engine ... creates a queue of a given size in order to buffer
// the received tuples. ... If the relevant destination queue is full,
// sub-query processing at the wrapper is suspended" (paper Section 2.1).
// The protocol needs only the queue's occupancy, so this is an occupancy
// window: capacity, absolute pushed/popped counters and the producer-close
// flag, with no tuple storage. The tuples themselves never leave the
// wrapper's relation: a wrapper delivers relation indices in order, so the
// communication manager hands the consumer spans of the relation
// (DESIGN.md §7.1). Suspension/resumption lives in SimWrapper +
// CommManager.

#ifndef DQSCHED_COMM_TUPLE_QUEUE_H_
#define DQSCHED_COMM_TUPLE_QUEUE_H_

#include <cstdint>

#include "common/macros.h"

namespace dqsched::comm {

/// Bounded FIFO occupancy with producer-close (end of stream) and lossless
/// sequence accounting.
class TupleQueue {
 public:
  explicit TupleQueue(int64_t capacity) : capacity_(capacity) {
    DQS_CHECK_MSG(capacity > 0, "queue capacity must be > 0");
  }

  int64_t capacity() const { return capacity_; }
  int64_t size() const { return pushed_ - popped_; }
  bool Empty() const { return pushed_ == popped_; }
  bool Full() const { return size() >= capacity_; }
  /// Free slots before the producer must suspend.
  int64_t SpaceLeft() const { return capacity_ - size(); }

  /// Records the delivery of `n` tuples. Aborts when they do not fit or
  /// the queue is closed — flow control must be enforced by the producer
  /// (check SpaceLeft() first).
  void Push(int64_t n) {
    DQS_CHECK_MSG(n <= SpaceLeft(), "push of %lld into queue with %lld free",
                  static_cast<long long>(n),
                  static_cast<long long>(SpaceLeft()));
    DQS_CHECK_MSG(!producer_closed_, "push into closed queue");
    pushed_ += n;
  }

  /// Consumes up to `max` tuples; returns the count.
  int64_t Pop(int64_t max) {
    const int64_t n = size() < max ? size() : max;
    if (n <= 0) return 0;
    popped_ += n;
    return n;
  }

  /// Producer signals it will deliver nothing more.
  void CloseProducer() { producer_closed_ = true; }
  bool producer_closed() const { return producer_closed_; }

  /// No data now and none ever coming.
  bool Exhausted() const { return producer_closed_ && Empty(); }

  /// Absolute delivery positions, which double as the conservation
  /// counters the invariant auditor checks: pushed == popped + size.
  int64_t total_pushed() const { return pushed_; }
  int64_t total_popped() const { return popped_; }

 private:
  int64_t capacity_;
  bool producer_closed_ = false;
  int64_t pushed_ = 0;
  int64_t popped_ = 0;
};

}  // namespace dqsched::comm

#endif  // DQSCHED_COMM_TUPLE_QUEUE_H_

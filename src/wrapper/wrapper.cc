#include "wrapper/wrapper.h"

#include <memory>
#include <utility>

#include "common/macros.h"

namespace dqsched::wrapper {

SimWrapper::SimWrapper(SourceId id, const storage::Relation* relation,
                       const DelayConfig& delay, uint64_t seed)
    : id_(id),
      relation_(relation),
      cardinality_(relation == nullptr ? 0 : relation->cardinality()),
      model_(MakeDelayModel(delay)),
      rng_(seed) {
  DQS_CHECK(relation_ != nullptr);
  if (!Exhausted()) {
    next_ready_ = model_->NextDelay(0, rng_);
  }
}

void SimWrapper::SetFaultSchedule(FaultSchedule schedule, uint64_t seed) {
  DQS_CHECK_MSG(next_index_ == 0 && stats_.tuples_delivered == 0,
                "fault schedule installed after pumping started");
  if (schedule.empty()) return;
  fault_ = std::make_unique<FaultModel>(std::move(schedule), seed);
  // Consult for tuple 0 now: an event at at_tuple 0 delays (or kills) the
  // source before its first delivery.
  if (!Exhausted()) ApplyFaults(/*pending_in_run=*/0);
}

void SimWrapper::ConsultFaults(int64_t pending_in_run) {
  if (next_index_ >= cardinality()) return;
  // Replayed duplicates and already-consulted indices see no new events.
  if (next_index_ < replay_until_ || next_index_ < fault_applied_upto_) {
    return;
  }
  const FaultAction action = fault_->OnProduce(next_index_);
  fault_applied_upto_ = next_index_ + 1;
  if (action.die) {
    dead_ = true;
    return;
  }
  next_ready_ += action.extra_silence;
  if (action.replay_from_scratch && next_index_ > 0) {
    // The reconnected source restarts its cursor: indices [0, next_index_)
    // are re-delivered as duplicates. They occupy the delivery positions
    // right after everything delivered so far — including the current
    // uncommitted run — which the CM will discard. The already-drawn
    // arrival offset of the disconnected tuple carries over to replayed
    // tuple 0; later replays re-draw from the delay model.
    const int64_t base = stats_.tuples_delivered + pending_in_run;
    replay_windows_.push_back(ReplayWindow{base, base + next_index_});
    replay_until_ = next_index_;
    next_index_ = 0;
  }
}

void SimWrapper::Hold() {
  DQS_CHECK_MSG(next_index_ == 0 && !suspended_ &&
                    stats_.tuples_delivered == 0,
                "wrapper held after pumping started");
  held_ = true;
}

void SimWrapper::Start(SimTime at) {
  DQS_CHECK_MSG(held_, "Start on a wrapper that was never held");
  held_ = false;
  next_ready_ += at;
}

void SimWrapper::PumpInto(comm::TupleQueue& queue, SimTime now,
                          ArrivalObserver* observer) {
  if (held_) return;  // gated: nothing happens until Start
  if (dead_) return;  // a dead source neither delivers nor ends its stream
  if (Exhausted()) {
    // Covers empty relations, where the stream closes without any push.
    if (!queue.producer_closed()) queue.CloseProducer();
    return;
  }
  bool resumed = false;
  if (suspended_) {
    if (queue.Full()) return;
    // Resumption: the pending tuple enters at the drain time; it had been
    // ready since next_ready_ — the difference is blocked time.
    if (now > next_ready_) stats_.blocked += now - next_ready_;
    next_ready_ = now > next_ready_ ? now : next_ready_;
    suspended_ = false;
    resumed = true;
  }
  while (!dead_ && next_index_ < cardinality() && next_ready_ <= now) {
    if (queue.Full()) {
      suspended_ = true;
      return;
    }
    // Collect the longest run of tuples ready <= now that fits in the
    // queue, drawing each delay exactly as per-tuple delivery would, then
    // deliver the run as one push with a single observer notification.
    // The tuples stay in the relation; the consumer reads them there. A
    // fault that kills the source or rewinds its cursor (from-scratch
    // replay) breaks the run: the contiguity condition below ends it.
    int64_t space = queue.SpaceLeft();
    if (space > max_run_) space = max_run_;
    const int64_t start = next_index_;
    ts_scratch_.clear();
    do {
      ts_scratch_.push_back(next_ready_);
      ++next_index_;
      if (next_index_ < cardinality()) {
        next_ready_ += model_->NextDelay(next_index_, rng_);
      }
      ApplyFaults(static_cast<int64_t>(ts_scratch_.size()));
    } while (!dead_ && next_index_ < cardinality() && next_ready_ <= now &&
             next_index_ ==
                 start + static_cast<int64_t>(ts_scratch_.size()) &&
             static_cast<int64_t>(ts_scratch_.size()) < space);
    const int64_t run = static_cast<int64_t>(ts_scratch_.size());
    queue.Push(run);
    if (observer != nullptr) {
      const SimTime* ts = ts_scratch_.data();
      int64_t n = run;
      // The first post-suspension gap reflects mediator backpressure, not
      // the source's delivery rate: advance the observer without sampling.
      if (resumed) {
        observer->OnArrivalSuppressed(ts[0]);
        ++ts;
        --n;
      }
      if (n > 0) observer->OnArrivals(ts, n);
    }
    resumed = false;
    stats_.tuples_delivered += run;
    stats_.finished_at = ts_scratch_.back();
  }
  if (Exhausted() && !queue.producer_closed()) queue.CloseProducer();
}

}  // namespace dqsched::wrapper

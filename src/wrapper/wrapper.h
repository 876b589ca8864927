// Simulated wrapper (remote data source).
//
// A wrapper owns (a pointer to) its relation's tuples and a delay model.
// It produces tuple i at virtual time r_i = r_{i-1} + d_i, where d_i is
// drawn from the delay model — unless the destination queue is full, in
// which case production suspends (window protocol) and resumes from the
// moment the mediator drains the queue.

#ifndef DQSCHED_WRAPPER_WRAPPER_H_
#define DQSCHED_WRAPPER_WRAPPER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/tuple_queue.h"
#include "common/ids.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "storage/relation.h"
#include "wrapper/delay_model.h"
#include "wrapper/fault_model.h"

namespace dqsched::wrapper {

/// Receives the virtual arrival timestamp of every tuple a wrapper pushes.
/// Implemented by the communication manager's rate estimators.
class ArrivalObserver {
 public:
  virtual ~ArrivalObserver() = default;
  /// A run of `n` tuples entered the queue at non-decreasing virtual times
  /// `ts[0..n)`. One virtual call per delivered run, not per tuple; the
  /// observer must process the timestamps in order, exactly as if each had
  /// been reported individually.
  virtual void OnArrivals(const SimTime* ts, int64_t n) = 0;
  /// A tuple entered the queue at `t` after a window-protocol suspension:
  /// its gap measures the mediator's backpressure, not the source's rate,
  /// so rate estimators advance their reference time without sampling.
  virtual void OnArrivalSuppressed(SimTime t) { (void)t; }
};

/// Per-wrapper delivery statistics.
struct WrapperStats {
  int64_t tuples_delivered = 0;
  /// Virtual time production spent suspended on a full queue.
  SimDuration blocked = 0;
  /// When the last tuple entered the queue; kSimTimeNever until the first
  /// delivery, so a source that never finishes is distinguishable from one
  /// that finished at t=0.
  SimTime finished_at = kSimTimeNever;
};

/// One simulated source feeding one TupleQueue.
class SimWrapper {
 public:
  /// `relation` must outlive the wrapper. Production of the first tuple is
  /// scheduled from time 0 using the delay model.
  SimWrapper(SourceId id, const storage::Relation* relation,
             const DelayConfig& delay, uint64_t seed);

  SimWrapper(const SimWrapper&) = delete;
  SimWrapper& operator=(const SimWrapper&) = delete;

  SourceId id() const { return id_; }
  int64_t cardinality() const { return relation_->cardinality(); }
  /// The delivered tuples: the consumer reads them here, not from a copy.
  const storage::Relation& relation() const { return *relation_; }
  /// Tuples not yet pushed into the queue.
  int64_t remaining() const { return cardinality() - next_index_; }
  bool Exhausted() const { return next_index_ >= cardinality(); }
  /// Production suspended on a full queue; resumes via PumpInto after a
  /// drain (window protocol).
  bool Suspended() const { return suspended_; }

  /// Delivers every tuple whose production time is <= `now` into `queue`,
  /// stopping (suspended) if the queue fills. Call again after draining the
  /// queue to resume production from the drain time. Closes the queue's
  /// producer side after the last tuple. `observer` (may be null) sees each
  /// tuple's arrival timestamp. Ready tuples are delivered as contiguous
  /// runs (one Push + one OnArrivals per run). Fresh tuples are delivered
  /// in relation-index order; replayed duplicates fill the replay windows.
  void PumpInto(comm::TupleQueue& queue, SimTime now,
                ArrivalObserver* observer = nullptr);

  /// Caps delivery runs at one tuple, forcing the pre-bulk per-tuple
  /// transport path. Observable state (queue occupancy, stats, observer
  /// sample sequence, rng stream) must be identical either way; the
  /// serial-vs-bulk determinism test relies on this switch.
  void set_serial_delivery(bool serial) {
    max_run_ = serial ? 1 : kNoRunCap;
  }

  /// Earliest virtual time the next tuple can enter the queue given space,
  /// or kSimTimeNever when exhausted, suspended (a suspended wrapper only
  /// resumes via PumpInto after a drain, and its queue is non-empty by
  /// definition), or held.
  SimTime NextArrival() const;

  /// Gates production on an explicit Start: a held wrapper delivers
  /// nothing and answers NextArrival with kSimTimeNever. Must precede any
  /// pumping — the fleet holds every wrapper of a not-yet-admitted query.
  void Hold();
  /// Releases a hold at virtual time `at`: the source behaves as if it
  /// came online then, so its already-drawn first-tuple offset (and any
  /// fault-schedule silence) lands relative to `at`, keeping the delay
  /// stream bit-identical to an unheld wrapper started at t=0 shifted by
  /// `at`.
  void Start(SimTime at);
  bool held() const { return held_; }

  /// Installs a fault schedule; must precede any pumping. `seed` feeds the
  /// model's own Rng stream, so the delay draws are bit-identical with and
  /// without faults. An event at tuple 0 takes effect immediately.
  void SetFaultSchedule(FaultSchedule schedule, uint64_t seed);

  bool has_faults() const { return fault_ != nullptr; }
  /// Permanently silent: killed by a kDeath fault or abandoned by the CM.
  bool dead() const { return dead_; }
  /// Consumer-side giveup: the source never delivers again. Unlike a
  /// kDeath fault this can hit any wrapper (the CM abandons declared-dead
  /// sources under the partial-result policy).
  void Abandon() { dead_ = true; }
  /// Injection counters; null without a schedule.
  const FaultInjectionStats* fault_stats() const {
    return fault_ == nullptr ? nullptr : &fault_->stats();
  }
  /// From-scratch replay windows in delivered-tuple positions (== the
  /// queue's absolute push positions), appended as reconnects happen. The
  /// CM ingests these to discard duplicates.
  const std::vector<ReplayWindow>& replay_windows() const {
    return replay_windows_;
  }

  /// Analytic mean inter-tuple delay of this source (scheduler prior).
  double MeanDelayNs() const { return model_->MeanDelayNs(); }
  /// Analytic expected total delivery time for the full relation.
  double ExpectedTotalNs() const {
    return model_->ExpectedTotalNs(cardinality());
  }

  const WrapperStats& stats() const { return stats_; }

 private:
  static constexpr int64_t kNoRunCap = INT64_MAX;

  /// Consults the fault model for the fresh tuple `next_index_` is about
  /// to name, applying silence / replay / death. No-op during a replay or
  /// for an index already consulted. `pending_in_run` is the size of the
  /// collected-but-not-yet-pushed run, needed to place replay windows in
  /// absolute delivery positions.
  void ApplyFaults(int64_t pending_in_run);

  SourceId id_;
  const storage::Relation* relation_;
  std::unique_ptr<DelayModel> model_;
  Rng rng_;
  int64_t next_index_ = 0;
  SimTime next_ready_ = 0;
  bool suspended_ = false;
  bool held_ = false;
  int64_t max_run_ = kNoRunCap;
  /// Arrival timestamps of the run being delivered (reused across pumps).
  std::vector<SimTime> ts_scratch_;
  WrapperStats stats_;

  // Fault-injection state (inert — and cost-free on the pump path —
  // without a schedule).
  std::unique_ptr<FaultModel> fault_;
  bool dead_ = false;
  /// During a from-scratch replay, indices < replay_until_ are duplicates:
  /// no fault consultation until the cursor passes the disconnect point.
  int64_t replay_until_ = 0;
  /// Faults consulted for all fresh indices < fault_applied_upto_.
  int64_t fault_applied_upto_ = 0;
  std::vector<ReplayWindow> replay_windows_;
};

}  // namespace dqsched::wrapper

#endif  // DQSCHED_WRAPPER_WRAPPER_H_

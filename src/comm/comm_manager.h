// The Communication Manager (CM) of the paper's architecture (Section 3.1).
//
// Owns the simulated wrappers, their bounded queues (window-protocol flow
// control), and a delivery-rate estimator per source. The query processor
// consumes exclusively through this class; the CM lazily pumps wrapper
// production up to the current virtual time, which is equivalent to the
// asynchronous producer/consumer of the paper in a single-threaded
// discrete-event setting. Queues count tuples and hold none: a pop hands
// out a span of the source's relation (DESIGN.md §7.1).

#ifndef DQSCHED_COMM_COMM_MANAGER_H_
#define DQSCHED_COMM_COMM_MANAGER_H_

#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "comm/rate_estimator.h"
#include "comm/tuple_queue.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "storage/tuple.h"
#include "wrapper/wrapper.h"

namespace dqsched::comm {

/// Tunables of the communication layer.
struct CommConfig {
  /// Queue capacity in tuples (the "given size" of paper Section 2.1).
  int64_t queue_capacity = 1024;
  /// A source's delivery rate is "significantly changed" when the live
  /// estimate deviates from the last planning snapshot by this factor.
  /// Must be >= 1: a fresh snapshot then never signals, which the lazy
  /// snapshot in CommManager::MarkPlanned relies on.
  double rate_change_ratio = 2.0;
  /// Minimum samples since the snapshot before a ratio-based change can be
  /// signaled.
  int64_t rate_change_min_samples = 64;
  /// Minimum virtual time between two RateChange signals (global),
  /// preventing replanning storms.
  SimDuration rate_change_cooldown = Milliseconds(50);
  /// Test-only: cap wrapper delivery runs at one tuple, forcing the
  /// per-tuple transport path. Observable behavior must be identical to
  /// bulk delivery (see tests/transport_determinism_test.cc).
  bool serial_transport = false;

  // --- Failure detection (fault-tolerant communication layer) ---
  /// Master switch. Mediator::Create arms it when any catalog source
  /// carries a fault schedule; with it off (the default) every detection
  /// code path is skipped, keeping fault-free runs bit-identical to
  /// builds that predate the fault layer.
  bool failure_detection = false;
};

/// Consecutive tuples of one source's relation, read in place: what one
/// pop consumed.
struct TupleSpan {
  const storage::Tuple* data = nullptr;
  int64_t count = 0;
};

/// Liveness transition emitted by the failure detector; drained by the
/// query processor (Dqp::RunPhase) and surfaced as SourceDown /
/// SourceRecovered events alongside the rate-change signal.
struct FaultSignal {
  enum class Kind {
    kDown,       // silence exceeded the suspect threshold
    kDead,       // silence exceeded the declared-dead threshold
    kRecovered,  // a suspected/dead source delivered again
  };
  Kind kind = Kind::kDown;
  SourceId source = kInvalidId;
};

/// Mediator-side communication endpoint for all wrappers of one execution.
class CommManager {
 public:
  /// Aborts unless `config.rate_change_ratio >= 1` (EngineConfig::Validate
  /// rejects it first).
  explicit CommManager(const CommConfig& config);

  CommManager(const CommManager&) = delete;
  CommManager& operator=(const CommManager&) = delete;

  /// Registers a wrapper; source ids must be added in order (0, 1, ...).
  /// `prior_wait_ns` seeds the rate estimator (the compile-time assumption).
  void AddSource(std::unique_ptr<wrapper::SimWrapper> w, double prior_wait_ns);

  int num_sources() const { return static_cast<int>(wrappers_.size()); }

  /// Releases a held wrapper at virtual time `now` (fleet admission): the
  /// source comes online as if it connected then. Bumps the source's
  /// delivery version (NextArrival flips from kSimTimeNever), seeds its
  /// liveness silence base, and re-keys the pump heap.
  void StartSource(SourceId source, SimTime now);

  /// Delivers all due production of every wrapper up to `now`. Only sources
  /// whose next arrival is <= `now` are touched: the manager keeps a
  /// min-heap over SimWrapper::NextArrival(), so an idle pump is O(1).
  void PumpAll(SimTime now);

  /// Pops up to `max` fresh tuples of `source`, after pumping; pumps again
  /// after popping so a suspended producer resumes immediately (window
  /// protocol). Replayed duplicates are discarded by position, and fresh
  /// tuples arrive in relation-index order, so the pop is always the span
  /// `relation.tuples[k, k + count)` for the source's consumption cursor
  /// k. The span lives as long as the relation.
  TupleSpan PopSpan(SourceId source, SimTime now, int64_t max);

  /// Copying adaptor over PopSpan: copies the span into `out` and returns
  /// its count.
  int64_t Pop(SourceId source, SimTime now, storage::Tuple* out, int64_t max);

  /// Tuples ready for consumption right now (pumps first).
  int64_t Available(SourceId source, SimTime now);

  /// True when the wrapper has produced everything and the queue is empty.
  bool SourceExhausted(SourceId source) const;

  /// Earliest time a new tuple from `source` can appear, kSimTimeNever if
  /// exhausted or suspended-on-full-queue (consume to unblock).
  SimTime NextArrival(SourceId source) const;

  /// Current estimate of the mean inter-arrival time w of `source`.
  double EstimatedWaitNs(SourceId source) const;

  /// True once `source`'s estimate is based on observation, not the prior.
  bool EstimateWarm(SourceId source) const;

  /// Tuples of `source` not yet consumed by the engine (wrapper remainder
  /// plus queued): the scheduler's n_p.
  int64_t RemainingTuples(SourceId source) const;

  /// Snapshot all estimates; subsequent RateChangedSincePlan() calls
  /// compare against this snapshot. Copies only the sources registered
  /// or delivered since their last snapshot; the others already match.
  void MarkPlanned(SimTime now);

  /// True when some source's estimate deviates from the planning snapshot
  /// by more than the configured ratio (subject to warmup and cooldown),
  /// or when a source that was un-warm at the snapshot has warmed up since
  /// (initial observations supersede the compile-time prior). The trigger
  /// is recorded; the caller decides to replan. Evaluates only sources
  /// that delivered since they last evaluated false.
  bool RateChangedSincePlan(SimTime now);

  int64_t rate_change_signals() const { return rate_change_signals_; }

  /// Per-source delivery version: bumped whenever anything the scheduler's
  /// criticality function reads about `source` may have changed — pushes
  /// (which also advance the estimator and shrink the wrapper remainder),
  /// pops, replay-duplicate discards, liveness transitions, abandonment.
  /// Monotone; an unchanged version guarantees RemainingTuples,
  /// EstimatedWaitNs, SourceSuspected, and NextArrival are unchanged.
  /// Over-bumping is safe (a spurious recompute), under-bumping is not.
  uint64_t SourceVersion(SourceId source) const {
    return source_version_[static_cast<size_t>(source)];
  }

  // --- Failure detection (all no-ops / false unless armed) ---

  bool failure_detection() const { return config_.failure_detection; }

  /// Advances the per-source liveness state machine to `now`. Threshold
  /// crossings enqueue FaultSignals for TakeFaultSignal, in source-id
  /// order. Touches only the sources whose threshold has passed.
  void UpdateFaultState(SimTime now);

  /// Pops the oldest pending liveness transition; false when none.
  bool TakeFaultSignal(FaultSignal* out);

  /// Earliest future virtual time any watched source can cross a liveness
  /// threshold (kSimTimeNever when nothing is watched). The query
  /// processor stalls no further than this, so detection keeps pace with
  /// the virtual clock even when every stream is silent. Non-const: it
  /// drops stale entries off the liveness heap.
  SimTime NextFaultDeadline(SimTime now);

  /// Suspected down or declared dead (and not recovered since).
  bool SourceSuspected(SourceId source) const;
  /// Declared dead by the detector.
  bool SourceDead(SourceId source) const;

  /// Gives up on a declared-dead source (partial-result policy): the
  /// wrapper is silenced, its stream is closed, and the consumer drains
  /// whatever already arrived. Irreversible.
  void AbandonSource(SourceId source);

  /// Unconditional variant for lifecycle management (query cancellation,
  /// circuit-breaker degrade): silences the wrapper and closes the stream
  /// regardless of detector health. Irreversible; idempotent.
  void CloseSource(SourceId source);

  /// True once the source was closed/abandoned (its queue takes no more
  /// deliveries and the wrapper is silenced).
  bool SourceClosed(SourceId source) const {
    return fault_state_[static_cast<size_t>(source)].abandoned;
  }

  /// Installs a fault schedule on a held, never-pumped source (the fleet
  /// compiles storm schedules at join time, when the attempt's virtual
  /// start time is known). Forwards to SimWrapper::SetFaultSchedule.
  void InstallFaultSchedule(SourceId source, wrapper::FaultSchedule schedule,
                            uint64_t seed);

  /// Replayed duplicates discarded on pop for `source` / in total. The
  /// invariant auditor's conservation law is popped == consumed +
  /// ReplayDiscarded.
  int64_t ReplayDiscarded(SourceId source) const;
  int64_t replay_discarded_total() const { return replay_discarded_total_; }

  /// Healthy->suspected transitions observed (a flapping source counts
  /// once per episode).
  int64_t fault_suspicions() const { return suspicions_; }
  /// Suspected->dead transitions observed.
  int64_t fault_declared_dead() const { return declared_dead_; }
  /// Suspected/dead->healthy transitions observed.
  int64_t fault_recoveries() const { return recoveries_; }

  const wrapper::SimWrapper& wrapper(SourceId source) const {
    return *wrappers_[static_cast<size_t>(source)];
  }
  const TupleQueue& queue(SourceId source) const {
    return *queues_[static_cast<size_t>(source)];
  }

 private:
  struct PlanSnapshot {
    double wait_ns = 0.0;
    int64_t samples = 0;
    bool warm = false;
  };

  enum class Health { kHealthy, kSuspected, kDead };

  /// Min-heap of (key, source) with lazy invalidation (see heap_).
  using SourceHeap =
      std::priority_queue<std::pair<SimTime, int>,
                          std::vector<std::pair<SimTime, int>>,
                          std::greater<>>;

  /// A set of source ids with O(1) insert and membership test.
  struct SourceSet {
    std::vector<int> sources;
    std::vector<char> listed;

    void Add(size_t i) {
      if (listed[i] != 0) return;
      listed[i] = 1;
      sources.push_back(static_cast<int>(i));
    }
    void Clear() {
      for (const int i : sources) listed[static_cast<size_t>(i)] = 0;
      sources.clear();
    }
    /// Keeps the sources for which `keep` holds, drops the rest, and
    /// returns the lowest kept id (kInvalidId when none is kept).
    template <typename Pred>
    SourceId KeepIf(Pred keep) {
      SourceId lowest = kInvalidId;
      size_t kept = 0;
      for (const int i : sources) {
        if (keep(static_cast<size_t>(i))) {
          sources[kept++] = i;
          if (lowest == kInvalidId || i < lowest) lowest = i;
        } else {
          listed[static_cast<size_t>(i)] = 0;
        }
      }
      sources.resize(kept);
      return lowest;
    }
  };

  struct SourceFaultState {
    /// Arrival timestamp of the last delivered tuple (0 = none yet, so
    /// silence is measured from query start).
    SimTime last_arrival = 0;
    Health health = Health::kHealthy;
    bool abandoned = false;
    int64_t replay_discarded = 0;
    /// Wrapper replay windows copied so far (wrapper-side vector prefix).
    size_t windows_ingested = 0;
    /// Pending replay windows in absolute push positions, front = oldest.
    /// Disjoint and increasing; fully-popped fronts are pruned on pop.
    std::vector<wrapper::ReplayWindow> windows;
  };

  /// Pumps one source and refreshes its event-index entry.
  void PumpSource(size_t i, SimTime now);
  /// Re-keys source `i` in the arrival heap and, with failure detection
  /// armed, the liveness heap after its state changed. Stale heap entries
  /// are left behind and skipped lazily on pop.
  void SyncSource(size_t i);
  /// Re-keys source `i` in the liveness heap.
  void SyncLiveness(size_t i);
  /// A delivery from source `i` landed: list it for the rate-change check
  /// and the next snapshot, refresh liveness, signal recovery.
  void OnDelivery(size_t i);
  /// Copies new replay windows from the wrapper (fault runs only).
  void IngestReplayWindows(size_t i);
  /// Pop that discards replayed duplicates by absolute position; returns
  /// the fresh tuples popped.
  int64_t PopDeduped(size_t i, int64_t max);
  /// Drops the run of replayed duplicates at the queue head, if any.
  /// Returns whether anything was discarded (capacity may have freed).
  bool DiscardDupPrefix(size_t i);
  /// Queued tuples that are not pending replay duplicates.
  int64_t FreshInQueue(size_t i) const;
  /// Fresh (non-duplicate) tuples wrapper `i` has delivered, from its own
  /// stats and replay windows: the audit reference for `cursor_[i]`.
  int64_t FreshDelivered(size_t i) const;
  SimDuration SuspectTimeout(size_t i) const;
  SimDuration DeadTimeout(size_t i) const;
  /// Liveness is tracked only for sources that can still deliver.
  bool WatchedForLiveness(size_t i) const;
  /// When watched source `i` crosses its next liveness threshold
  /// (kSimTimeNever when unwatched): the liveness heap's key.
  SimTime LivenessDeadline(size_t i) const;
  /// The liveness transitions of source `i` at `now`.
  void AdvanceLiveness(size_t i, SimTime now);
  /// The rate-change predicates of source `i`.
  bool WarmupFires(size_t i) const;
  bool RatioFires(size_t i) const;
  bool InCooldown(SimTime now) const;

  // Full-scan references for the fast paths above; the audit build
  // (DQS_DCHECK) compares every fast result against them.
  /// Watched sources past their threshold at `now`, in id order.
  std::vector<int> ScanDueSources(SimTime now) const;
  SimTime ScanFaultDeadline(SimTime now) const;
  /// The source RateChangedSincePlan must report (kInvalidId: none).
  SourceId ScanRateChangeSource(SimTime now) const;

  CommConfig config_;
  std::vector<std::unique_ptr<wrapper::SimWrapper>> wrappers_;
  std::vector<std::unique_ptr<TupleQueue>> queues_;
  /// Fresh tuples of source i popped so far: its next pop starts at
  /// relation index cursor_[i]. The audit build checks cursor_[i] +
  /// FreshInQueue(i) == FreshDelivered(i) after every pop.
  std::vector<int64_t> cursor_;
  std::vector<std::unique_ptr<RateEstimator>> estimators_;
  std::vector<PlanSnapshot> snapshots_;
  /// Min-heap of (next arrival, source). `heap_key_[i]` is the only live
  /// key for source i (kSimTimeNever = no live entry: exhausted or
  /// suspended); entries whose key differs are stale and skipped.
  SourceHeap heap_;
  std::vector<SimTime> heap_key_;
  /// Rate-change candidates: delivered since last found unable to fire.
  /// Right after a snapshot no source can fire (rate_change_ratio >= 1),
  /// so MarkPlanned empties both lists.
  SourceSet warmup_candidates_;
  SourceSet ratio_candidates_;
  /// Sources whose estimator changed since their snapshot (all sources
  /// start here: the registration snapshot holds the raw prior).
  SourceSet stale_snapshots_;
  SimTime last_signal_ = -1;
  int64_t rate_change_signals_ = 0;
  /// See SourceVersion().
  std::vector<uint64_t> source_version_;

  // Failure-detection state (inert unless config_.failure_detection,
  // except the replay windows, which follow the wrapper's fault schedule).
  std::vector<SourceFaultState> fault_state_;
  /// Min-heap of (LivenessDeadline, source), same stale-key pattern as
  /// heap_: `liveness_key_[i]` is the only live key (kSimTimeNever =
  /// unwatched, no entry). Maintained only with failure detection armed.
  SourceHeap liveness_heap_;
  std::vector<SimTime> liveness_key_;
  /// Scratch for UpdateFaultState's due set.
  std::vector<int> due_;
  std::deque<FaultSignal> fault_signals_;
  int64_t suspicions_ = 0;
  int64_t declared_dead_ = 0;
  int64_t recoveries_ = 0;
  int64_t replay_discarded_total_ = 0;
};

}  // namespace dqsched::comm

#endif  // DQSCHED_COMM_COMM_MANAGER_H_

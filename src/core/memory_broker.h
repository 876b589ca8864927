// Admission-control memory broker for the sharded mediator fleet.
//
// The fleet's shards run on real threads, each against its own virtual
// clock and ExecContext; the broker is the single piece of cross-shard
// mutable state. Shards *submit* admission requests and completion
// releases at any point of a round (a mutex-protected append — no
// response is produced mid-round); the coordinator calls Arbitrate()
// alone at the round barrier, where the broker sorts the round's events
// into a canonical order and decides admissions against the global
// memory budget. Because decisions happen only at barriers over sorted
// event sets, they are independent of thread interleaving: the grant
// sequence — and therefore every shard's execution — is byte-identical
// across --jobs counts.
//
// Fairness: two admission classes, interactive and batch. Queued
// interactive requests are always considered first; a batch request is
// admitted when no queued interactive request fits (work-conserving, so
// a huge interactive query cannot idle the budget that a small batch
// query could use).
//
// Grant timestamps are virtual times with round granularity: a request
// admitted in the same Arbitrate it was submitted, with no queued
// request ahead of it in its class and no release needed to make room,
// is stamped at its arrival time; any request that had to wait is
// stamped max(arrival, completion time of the latest release applied) —
// the broker cannot know the exact virtual instant headroom appeared
// without serializing the shard clocks, so the latest applied release
// stands in for it (documented in DESIGN.md §12).

#ifndef DQSCHED_CORE_MEMORY_BROKER_H_
#define DQSCHED_CORE_MEMORY_BROKER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/sim_time.h"

namespace dqsched::core {

/// Admission class of a fleet query.
enum class FairnessClass {
  kInteractive,  // admitted first: latency-sensitive
  kBatch,        // fills remaining budget
};

const char* FairnessClassName(FairnessClass c);

class MemoryBroker {
 public:
  struct Config {
    /// Global budget the sum of admitted queries' estimates must respect.
    /// A query is always admitted when nothing is outstanding, even if
    /// its estimate alone exceeds the budget (work conservation: the
    /// per-shard execution engine spills under pressure; refusing forever
    /// would wedge the fleet).
    int64_t total_budget_bytes = 256LL * 1024 * 1024;
  };

  struct Request {
    int64_t uid = 0;  // fleet-wide query id, unique
    int shard = 0;
    int64_t est_bytes = 0;  // admission estimate (>= 1)
    FairnessClass fairness = FairnessClass::kInteractive;
    SimTime arrival = 0;  // the query's workload arrival time
    /// Absolute virtual-time deadline (0 = none). A queued request whose
    /// earliest possible grant stamp reaches this is shed: granting
    /// memory to a query that cannot finish in time only steals budget
    /// from queries that still can (deadline-aware admission, §13).
    SimTime deadline = 0;
  };

  struct Release {
    int64_t uid = 0;
    int64_t bytes = 0;  // must equal the granted estimate
    SimTime completed_at = 0;
  };

  struct Grant {
    int64_t uid = 0;
    int64_t est_bytes = 0;
    /// Virtual admission time: >= the request's arrival; > arrival means
    /// the query queued for memory.
    SimTime granted_at = 0;
  };

  struct Stats {
    int64_t grants_issued = 0;
    int64_t releases_applied = 0;
    /// Grants whose granted_at exceeds their arrival (queued for memory).
    int64_t queued_admissions = 0;
    /// Queued requests dropped because their earliest grant stamp could
    /// no longer beat their deadline. Shed requests are never granted,
    /// so they do not participate in the grants == releases law.
    int64_t shed_requests = 0;
    int64_t peak_outstanding_bytes = 0;
    int64_t peak_queued_requests = 0;
  };

  explicit MemoryBroker(const Config& config) : config_(config) {}

  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  /// Thread-safe append; decided at the next Arbitrate.
  void Submit(const Request& request);
  /// Thread-safe append; applied (budget freed) at the next Arbitrate.
  void Submit(const Release& release);

  /// Round barrier (single-threaded by contract): applies the pending
  /// releases in (completed_at, uid) order, enqueues the pending requests
  /// in (arrival, uid) order onto their class queues, sheds queued
  /// requests whose earliest grant stamp has reached their deadline
  /// (appended to `*shed` in queue order, interactive first, when
  /// non-null), and admits queue heads while the budget allows. Returns
  /// the new grants bucketed by shard (outer index = shard id).
  std::vector<std::vector<Grant>> Arbitrate(
      int num_shards, std::vector<Request>* shed = nullptr);

  bool HasQueued() const;
  /// Sum of granted-but-not-released estimates.
  int64_t outstanding_bytes() const { return outstanding_bytes_; }
  const Stats& stats() const { return stats_; }

  // --- Reclaimable (cached) bytes, DESIGN.md §14 -------------------------
  // Cached bytes never influence admission — Fits() ignores them entirely
  // (they are stealable at any instant, so refusing a query over them
  // would break work conservation). The broker's only cache duty is the
  // inverse: when firm outstanding grants plus the fleet's caches exceed
  // the global budget, it directs shards to trim. Barrier-side API, same
  // single-threaded contract as Arbitrate.

  /// Reports shard `shard`'s current cached (reclaimable) bytes. Called
  /// by the coordinator at the barrier, after Arbitrate.
  void ReportReclaimable(int shard, int64_t bytes);

  /// Per-shard trim directives: bytes each shard must evict so that
  /// outstanding + total cached fits the budget. Deterministic greedy:
  /// largest cache first, shard id as tie-break. Zero-filled when
  /// everything fits.
  std::vector<int64_t> ReclaimTargets(int num_shards) const;

 private:
  struct QueuedRequest {
    Request request;
    /// False only while the request has never survived an Arbitrate:
    /// controls the arrival-stamped "immediate admission" carve-out.
    bool waited = false;
  };

  /// True when `request` fits the remaining budget (or nothing is
  /// outstanding — see Config::total_budget_bytes).
  bool Fits(const QueuedRequest& qr) const;
  /// Drops doomed queued requests from `queue` into `*shed`.
  void ShedExpired(std::deque<QueuedRequest>* queue,
                   std::vector<Request>* shed);
  void Admit(std::deque<QueuedRequest>* queue,
             std::vector<std::vector<Grant>>* out);

  Config config_;

  std::mutex mu_;  // guards the two pending inboxes only
  std::vector<Request> pending_requests_;
  std::vector<Release> pending_releases_;

  // Barrier-side state: touched only inside Arbitrate.
  std::deque<QueuedRequest> interactive_;
  std::deque<QueuedRequest> batch_;
  int64_t outstanding_bytes_ = 0;
  /// Completion time of the latest release applied so far: the stamp
  /// base for grants that waited.
  SimTime last_freed_at_ = 0;
  /// Last-reported cached bytes per shard (barrier-side only).
  std::vector<int64_t> reclaimable_by_shard_;
  Stats stats_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_MEMORY_BROKER_H_

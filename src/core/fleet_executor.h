// Sharded mediator fleet: an open-loop query stream partitioned across N
// mediator shards that run on real host threads.
//
// Each shard owns a full mediator stack — virtual clock, devices,
// CommManager, and a SharedQueryLoop over its admitted queries — so
// shards share *no* execution state. The only cross-shard object is the
// admission-control MemoryBroker: a query enters its shard's loop only
// once the broker granted its memory estimate against the global budget
// (core/memory_broker.h).
//
// Execution is round-based bulk-synchronous. Every round, each runnable
// shard advances up to `sync_turns` loop turns on a worker thread
// (bench/parallel_runner's work stealing), submitting completion
// releases to the broker mid-round and returning early when it can only
// wait for a grant. At the barrier the coordinator arbitrates
// admissions single-threaded and delivers the new grants to per-shard
// mailboxes. Shard count — and with it every shard's query set, clocks,
// and metrics — is fixed by FleetConfig::num_shards; the --jobs knob
// only chooses how many host threads execute the shard advances, so all
// virtual results are byte-identical across job counts by construction
// (the determinism argument is spelled out in DESIGN.md §12).
//
// Workloads are template-based: each distinct query shape is prepared
// once (compile, annotate, generate data, reference answer) and every
// stream instance runs a shard-remapped copy of the compiled plan over
// the shared read-only data — the warm plan cache of a mediator serving
// a recurring query mix.

#ifndef DQSCHED_CORE_FLEET_EXECUTOR_H_
#define DQSCHED_CORE_FLEET_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/cache_manager.h"
#include "core/circuit_breaker.h"
#include "core/engine.h"
#include "core/memory_broker.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "plan/canonical_plans.h"
#include "plan/compiled_plan.h"
#include "wrapper/fault_model.h"

namespace dqsched::core {

/// One query instance of the open-loop stream.
struct FleetQuerySpec {
  /// Index into the template vector passed to Create.
  int template_idx = 0;
  /// Workload arrival time (virtual).
  SimTime arrival = 0;
  FairnessClass fairness = FairnessClass::kInteractive;
};

/// Fleet configuration. EngineConfig::memory_budget_bytes is both the
/// broker's global admission budget and each shard's execution budget:
/// admission throttles by estimates, the per-shard accountant enforces at
/// runtime, with DQO spilling under pressure.
struct FleetConfig : EngineConfig {
  /// Fixed shard count (NOT the thread count — see the header comment).
  int num_shards = 4;
  /// Loop turns a shard advances per round between broker barriers.
  int64_t sync_turns = 1024;

  // ---- Query lifecycle (DESIGN.md §13) ----------------------------------
  // Always on. With no deadline, no storm and the failure detector off
  // nothing ever fires: every breaker stays closed and every query ends
  // kOk.

  /// Per-attempt virtual-time budget, measured from the attempt's
  /// admission-request arrival: attempt deadline = request arrival +
  /// budget. 0 disables deadlines.
  SimDuration deadline_budget = 0;
  /// Attempts a query killed by source death or deadline expiry may
  /// consume before it terminates kRetriesExhausted (>= 1).
  int max_attempts = 3;
  /// Base of the exponential requeue backoff: attempt k (1-based) that
  /// fails is requeued at now + initial * 2^(k-1), scaled by a
  /// deterministic jitter in [0.75, 1.25] (kFleetRetryJitter) drawn from
  /// the dedicated retry stream (kFleetRetrySalt).
  SimDuration retry_backoff_initial = Milliseconds(50);
  /// Per-logical-source circuit breakers, shared by every query instance
  /// on a shard that reads the same template source.
  BreakerConfig breaker;
  /// Correlated fault-storm scenario compiled into per-attempt fault
  /// schedules (wrapper/fault_model.h). kNone = no storm. The fleet's only
  /// fault source: Create rejects catalog fault schedules.
  wrapper::StormConfig storm;
};

/// Per-query outcome, indexed by the query's stream uid.
struct FleetQueryOutcome {
  int64_t uid = 0;
  int shard = 0;
  int template_idx = 0;
  FairnessClass fairness = FairnessClass::kInteractive;
  int64_t est_bytes = 0;
  SimTime arrival = 0;
  /// Broker admission time (>= arrival; > arrival means it queued).
  SimTime admitted = 0;
  /// When the shard actually spliced it into its loop (>= admitted).
  SimTime joined = 0;
  SimTime completed = 0;
  /// completed - arrival: what the stream's client observes.
  SimDuration completion_latency = 0;
  /// Per-query-attributable metrics (loop slice); response_time is
  /// completed - joined, shared-device fields stay zero, and
  /// planning_host_seconds is host wall time (excluded from the
  /// byte-identity contract). metrics.fault accumulates over every
  /// attempt of the query.
  ExecutionMetrics metrics;
  /// Terminal lifecycle status. Always kOk with no deadline, no storm
  /// and the failure detector off.
  QueryStatus status = QueryStatus::kOk;
  /// Admission attempts consumed (1 for a first-try success; 0 only for
  /// kShed queries, which never joined a shard).
  int attempts = 0;
  /// Absolute deadline of the final attempt (0 = unlimited).
  SimTime deadline = 0;
};

/// Per-shard aggregate, indexed by shard id.
struct FleetShardOutcome {
  int queries = 0;
  /// The shard clock when its last query finished.
  SimTime makespan = 0;
  SimDuration busy_time = 0;
  SimDuration stalled_time = 0;
  int64_t peak_memory_bytes = 0;
  sim::DiskStats disk;
  sim::NetworkStats network;
  storage::TempStoreStats temps;
};

struct FleetMetrics {
  std::vector<FleetQueryOutcome> queries;  // by uid
  std::vector<FleetShardOutcome> shards;   // by shard id
  /// max over shards of their makespans.
  SimDuration makespan = 0;
  MemoryBroker::Stats broker;
  /// Barrier rounds the coordinator ran.
  int64_t rounds = 0;
  /// Terminal statuses, indexed by QueryStatus enum value.
  std::array<int64_t, kNumQueryStatuses> status_counts{};
  /// Circuit-breaker activity, summed over shards in ascending id.
  BreakerStats breakers;
  /// Fault activity, summed over queries in ascending uid.
  FaultStats fault;
  /// Result-cache activity, summed over shards in ascending id. Excluded
  /// from the cache-off byte-identity contract (like planning_host_seconds).
  CacheStats cache;
};

class FleetExecutor {
 public:
  /// Prepares the templates (compile, annotate, generate data, reference)
  /// and partitions `workload` across shards by a stable hash of each
  /// query's uid (= its index in `workload`), so the placement — like
  /// everything downstream of it — depends only on (config, workload).
  static Result<FleetExecutor> Create(std::vector<plan::QuerySetup> templates,
                                      std::vector<FleetQuerySpec> workload,
                                      FleetConfig config);

  FleetExecutor(FleetExecutor&&) = default;
  FleetExecutor& operator=(FleetExecutor&&) = default;

  /// Runs the stream to completion on `jobs` worker threads (<= 0: one
  /// per hardware thread). Virtual results are independent of `jobs`.
  Result<FleetMetrics> Execute(StrategyKind strategy, int jobs) const;

  int num_queries() const { return static_cast<int>(instances_.size()); }
  int num_shards() const { return config_.num_shards; }

  /// Drops every shard cache (entries and counters). A following Execute
  /// runs cold: byte-identical to cache=off on every non-wall metric.
  void ResetCache() const;
  /// Bumps the data version of logical source key `logical_key` on every
  /// shard: cached entries derived from it become stale (lazy eviction on
  /// the next probe). Test/driver hook for source-data churn.
  void BumpCacheVersion(int64_t logical_key) const;
  /// Cached segments, over every shard, that borrow a run of their source
  /// relation instead of holding pages (DESIGN.md §5). A host-memory view
  /// for tests; no virtual result depends on it.
  int64_t BorrowedCacheSegments() const;

 private:
  struct PreparedTemplate {
    PreparedQuery query;  // unremapped (shard copies remap)
    int64_t est_bytes = 1;  // admission estimate from the annotations
  };

  struct PreparedInstance {
    FleetQuerySpec spec;
    int64_t uid = 0;
    int shard = 0;
    /// Template copy with chain sources remapped into the shard's local
    /// id space.
    plan::CompiledPlan compiled;
    SourceId source_lo = 0;  // shard-local
    SourceId source_hi = 0;
  };

  FleetExecutor(std::vector<PreparedTemplate> templates,
                std::vector<PreparedInstance> instances,
                std::vector<std::vector<int>> shard_instances,
                FleetConfig config)
      : templates_(std::move(templates)),
        instances_(std::move(instances)),
        shard_instances_(std::move(shard_instances)),
        config_(std::move(config)) {}

  std::vector<PreparedTemplate> templates_;
  /// By uid.
  std::vector<PreparedInstance> instances_;
  /// Per shard: its instances in admission order (arrival, uid) — also
  /// the shard-local source id order and wrapper registration order.
  std::vector<std::vector<int>> shard_instances_;
  FleetConfig config_;
  /// Per-shard result caches, created lazily on the first Execute with
  /// caching enabled and retained across Execute calls (warm runs).
  /// mutable: the caches are a memo, not part of the fleet's identity —
  /// Execute stays const and results stay a function of (config, workload,
  /// cache contents at entry).
  mutable std::vector<std::unique_ptr<CacheManager>> caches_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_FLEET_EXECUTOR_H_

// Multi-query execution — the paper's Section 6 future work made
// concrete: "we plan to study the behavior of our approach in the context
// of multi-query execution. As soon as we consider such context, we face
// the classical tradeoff between throughput and response time."
//
// N integration queries share one mediator: one virtual clock, one memory
// budget, one local disk, one communication manager holding every query's
// wrappers. Two execution modes:
//
//  * kSerial  — queries run one after another (each with the given
//    per-query strategy): the classical admission-controlled mediator.
//  * kShared  — queries run concurrently, time-sliced batch-wise through
//    their own DQS/DQP instances; the global clock stalls only when every
//    query starves.
//
// The metrics expose both sides of the tradeoff: per-query response
// times (latency) and the makespan (throughput).

#ifndef DQSCHED_CORE_MULTI_QUERY_H_
#define DQSCHED_CORE_MULTI_QUERY_H_

#include <memory>
#include <vector>

#include "core/cache_manager.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "plan/canonical_plans.h"

namespace dqsched::core {

/// How the query mix is interleaved.
enum class MultiMode {
  kSerial,  // one query at a time
  kShared,  // concurrent, batch-sliced
};

const char* MultiModeName(MultiMode mode);

/// Configuration of a multi-query mediator.
struct MultiQueryConfig : EngineConfig {
  /// Batches one query executes before yielding to the next (kShared).
  int64_t slice_batches = 32;
  /// kShared: route a RateChange replan only to the queries actually
  /// reading the drifting source (CommManager::LastRateChangeSource)
  /// instead of replanning the query that happened to observe it.
  /// Changes replan timing and therefore degradation decisions and
  /// metrics; off by default to keep the baseline byte-identical
  /// (DESIGN.md §9).
  bool targeted_replans = false;
};

/// Results of one multi-query execution.
struct MultiQueryMetrics {
  /// Virtual completion time of each query (kShared: from the common
  /// start; kSerial: cumulative — still "when did this query's user get
  /// the answer").
  std::vector<SimDuration> response_times;
  /// Terminal status per query, parallel to response_times. The
  /// single-mediator modes never shed or retry, so only kOk — or
  /// kPartial, when a fault policy degraded the answer — appear here;
  /// the column exists so a degraded query is distinguishable from a
  /// slow one in the bench tables (§13).
  std::vector<QueryStatus> statuses;
  /// Completion of the whole mix (the throughput side of the tradeoff).
  SimDuration makespan = 0;
  /// Mean response time across queries (the latency side).
  SimDuration mean_response = 0;
  int64_t total_degradations = 0;
  int64_t total_result_tuples = 0;
  int64_t peak_memory_bytes = 0;
  /// Shared-device aggregates. Merge order is stable and documented:
  /// kSerial sums per-query stats in ascending query index; kShared reads
  /// the one shared context (per-wrapper fault injection counters are
  /// folded in ascending source id either way).
  sim::DiskStats disk;
  sim::NetworkStats network;
  storage::TempStoreStats temps;
  FaultStats fault;
  /// Result-cache activity of this run. Excluded from the cache-off
  /// byte-identity contract (like planning_host_seconds).
  CacheStats cache;
};

/// A mix of integration queries sharing one mediator.
class MultiQueryMediator {
 public:
  /// Validates and prepares every query (compile, annotate, generate
  /// data, reference answers). Queries keep independent catalogs; their
  /// sources are distinct wrappers at the shared mediator.
  static Result<MultiQueryMediator> Create(
      std::vector<plan::QuerySetup> queries, MultiQueryConfig config);

  MultiQueryMediator(MultiQueryMediator&&) = default;
  MultiQueryMediator& operator=(MultiQueryMediator&&) = default;

  /// Runs the mix. `strategy` selects the per-query machinery (kSeq's
  /// iterator order or kDse's dynamic scheduling); `mode` the
  /// interleaving. Deterministic per (config, seed).
  Result<MultiQueryMetrics> Execute(StrategyKind strategy,
                                    MultiMode mode) const;

  int num_queries() const { return static_cast<int>(queries_.size()); }

  /// Drops the cache (entries and counters): the next Execute runs cold,
  /// byte-identical to cache=off on every non-wall metric.
  void ResetCache() const;
  /// Declares source-data churn on global source id `logical_key` (the
  /// multi-query modes map sources to themselves): dependent entries
  /// become stale misses.
  void BumpCacheVersion(int64_t logical_key) const;

 private:
  MultiQueryMediator(std::vector<PreparedQuery> queries,
                     MultiQueryConfig config)
      : queries_(std::move(queries)), config_(std::move(config)) {}

  Result<MultiQueryMetrics> ExecuteShared(StrategyKind strategy) const;
  Result<MultiQueryMetrics> ExecuteSerial(StrategyKind strategy) const;
  /// The cache for this Execute (created on first use), with its run
  /// begun; null when caching is off.
  CacheManager* BeginCacheRun() const;
  /// Registers every query's wrappers (global ids must resolve, though a
  /// serial run consumes only one query's; the window protocol holds the
  /// others).
  void AddAllWrappers(exec::ExecContext& ctx) const;

  /// Chain sources remapped to global ids: query q's sources follow
  /// queries 0..q-1's.
  std::vector<PreparedQuery> queries_;
  MultiQueryConfig config_;
  /// Created lazily on the first cache-enabled Execute and retained
  /// across Execute calls (warm runs). mutable: a memo, not identity —
  /// Execute stays const.
  mutable std::unique_ptr<CacheManager> cache_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_MULTI_QUERY_H_

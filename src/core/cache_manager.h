// Policy layer of the mediator's materialized-fragment result cache
// (DESIGN.md §14). storage/result_cache.h stores bytes; this class decides
// what those bytes mean:
//
//  * fingerprints — a segment key is (logical source, leading-filter
//    prefix); a result key folds the whole compiled plan. Logical source
//    ids abstract over the per-instance global SourceId spaces so repeated
//    template instances (fleet) and repeated runs (multi-query) hash to
//    the same entries;
//  * versions — a per-logical-source data-version registry. Entries store
//    the version hash they were computed under; any BumpVersion makes
//    every dependent entry a stale miss (lazily evicted). The comm layer's
//    SourceVersion is a *delivery* version (it bumps on every pop), so the
//    data-version registry is deliberately separate: it bumps only when a
//    source's contents change;
//  * memory — cached bytes are registered with the shard's accountant as
//    a *reclaimable* grant: invisible to available()/peak() (so no
//    scheduling decision ever changes) and stolen back by the accountant's
//    reclaimer whenever a live grant needs the space. Work conservation:
//    the cache can never make a query wait.
//
// One CacheManager per mediator shard; entries survive across runs within
// the shard and never cross shards.

#ifndef DQSCHED_CORE_CACHE_MANAGER_H_
#define DQSCHED_CORE_CACHE_MANAGER_H_

#include <cstdint>
#include <unordered_map>

#include "common/ids.h"
#include "core/metrics.h"
#include "storage/result_cache.h"

namespace dqsched::plan {
struct CompiledPlan;
}
namespace dqsched::exec {
class ExecContext;
}
namespace dqsched::storage {
class MemoryAccountant;
}

namespace dqsched::core {

class ExecutionState;

/// Cache knobs, carried by EngineConfig (core/engine.h).
struct CacheConfig {
  /// Master switch. On, the cache keeps final result digests (count +
  /// checksum, served at join time) and completed MF segments (served at
  /// plan time by chain rebinding); off, the budget is ignored.
  bool enabled = false;
  /// LRU byte budget of one shard's cache. The effective ceiling is the
  /// minimum of this and the accountant's headroom — live queries always
  /// win the shared budget.
  int64_t budget_bytes = 64ll << 20;
};

/// Per-shard cache policy: fingerprinting, version guarding, accountant
/// integration, and the plan-time / admission hooks. Single-threaded,
/// like the shard it belongs to.
class CacheManager {
 public:
  explicit CacheManager(const CacheConfig& config)
      : config_(config), cache_(config.budget_bytes) {}

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  const CacheConfig& config() const { return config_; }

  // --- Logical keys and data versions -----------------------------------
  /// Maps a run's global source id to its logical source. Unmapped
  /// sources use the global id itself (multi-query: source spaces are
  /// stable across runs); the fleet maps every instance source to its
  /// template-relative key so instances share entries.
  void MapSource(SourceId global, int64_t logical_key);

  /// Declares that the logical source's *contents* changed: every cached
  /// entry computed from it becomes a stale miss on its next lookup.
  void BumpVersion(int64_t logical_key) { ++versions_[logical_key]; }

  // --- Accountant integration -------------------------------------------
  /// Registers the resident bytes as a reclaimable grant on `accountant`
  /// (trimming first if they exceed its headroom) and wires the steal
  /// path: accountant reclaim -> LRU eviction -> reclaimable release.
  /// While attached, reclaimable() == resident_bytes() at every quiescent
  /// point.
  void AttachAccountant(storage::MemoryAccountant* accountant);
  /// Returns the reclaimable grant and unhooks; entries stay resident.
  void DetachAccountant();

  // --- Run lifecycle -----------------------------------------------------
  /// Starts a run: entries admitted by earlier runs become visible,
  /// entries this run admits stay invisible until the next BeginRun, and
  /// the per-run counters reset. This is what makes a cold run byte-
  /// identical to a cache-off run by construction.
  void BeginRun();

  // --- Lookups ------------------------------------------------------------
  /// Join-time whole-query hit: serves the cached result digest of
  /// `compiled` if present, fresh, and visible.
  bool LookupResult(const plan::CompiledPlan& compiled, int64_t* count,
                    uint64_t* checksum);

  /// Plan-time segment hits: probes the cache once per eligible chain
  /// (untouched: not started, not done, not degraded) and rebinds each
  /// hit to an adopted sealed temp, closing the chain's source. Called by
  /// Dqs::ComputePlan before the degradation pass.
  void TrySegmentHits(ExecutionState& state, exec::ExecContext& ctx);

  // --- Admission ----------------------------------------------------------
  /// Harvests a cleanly finished query: every naturally completed MF
  /// whose source was never closed becomes a cached segment — its temp's
  /// pages move into the cache and the temp reads as dropped — and, when
  /// `result_complete` (full, non-partial answer), the result digest is
  /// cached too. Callers must not admit cancelled or partial queries'
  /// results; cancelled states are rejected here as a backstop.
  void AdmitQuery(const ExecutionState& state, exec::ExecContext& ctx,
                  bool result_complete);

  // --- Broker / maintenance ----------------------------------------------
  /// Evicts LRU entries until at most `target_bytes` stay resident (a
  /// broker trim directive from fleet barrier arbitration).
  void TrimTo(int64_t target_bytes);
  void Clear();

  int64_t resident_bytes() const { return cache_.resident_bytes(); }
  int64_t entries() const { return cache_.entries(); }
  int64_t borrowed_segments() const { return cache_.borrowed_segments(); }
  /// Counters since the last BeginRun, as the metrics-layer struct.
  CacheStats stats() const;

 private:
  uint64_t LogicalKey(SourceId global) const;
  uint64_t VersionOf(uint64_t logical_key) const;
  uint64_t SegmentFingerprint(const plan::CompiledPlan& compiled,
                              ChainId chain) const;
  uint64_t SegmentVersionHash(SourceId global) const;
  uint64_t QueryFingerprint(const plan::CompiledPlan& compiled) const;
  uint64_t QueryVersionHash(const plan::CompiledPlan& compiled) const;
  /// Makes sure the accountant (when attached) can host `bytes` more
  /// reclaimable bytes, evicting LRU entries if needed. False when even
  /// an empty cache lacks the headroom.
  bool EnsureHeadroom(int64_t bytes);

  CacheConfig config_;
  storage::ResultCache cache_;
  storage::MemoryAccountant* accountant_ = nullptr;
  std::unordered_map<SourceId, int64_t> logical_key_of_;
  std::unordered_map<int64_t, uint64_t> versions_;
};

/// Binds a cache to one execution context's accountant for the scope's
/// lifetime: attaches (then, with `begin_run`, starts a run) on
/// construction and returns the reclaimable grant on destruction, on every
/// exit path. Declare it after the context, so it dies while the
/// accountant still exists. A null cache (caching off) makes it a no-op.
class CacheRunScope {
 public:
  CacheRunScope(CacheManager* cache, storage::MemoryAccountant* accountant,
                bool begin_run)
      : cache_(cache) {
    if (cache_ == nullptr) return;
    cache_->AttachAccountant(accountant);
    if (begin_run) cache_->BeginRun();
  }
  ~CacheRunScope() {
    if (cache_ != nullptr) cache_->DetachAccountant();
  }
  CacheRunScope(const CacheRunScope&) = delete;
  CacheRunScope& operator=(const CacheRunScope&) = delete;

 private:
  CacheManager* cache_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_CACHE_MANAGER_H_

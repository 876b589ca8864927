// Materialized-fragment result cache: the storage-side mechanism of the
// mediator's cross-query cache (DESIGN.md §14).
//
// The cache maps a 64-bit plan-fragment fingerprint to either a
// materialized tuple segment (the tuples of a completed MF(p): the source
// stream with the chain's leading filters pre-applied — a borrowed run of
// the source relation when no filter dropped a tuple, pooled pages
// otherwise; evicting it returns any pages to the pool) or a final result
// digest
// (count + order-independent checksum). Entries carry the version hash of
// the logical sources they were computed from; a lookup whose current
// version hash differs is a miss and lazily evicts the stale entry —
// invalidation is purely version-driven, there is no TTL and no sweeper.
//
// Visibility is epoch-gated: an entry admitted during epoch E is served
// only once BeginEpoch() advanced past E. Drivers call BeginEpoch() once
// per run, so a cold run (cache enabled, nothing admitted before it) can
// never hit — by construction it is byte-identical to a cache-off run on
// every simulated metric, which is what the equivalence tests enforce.
//
// Retention is LRU under a byte budget. Recency is a deterministic access
// counter (no host clocks), so eviction order — like everything else in
// here — is a pure function of the virtual execution history. Policy
// (fingerprints, logical keys, accountant and broker integration) lives
// in core/cache_manager.*; this layer only stores bytes.

#ifndef DQSCHED_STORAGE_RESULT_CACHE_H_
#define DQSCHED_STORAGE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "storage/tuple.h"
#include "storage/tuple_pages.h"

namespace dqsched::storage {

/// Activity counters of one ResultCache. Like planning_host_seconds, the
/// cache counters are OUTSIDE the byte-identity contract between cache-off
/// and cold-cache runs (a cold run records misses and admissions where an
/// off run records nothing); everything the counters describe, however, is
/// deterministic across --jobs values.
struct ResultCacheCounters {
  int64_t segment_hits = 0;
  int64_t segment_misses = 0;
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t admitted_segments = 0;
  int64_t admitted_results = 0;
  /// Lookups that found the fingerprint with a stale version hash (the
  /// entry was lazily evicted; the lookup also counts as a miss).
  int64_t stale_invalidations = 0;
  /// Entries removed by LRU budget pressure, accountant reclaim, or a
  /// broker trim directive.
  int64_t evictions = 0;

  ResultCacheCounters& operator+=(const ResultCacheCounters& other) {
    segment_hits += other.segment_hits;
    segment_misses += other.segment_misses;
    result_hits += other.result_hits;
    result_misses += other.result_misses;
    admitted_segments += other.admitted_segments;
    admitted_results += other.admitted_results;
    stale_invalidations += other.stale_invalidations;
    evictions += other.evictions;
    return *this;
  }
};

/// Fingerprint-keyed LRU store of materialized segments and result
/// digests. Single-threaded, like the shard state it belongs to.
class ResultCache {
 public:
  explicit ResultCache(int64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Makes every entry admitted before this call servable. Called once
  /// per run by the owning CacheManager.
  void BeginEpoch() { ++epoch_; }

  /// Eviction notification: invoked with the freed byte count every time
  /// an entry leaves the cache (the CacheManager keeps the memory
  /// accountant's reclaimable pool in sync through this).
  void SetEvictHook(std::function<void(int64_t)> hook) {
    evict_hook_ = std::move(hook);
  }

  /// Serves the cached segment for `fingerprint` if it is visible in the
  /// current epoch and its version hash matches; nullptr otherwise. A
  /// version mismatch lazily evicts the entry.
  const TuplePages* LookupSegment(uint64_t fingerprint,
                                  uint64_t version_hash);

  /// Serves the cached result digest; same visibility and version rules.
  bool LookupResult(uint64_t fingerprint, uint64_t version_hash,
                    int64_t* count, uint64_t* checksum);

  /// Admits a segment (replacing any entry under the same fingerprint),
  /// evicting LRU entries to respect the byte budget. An entry larger
  /// than the whole budget is rejected and its pages go back to the pool.
  /// Returns the admitted byte size (0 when rejected).
  int64_t InsertSegment(uint64_t fingerprint, uint64_t version_hash,
                        TuplePages tuples);

  /// Admits a result digest under the same replacement/budget rules.
  int64_t InsertResult(uint64_t fingerprint, uint64_t version_hash,
                       int64_t count, uint64_t checksum);

  /// Evicts LRU entries until at least `bytes` were freed (or the cache
  /// is empty). Returns the bytes actually freed. This is the accountant
  /// reclaim path: live grants steal cached bytes through it.
  int64_t EvictLru(int64_t bytes);

  /// Evicts LRU entries until the resident size is <= `target_bytes`
  /// (a broker trim directive).
  void TrimTo(int64_t target_bytes);

  void Clear();

  int64_t resident_bytes() const { return resident_bytes_; }
  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t entries() const { return static_cast<int64_t>(entries_.size()); }
  /// Resident segments that hold a borrowed source-relation run instead of
  /// pages (a host-memory view; no simulated figure depends on it).
  int64_t borrowed_segments() const;
  const ResultCacheCounters& counters() const { return counters_; }
  /// Zeroes the counters (per-run reporting); entries stay resident.
  void ResetCounters() { counters_ = ResultCacheCounters{}; }

  /// Accounted footprint of a segment of `n` tuples (payload + fixed
  /// per-entry overhead).
  static int64_t SegmentBytes(int64_t n) {
    return n * static_cast<int64_t>(sizeof(Tuple)) + kEntryOverheadBytes;
  }

 private:
  static constexpr int64_t kEntryOverheadBytes = 64;

  struct Entry {
    bool is_segment = false;
    uint64_t version_hash = 0;
    uint64_t admitted_epoch = 0;
    int64_t bytes = 0;
    int64_t last_used = 0;  // deterministic recency tick
    TuplePages tuples;      // is_segment
    int64_t count = 0;      // !is_segment
    uint64_t checksum = 0;  // !is_segment
  };

  /// Returns the entry if visible-and-fresh; nullptr otherwise (evicting
  /// stale versions, counting stale_invalidations).
  Entry* Probe(uint64_t fingerprint, uint64_t version_hash);
  void Touch(uint64_t fingerprint, Entry& entry);
  void Erase(uint64_t fingerprint, bool count_eviction);
  /// Makes room for `bytes` within the budget; false when impossible.
  bool ReserveRoom(int64_t bytes);
  int64_t Admit(uint64_t fingerprint, Entry entry);

  int64_t budget_bytes_;
  uint64_t epoch_ = 0;
  int64_t resident_bytes_ = 0;
  int64_t tick_ = 0;
  std::unordered_map<uint64_t, Entry> entries_;
  /// Recency index: tick -> fingerprint. Ticks are unique, so LRU order
  /// is a strict, deterministic total order.
  std::map<int64_t, uint64_t> recency_;
  std::function<void(int64_t)> evict_hook_;
  ResultCacheCounters counters_;
};

}  // namespace dqsched::storage

#endif  // DQSCHED_STORAGE_RESULT_CACHE_H_

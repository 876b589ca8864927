#include "storage/result_cache.h"

#include <utility>

#include "common/macros.h"

namespace dqsched::storage {

ResultCache::Entry* ResultCache::Probe(uint64_t fingerprint,
                                       uint64_t version_hash) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.version_hash != version_hash) {
    // A source the entry depends on moved on: the entry can never be
    // served again (versions are monotone), so drop it now instead of
    // letting it squat on the budget until LRU gets around to it.
    ++counters_.stale_invalidations;
    Erase(fingerprint, /*count_eviction=*/false);
    return nullptr;
  }
  if (entry.admitted_epoch >= epoch_) {
    // Admitted during the current run: invisible until the next
    // BeginEpoch, so a cold run can never serve its own admissions.
    return nullptr;
  }
  return &entry;
}

void ResultCache::Touch(uint64_t fingerprint, Entry& entry) {
  recency_.erase(entry.last_used);
  entry.last_used = ++tick_;
  recency_.emplace(entry.last_used, fingerprint);
}

const TuplePages* ResultCache::LookupSegment(uint64_t fingerprint,
                                             uint64_t version_hash) {
  Entry* entry = Probe(fingerprint, version_hash);
  if (entry == nullptr || !entry->is_segment) {
    ++counters_.segment_misses;
    return nullptr;
  }
  ++counters_.segment_hits;
  Touch(fingerprint, *entry);
  return &entry->tuples;
}

bool ResultCache::LookupResult(uint64_t fingerprint, uint64_t version_hash,
                               int64_t* count, uint64_t* checksum) {
  Entry* entry = Probe(fingerprint, version_hash);
  if (entry == nullptr || entry->is_segment) {
    ++counters_.result_misses;
    return false;
  }
  ++counters_.result_hits;
  Touch(fingerprint, *entry);
  *count = entry->count;
  *checksum = entry->checksum;
  return true;
}

void ResultCache::Erase(uint64_t fingerprint, bool count_eviction) {
  auto it = entries_.find(fingerprint);
  DQS_CHECK(it != entries_.end());
  const int64_t freed = it->second.bytes;
  recency_.erase(it->second.last_used);
  entries_.erase(it);
  resident_bytes_ -= freed;
  if (count_eviction) ++counters_.evictions;
  if (evict_hook_) evict_hook_(freed);
}

bool ResultCache::ReserveRoom(int64_t bytes) {
  if (bytes > budget_bytes_) return false;
  while (resident_bytes_ + bytes > budget_bytes_) {
    DQS_CHECK(!recency_.empty());
    Erase(recency_.begin()->second, /*count_eviction=*/true);
  }
  return true;
}

int64_t ResultCache::Admit(uint64_t fingerprint, Entry entry) {
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    // Replacement (e.g. a re-admission after a version bump): the old
    // entry leaves silently — it is superseded, not evicted.
    Erase(fingerprint, /*count_eviction=*/false);
  }
  if (!ReserveRoom(entry.bytes)) return 0;
  entry.admitted_epoch = epoch_;
  entry.last_used = ++tick_;
  resident_bytes_ += entry.bytes;
  recency_.emplace(entry.last_used, fingerprint);
  entries_.emplace(fingerprint, std::move(entry));
  return entries_.at(fingerprint).bytes;
}

int64_t ResultCache::InsertSegment(uint64_t fingerprint,
                                   uint64_t version_hash,
                                   TuplePages tuples) {
  Entry entry;
  entry.is_segment = true;
  entry.version_hash = version_hash;
  entry.bytes = SegmentBytes(tuples.size());
  entry.tuples = std::move(tuples);
  const int64_t admitted = Admit(fingerprint, std::move(entry));
  if (admitted > 0) ++counters_.admitted_segments;
  return admitted;
}

int64_t ResultCache::InsertResult(uint64_t fingerprint,
                                  uint64_t version_hash, int64_t count,
                                  uint64_t checksum) {
  Entry entry;
  entry.is_segment = false;
  entry.version_hash = version_hash;
  entry.bytes = kEntryOverheadBytes;
  entry.count = count;
  entry.checksum = checksum;
  const int64_t admitted = Admit(fingerprint, std::move(entry));
  if (admitted > 0) ++counters_.admitted_results;
  return admitted;
}

int64_t ResultCache::EvictLru(int64_t bytes) {
  int64_t freed = 0;
  while (freed < bytes && !recency_.empty()) {
    const uint64_t victim = recency_.begin()->second;
    freed += entries_.at(victim).bytes;
    Erase(victim, /*count_eviction=*/true);
  }
  return freed;
}

void ResultCache::TrimTo(int64_t target_bytes) {
  while (resident_bytes_ > target_bytes && !recency_.empty()) {
    Erase(recency_.begin()->second, /*count_eviction=*/true);
  }
}

int64_t ResultCache::borrowed_segments() const {
  int64_t n = 0;
  for (const auto& [fingerprint, entry] : entries_) {
    if (entry.is_segment && entry.tuples.borrowed()) ++n;
  }
  return n;
}

void ResultCache::Clear() {
  while (!recency_.empty()) {
    Erase(recency_.begin()->second, /*count_eviction=*/false);
  }
  DQS_CHECK(resident_bytes_ == 0 && entries_.empty());
}

}  // namespace dqsched::storage

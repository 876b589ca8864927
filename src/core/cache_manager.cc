#include "core/cache_manager.h"

#include <cstring>
#include <string>

#include "common/macros.h"
#include "core/execution_state.h"
#include "exec/exec_context.h"
#include "plan/compiled_plan.h"
#include "storage/memory_accountant.h"
#include "storage/tuple_pages.h"

namespace dqsched::core {

namespace {

// Domain-separation tags so segment and result fingerprints can never
// collide with each other.
constexpr uint64_t kSegmentTag = 0x5e6d656e74a11feeULL;
constexpr uint64_t kResultTag = 0x4e5d1675a1fca5eULL;

uint64_t FoldU64(uint64_t h, uint64_t v) {
  return storage::Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

uint64_t FoldDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return FoldU64(h, bits);
}

uint64_t FoldOp(uint64_t h, const plan::ChainOp& op) {
  h = FoldU64(h, static_cast<uint64_t>(op.kind));
  h = FoldU64(h, static_cast<uint64_t>(op.node));
  if (op.kind == plan::ChainOpKind::kFilter) {
    h = FoldDouble(h, op.selectivity);
  } else {
    h = FoldU64(h, static_cast<uint64_t>(op.join));
    h = FoldU64(h, static_cast<uint64_t>(op.probe_key_field));
  }
  return h;
}

}  // namespace

void CacheManager::MapSource(SourceId global, int64_t logical_key) {
  logical_key_of_[global] = logical_key;
}

uint64_t CacheManager::LogicalKey(SourceId global) const {
  auto it = logical_key_of_.find(global);
  if (it == logical_key_of_.end()) return static_cast<uint64_t>(global);
  return static_cast<uint64_t>(it->second);
}

uint64_t CacheManager::VersionOf(uint64_t logical_key) const {
  auto it = versions_.find(static_cast<int64_t>(logical_key));
  return it == versions_.end() ? 0 : it->second;
}

uint64_t CacheManager::SegmentFingerprint(const plan::CompiledPlan& compiled,
                                          ChainId chain) const {
  const plan::ChainInfo& info = compiled.chain(chain);
  uint64_t h = FoldU64(kSegmentTag, LogicalKey(info.source));
  int leading = 0;
  for (const plan::ChainOp& op : info.ops) {
    if (op.kind != plan::ChainOpKind::kFilter) break;
    h = FoldOp(h, op);
    ++leading;
  }
  return FoldU64(h, static_cast<uint64_t>(leading));
}

uint64_t CacheManager::SegmentVersionHash(SourceId global) const {
  const uint64_t lk = LogicalKey(global);
  return FoldU64(lk, VersionOf(lk));
}

uint64_t CacheManager::QueryFingerprint(
    const plan::CompiledPlan& compiled) const {
  uint64_t h = FoldU64(kResultTag, static_cast<uint64_t>(compiled.num_chains()));
  h = FoldU64(h, static_cast<uint64_t>(compiled.num_joins));
  h = FoldU64(h, static_cast<uint64_t>(compiled.result_chain));
  for (const plan::ChainInfo& info : compiled.chains) {
    h = FoldU64(h, LogicalKey(info.source));
    h = FoldU64(h, info.is_result ? 1 : 0);
    h = FoldU64(h, static_cast<uint64_t>(info.sink_join));
    h = FoldU64(h, static_cast<uint64_t>(info.build_key_field));
    h = FoldU64(h, info.ops.size());
    for (const plan::ChainOp& op : info.ops) h = FoldOp(h, op);
  }
  return h;
}

uint64_t CacheManager::QueryVersionHash(
    const plan::CompiledPlan& compiled) const {
  uint64_t h = kResultTag;
  for (const plan::ChainInfo& info : compiled.chains) {
    const uint64_t lk = LogicalKey(info.source);
    h = FoldU64(h, lk);
    h = FoldU64(h, VersionOf(lk));
  }
  return h;
}

void CacheManager::AttachAccountant(storage::MemoryAccountant* accountant) {
  DQS_CHECK_MSG(accountant_ == nullptr, "accountant attached twice");
  DQS_CHECK(accountant != nullptr);
  // Trim before hooking up: these evictions have no reclaimable grant
  // backing them yet.
  cache_.SetEvictHook(nullptr);
  if (cache_.resident_bytes() > accountant->headroom()) {
    cache_.TrimTo(accountant->headroom());
  }
  accountant_ = accountant;
  accountant_->GrantReclaimable(cache_.resident_bytes());
  cache_.SetEvictHook(
      [this](int64_t freed) { accountant_->ReleaseReclaimable(freed); });
  accountant_->SetReclaimer(
      [this](int64_t deficit) { cache_.EvictLru(deficit); });
}

void CacheManager::DetachAccountant() {
  if (accountant_ == nullptr) return;
  accountant_->SetReclaimer(nullptr);
  cache_.SetEvictHook(nullptr);
  accountant_->ReleaseReclaimable(cache_.resident_bytes());
  accountant_ = nullptr;
}

void CacheManager::BeginRun() {
  cache_.BeginEpoch();
  cache_.ResetCounters();
}

bool CacheManager::EnsureHeadroom(int64_t bytes) {
  if (accountant_ == nullptr) return true;
  if (accountant_->headroom() >= bytes) return true;
  cache_.EvictLru(bytes - accountant_->headroom());
  return accountant_->headroom() >= bytes;
}

bool CacheManager::LookupResult(const plan::CompiledPlan& compiled,
                                int64_t* count, uint64_t* checksum) {
  if (!config_.enabled) return false;
  return cache_.LookupResult(QueryFingerprint(compiled),
                             QueryVersionHash(compiled), count, checksum);
}

void CacheManager::TrySegmentHits(ExecutionState& state,
                                  exec::ExecContext& ctx) {
  if (!config_.enabled) return;
  const plan::CompiledPlan& compiled = state.compiled();
  for (ChainId c = 0; c < compiled.num_chains(); ++c) {
    if (state.CacheProbed(c)) continue;
    state.SetCacheProbed(c);
    if (state.ChainDone(c) || state.Degraded(c) || state.CacheBound(c)) {
      continue;
    }
    if (state.fragment(state.ChainFragment(c)).stats().consumed != 0) {
      continue;
    }
    const SourceId src = compiled.chain(c).source;
    // Binding closes the source; only safe when no other live chain
    // drains the same queue (never the case for compiled plans, but
    // hand-built ones may share).
    bool exclusive = true;
    for (ChainId o = 0; o < compiled.num_chains(); ++o) {
      if (o != c && compiled.chain(o).source == src && !state.ChainDone(o) &&
          !state.CacheBound(o)) {
        exclusive = false;
        break;
      }
    }
    if (!exclusive) continue;
    const storage::TuplePages* segment = cache_.LookupSegment(
        SegmentFingerprint(compiled, c), SegmentVersionHash(src));
    if (segment == nullptr) continue;
    const TempId temp =
        ctx.temps.AdoptSealed("cached_" + compiled.chain(c).name, *segment);
    state.BindChainToCachedSegment(c, temp, ctx);
    // No live remainder: the cached segment IS the (filtered) stream.
    // Closing zeroes RemainingTuples, so the rebound chain can never
    // degrade or stall on its wrapper again.
    ctx.comm.CloseSource(src);
  }
}

void CacheManager::AdmitQuery(const ExecutionState& state,
                              exec::ExecContext& ctx, bool result_complete) {
  if (!config_.enabled) return;
  if (state.cancelled()) return;  // cancelled segments never enter
  const plan::CompiledPlan& compiled = state.compiled();
  for (ChainId c = 0; c < compiled.num_chains(); ++c) {
    if (!state.MfComplete(c)) continue;
    const SourceId src = compiled.chain(c).source;
    // A closed/abandoned source means the MF's "end of stream" was the
    // abandonment, not the real end — the prefix is partial.
    if (ctx.comm.SourceClosed(src)) continue;
    const TempId temp = state.MfTemp(c);
    if (ctx.temps.IsDropped(temp) || !ctx.temps.IsSealed(temp)) continue;
    const int64_t need =
        storage::ResultCache::SegmentBytes(ctx.temps.Cardinality(temp));
    if (!EnsureHeadroom(need)) continue;
    // The query is finished, so nothing reads the MF temp again: its
    // pages move into the cache (the temp reads as dropped).
    const int64_t admitted = cache_.InsertSegment(
        SegmentFingerprint(compiled, c), SegmentVersionHash(src),
        ctx.temps.TakeTuples(temp));
    if (admitted > 0 && accountant_ != nullptr) {
      accountant_->GrantReclaimable(admitted);
    }
  }
  if (result_complete) {
    if (!EnsureHeadroom(storage::ResultCache::SegmentBytes(0))) return;
    const int64_t admitted = cache_.InsertResult(
        QueryFingerprint(compiled), QueryVersionHash(compiled),
        state.result().count(), state.result().checksum().value());
    if (admitted > 0 && accountant_ != nullptr) {
      accountant_->GrantReclaimable(admitted);
    }
  }
}

void CacheManager::TrimTo(int64_t target_bytes) {
  cache_.TrimTo(target_bytes);
}

void CacheManager::Clear() {
  cache_.Clear();
  if (accountant_ != nullptr) {
    DQS_CHECK(cache_.resident_bytes() == 0);
  }
}

CacheStats CacheManager::stats() const {
  const storage::ResultCacheCounters& c = cache_.counters();
  CacheStats out;
  out.segment_hits = c.segment_hits;
  out.segment_misses = c.segment_misses;
  out.result_hits = c.result_hits;
  out.result_misses = c.result_misses;
  out.admitted_segments = c.admitted_segments;
  out.admitted_results = c.admitted_results;
  out.stale_invalidations = c.stale_invalidations;
  out.evictions = c.evictions;
  return out;
}

}  // namespace dqsched::core

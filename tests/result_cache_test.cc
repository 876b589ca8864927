// Result-cache coverage (DESIGN.md §14): epoch-gated visibility, LRU and
// version-guarded eviction in the storage layer; the accountant's
// reclaimable grant class; and the end-to-end contracts — cache-off vs
// cold-cache byte-identity on every non-wall metric, warm runs serving
// hits without ever producing a different answer, staleness under
// version bumps (with rate drift and fault storms in the mix),
// broker-pressure reclaim, cancelled queries never admitting, and
// jobs=1/2/8 byte-identity with caching on.

#include "storage/result_cache.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet_executor.h"
#include "core/multi_query.h"
#include "fnv1a.h"
#include "plan/canonical_plans.h"
#include "storage/memory_accountant.h"

namespace dqsched::core {
namespace {

using storage::MemoryAccountant;
using storage::ResultCache;
using storage::Tuple;

storage::TuplePages Segment(int64_t n, uint64_t tag) {
  std::vector<Tuple> tuples(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    tuples[static_cast<size_t>(i)].rowid = storage::Mix64(tag ^ uint64_t(i));
  }
  storage::TuplePages pages;
  pages.Append(tuples.data(), n);
  return pages;
}

// ---------------------------------------------------------------------------
// Storage layer: ResultCache.

TEST(ResultCache, EpochGatingHidesSameRunAdmissions) {
  ResultCache cache(1 << 20);
  cache.BeginEpoch();
  EXPECT_GT(cache.InsertSegment(1, 7, Segment(10, 1)), 0);
  EXPECT_GT(cache.InsertResult(2, 7, 42, 0xabc), 0);
  // Admitted during the current epoch: invisible to this run's lookups.
  int64_t count = 0;
  uint64_t checksum = 0;
  EXPECT_EQ(cache.LookupSegment(1, 7), nullptr);
  EXPECT_FALSE(cache.LookupResult(2, 7, &count, &checksum));
  EXPECT_EQ(cache.counters().segment_misses, 1);
  EXPECT_EQ(cache.counters().result_misses, 1);

  // The next run sees them.
  cache.BeginEpoch();
  const storage::TuplePages* seg = cache.LookupSegment(1, 7);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size(), 10);
  ASSERT_TRUE(cache.LookupResult(2, 7, &count, &checksum));
  EXPECT_EQ(count, 42);
  EXPECT_EQ(checksum, 0xabcu);
  EXPECT_EQ(cache.counters().segment_hits, 1);
  EXPECT_EQ(cache.counters().result_hits, 1);
}

TEST(ResultCache, StaleVersionLazilyEvicts) {
  ResultCache cache(1 << 20);
  int64_t freed = 0;
  cache.SetEvictHook([&freed](int64_t bytes) { freed += bytes; });
  cache.BeginEpoch();
  const int64_t bytes = cache.InsertSegment(1, /*version_hash=*/7,
                                            Segment(10, 1));
  ASSERT_GT(bytes, 0);
  cache.BeginEpoch();
  // Same fingerprint, different version hash: a stale miss that removes
  // the entry — invalidation is purely version-driven and lazy.
  EXPECT_EQ(cache.LookupSegment(1, /*version_hash=*/8), nullptr);
  EXPECT_EQ(cache.counters().stale_invalidations, 1);
  EXPECT_EQ(cache.counters().segment_misses, 1);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_EQ(freed, bytes);
  // A second lookup is a plain miss, not another stale invalidation.
  EXPECT_EQ(cache.LookupSegment(1, 8), nullptr);
  EXPECT_EQ(cache.counters().stale_invalidations, 1);
}

TEST(ResultCache, LruEvictsInDeterministicRecencyOrder) {
  // Budget fits two 10-tuple segments (10*40+64 = 464 bytes each).
  ResultCache cache(2 * ResultCache::SegmentBytes(10));
  cache.BeginEpoch();
  EXPECT_GT(cache.InsertSegment(1, 0, Segment(10, 1)), 0);
  EXPECT_GT(cache.InsertSegment(2, 0, Segment(10, 2)), 0);
  cache.BeginEpoch();
  // Touch 1 so 2 is the LRU victim when 3 needs room.
  ASSERT_NE(cache.LookupSegment(1, 0), nullptr);
  EXPECT_GT(cache.InsertSegment(3, 0, Segment(10, 3)), 0);
  EXPECT_EQ(cache.counters().evictions, 1);
  cache.BeginEpoch();
  EXPECT_NE(cache.LookupSegment(1, 0), nullptr);
  EXPECT_EQ(cache.LookupSegment(2, 0), nullptr);
  EXPECT_NE(cache.LookupSegment(3, 0), nullptr);

  // An entry larger than the whole budget is rejected outright.
  EXPECT_EQ(cache.InsertSegment(4, 0, Segment(1000, 4)), 0);
  EXPECT_EQ(cache.entries(), 2);
}

TEST(ResultCache, EvictLruAndTrimToFreeBytes) {
  ResultCache cache(1 << 20);
  cache.BeginEpoch();
  for (uint64_t f = 1; f <= 4; ++f) {
    ASSERT_GT(cache.InsertSegment(f, 0, Segment(10, f)), 0);
  }
  const int64_t one = ResultCache::SegmentBytes(10);
  // EvictLru frees at least the requested amount, oldest first.
  EXPECT_EQ(cache.EvictLru(1), one);
  EXPECT_EQ(cache.entries(), 3);
  cache.TrimTo(one);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_LE(cache.resident_bytes(), one);
  EXPECT_EQ(cache.counters().evictions, 3);
  cache.BeginEpoch();
  // The survivor is the most recently admitted fingerprint.
  EXPECT_NE(cache.LookupSegment(4, 0), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Accountant: the reclaimable grant class.

TEST(MemoryAccountant, FirmGrantsStealReclaimableBytes) {
  MemoryAccountant accountant(100);
  int64_t reclaimed = 0;
  accountant.SetReclaimer([&](int64_t deficit) {
    // The cache's steal path: free the deficit, report it back.
    reclaimed += deficit;
    accountant.ReleaseReclaimable(deficit);
  });
  accountant.GrantReclaimable(60);
  // Reclaimable bytes are invisible to the scheduling-facing accessors.
  EXPECT_EQ(accountant.available(), 100);
  EXPECT_EQ(accountant.peak(), 0);
  EXPECT_EQ(accountant.headroom(), 40);

  // A firm grant that fits the budget succeeds and steals the overlap.
  ASSERT_TRUE(accountant.Grant(80).ok());
  EXPECT_EQ(reclaimed, 40);
  EXPECT_EQ(accountant.reclaimable(), 20);
  EXPECT_EQ(accountant.granted(), 80);
  EXPECT_EQ(accountant.peak(), 80);

  // Over-budget firm grants still fail — the cache cannot extend the
  // budget, only yield back what it borrowed.
  EXPECT_FALSE(accountant.Grant(30).ok());
  EXPECT_EQ(accountant.reclaimable(), 20);
  accountant.Release(80);
  accountant.ReleaseReclaimable(20);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence and warm-path tests.

/// Every simulated field of a MultiQueryMetrics except the CacheStats
/// counters (which, like planning_host_seconds, are outside the
/// off-vs-cold byte-identity contract).
std::string MqFingerprint(const MultiQueryMetrics& m) {
  std::ostringstream os;
  for (SimDuration t : m.response_times) os << t << '/';
  for (QueryStatus s : m.statuses) os << static_cast<int>(s) << '/';
  os << m.makespan << '/' << m.mean_response << '/'
     << m.total_degradations << '/' << m.total_result_tuples << '/'
     << m.peak_memory_bytes << '/' << m.disk.pages_read << '/'
     << m.disk.pages_written << '/' << m.network.tuples_received << '/'
     << m.temps.temps_created << '/' << m.fault.stalls_injected << '/'
     << m.fault.sources_killed << '/' << m.fault.sources_dead << '/'
     << m.fault.partial_result << '/' << m.fault.deadline_hit;
  return os.str();
}

/// Every virtual field of a fleet run except host wall time and the
/// CacheStats counters.
std::string FleetFingerprint(const FleetMetrics& m) {
  std::ostringstream os;
  for (const FleetQueryOutcome& q : m.queries) {
    os << q.uid << '/' << q.shard << '/' << q.est_bytes << '/' << q.arrival
       << '/' << q.admitted << '/' << q.joined << '/' << q.completed << '/'
       << q.completion_latency << '/' << q.metrics.response_time << '/'
       << q.metrics.busy_time << '/' << q.metrics.result_count << '/'
       << q.metrics.result_checksum << '/' << q.metrics.degradations << '/'
       << q.metrics.operand_spills << '/' << q.metrics.peak_memory_bytes
       << '/' << static_cast<int>(q.status) << '/' << q.attempts << '\n';
  }
  for (const FleetShardOutcome& s : m.shards) {
    os << s.queries << '/' << s.makespan << '/' << s.busy_time << '/'
       << s.peak_memory_bytes << '/' << s.disk.pages_read << '/'
       << s.network.tuples_received << '/' << s.temps.temps_created << '\n';
  }
  os << m.makespan << '/' << m.rounds << '/' << m.broker.grants_issued << '/'
     << m.broker.releases_applied << '/' << m.broker.queued_admissions << '/'
     << m.broker.peak_outstanding_bytes;
  for (int64_t c : m.status_counts) os << '/' << c;
  return os.str();
}

std::string CacheCounterString(const CacheStats& c) {
  std::ostringstream os;
  os << c.segment_hits << '/' << c.segment_misses << '/' << c.result_hits
     << '/' << c.result_misses << '/' << c.admitted_segments << '/'
     << c.admitted_results << '/' << c.stale_invalidations << '/'
     << c.evictions;
  return os.str();
}

std::vector<plan::QuerySetup> TinyTemplates() {
  std::vector<plan::QuerySetup> templates;
  templates.push_back(plan::TinyTwoSourceQuery(800, 1200));
  templates.push_back(plan::TinyTwoSourceQuery(1200, 600));
  return templates;
}

std::vector<FleetQuerySpec> Stream(int n) {
  std::vector<FleetQuerySpec> workload;
  for (int i = 0; i < n; ++i) {
    FleetQuerySpec spec;
    spec.template_idx = i % 2;
    spec.arrival = Milliseconds(5.0 * i);
    spec.fairness =
        i % 3 == 0 ? FairnessClass::kBatch : FairnessClass::kInteractive;
    workload.push_back(spec);
  }
  return workload;
}

FleetConfig CachingConfig() {
  FleetConfig config;
  config.seed = 7;
  config.num_shards = 4;
  config.sync_turns = 64;
  config.cache.enabled = true;
  return config;
}

TEST(ResultCacheEquivalence, MultiQueryOffVsColdByteIdentical) {
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 3; ++i) mix.push_back(plan::PaperFigure5Query(0.02));
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    for (MultiMode mode : {MultiMode::kSerial, MultiMode::kShared}) {
      MultiQueryConfig off;
      off.seed = 42;
      MultiQueryConfig cold = off;
      cold.cache.enabled = true;
      auto m_off = MultiQueryMediator::Create(mix, off);
      auto m_cold = MultiQueryMediator::Create(mix, cold);
      ASSERT_TRUE(m_off.ok() && m_cold.ok());
      auto r_off = m_off->Execute(kind, mode);
      auto r_cold = m_cold->Execute(kind, mode);
      ASSERT_TRUE(r_off.ok() && r_cold.ok());
      EXPECT_EQ(MqFingerprint(*r_off), MqFingerprint(*r_cold))
          << StrategyName(kind) << '/' << MultiModeName(mode);
      // The cold run recorded cache activity — but no hits: epoch gating
      // keeps its own admissions invisible.
      EXPECT_FALSE(r_off->cache.any());
      EXPECT_EQ(r_cold->cache.result_hits + r_cold->cache.segment_hits, 0);
      EXPECT_GT(r_cold->cache.result_misses, 0);
    }
  }
}

TEST(ResultCacheEquivalence, SharedMixMatchesPinnedDigests) {
  // The shared multi-query loop on three Figure-5 queries, cache off and
  // on the second run of a warm cache (all whole-query hits, so SEQ and
  // DSE pin one digest). A change that moves any outcome must re-pin
  // these deliberately.
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 3; ++i) mix.push_back(plan::PaperFigure5Query(0.02));
  struct Cell {
    StrategyKind strategy;
    bool warm;  // digest the second run of a warm cache
    uint64_t digest;
  };
  const Cell cells[] = {
      {StrategyKind::kSeq, false, 0x8a8b1aae04bdadfdULL},
      {StrategyKind::kDse, false, 0x01843bc158a2fb87ULL},
      {StrategyKind::kSeq, true, 0xade5c7f7eca0148eULL},
      {StrategyKind::kDse, true, 0xade5c7f7eca0148eULL},
  };
  for (const Cell& cell : cells) {
    MultiQueryConfig config;
    config.seed = 42;
    config.cache.enabled = cell.warm;
    auto m = MultiQueryMediator::Create(mix, config);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    auto r = m->Execute(cell.strategy, MultiMode::kShared);
    if (cell.warm && r.ok()) r = m->Execute(cell.strategy, MultiMode::kShared);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t digest = Fnv1a(MqFingerprint(*r));
    EXPECT_EQ(digest, cell.digest)
        << StrategyName(cell.strategy) << (cell.warm ? " warm" : " off")
        << " digest 0x" << std::hex << digest;
  }
}

TEST(ResultCacheEquivalence, FleetOffVsColdByteIdentical) {
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    FleetConfig off = CachingConfig();
    off.cache.enabled = false;
    auto f_off = FleetExecutor::Create(TinyTemplates(), Stream(10), off);
    auto f_cold =
        FleetExecutor::Create(TinyTemplates(), Stream(10), CachingConfig());
    ASSERT_TRUE(f_off.ok() && f_cold.ok());
    auto r_off = f_off->Execute(kind, 2);
    auto r_cold = f_cold->Execute(kind, 2);
    ASSERT_TRUE(r_off.ok() && r_cold.ok());
    EXPECT_EQ(FleetFingerprint(*r_off), FleetFingerprint(*r_cold))
        << StrategyName(kind);
    EXPECT_FALSE(r_off->cache.any());
    EXPECT_EQ(r_cold->cache.result_hits + r_cold->cache.segment_hits, 0);
    EXPECT_GT(r_cold->cache.admitted_results, 0);
  }
}

TEST(ResultCacheEquivalence, ColdRunByteIdenticalAcrossJobs) {
  // Caching on, fresh fleet per job count: the cold run's virtual results
  // AND its cache counters are pure functions of the virtual history.
  std::string expected_fp;
  std::string expected_counters;
  for (int jobs : {1, 2, 8}) {
    auto fleet =
        FleetExecutor::Create(TinyTemplates(), Stream(10), CachingConfig());
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto r = fleet->Execute(StrategyKind::kDse, jobs);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (expected_fp.empty()) {
      expected_fp = FleetFingerprint(*r);
      expected_counters = CacheCounterString(r->cache);
    } else {
      EXPECT_EQ(FleetFingerprint(*r), expected_fp) << "jobs=" << jobs;
      EXPECT_EQ(CacheCounterString(r->cache), expected_counters)
          << "jobs=" << jobs;
    }
  }
}

TEST(ResultCacheWarm, WarmRunByteIdenticalAcrossJobs) {
  // Warm-path determinism: warmup + measured run at each job count on
  // fresh fleets; the measured run serves hits and its every virtual
  // field (cache counters included) matches across jobs.
  std::string expected_fp;
  std::string expected_counters;
  for (int jobs : {1, 2, 8}) {
    auto fleet =
        FleetExecutor::Create(TinyTemplates(), Stream(10), CachingConfig());
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto warmup = fleet->Execute(StrategyKind::kDse, jobs);
    ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
    auto r = fleet->Execute(StrategyKind::kDse, jobs);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->cache.result_hits + r->cache.segment_hits, 0);
    if (expected_fp.empty()) {
      expected_fp = FleetFingerprint(*r);
      expected_counters = CacheCounterString(r->cache);
    } else {
      EXPECT_EQ(FleetFingerprint(*r), expected_fp) << "jobs=" << jobs;
      EXPECT_EQ(CacheCounterString(r->cache), expected_counters)
          << "jobs=" << jobs;
    }
  }
}

TEST(ResultCacheWarm, FleetWarmHitsAndNoWorseMakespan) {
  auto fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(12), CachingConfig());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto cold = fleet->Execute(StrategyKind::kSeq, 2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = fleet->Execute(StrategyKind::kSeq, 2);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(warm->cache.result_hits, 0);
  EXPECT_LE(warm->makespan, cold->makespan);
  // Hits serve the verified reference answer: result counts/checksums of
  // resolved queries equal the cold run's.
  ASSERT_EQ(warm->queries.size(), cold->queries.size());
  for (size_t i = 0; i < warm->queries.size(); ++i) {
    EXPECT_EQ(warm->queries[i].metrics.result_count,
              cold->queries[i].metrics.result_count);
    EXPECT_EQ(warm->queries[i].metrics.result_checksum,
              cold->queries[i].metrics.result_checksum);
  }
  // ResetCache restores the cold regime.
  fleet->ResetCache();
  auto recold = fleet->Execute(StrategyKind::kSeq, 2);
  ASSERT_TRUE(recold.ok());
  EXPECT_EQ(recold->cache.result_hits + recold->cache.segment_hits, 0);
  EXPECT_EQ(FleetFingerprint(*recold), FleetFingerprint(*cold));
}

TEST(ResultCacheWarm, FleetSegmentHitServesABorrowedRun) {
  // With A slowed, DSE materializes each template's blocked probe source,
  // B, to completion and admits the MF segments. No filter runs on them,
  // so each segment is B's stream kept as a run of B's relation (DESIGN.md
  // §5, §14.4). A bump of every A makes the result digests stale but
  // leaves the B segments fresh, so the next run rebinds every B chain to
  // a borrowed segment while its A chain still runs: warm segment hits,
  // with answers equal to the cold run's.
  std::vector<plan::QuerySetup> templates = TinyTemplates();
  for (plan::QuerySetup& t : templates) {
    t.catalog.sources[0].delay.mean_us *= 8.0;
  }
  auto fleet = FleetExecutor::Create(std::move(templates), Stream(12),
                                     CachingConfig());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto cold = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->cache.admitted_segments, 12);
  const int64_t borrowed = fleet->BorrowedCacheSegments();
  EXPECT_GT(borrowed, 0);

  // Two 2-source templates: logical keys 0 and 2 are their A sources.
  fleet->BumpCacheVersion(0);
  fleet->BumpCacheVersion(2);
  auto warm = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->cache.result_hits, 0);
  EXPECT_EQ(warm->cache.segment_hits, 12);
  // Hits adopt the segments without replacing them: still all borrowed.
  EXPECT_EQ(fleet->BorrowedCacheSegments(), borrowed);
  ASSERT_EQ(warm->queries.size(), cold->queries.size());
  for (size_t i = 0; i < warm->queries.size(); ++i) {
    EXPECT_EQ(warm->queries[i].status, QueryStatus::kOk);
    EXPECT_EQ(warm->queries[i].metrics.result_count,
              cold->queries[i].metrics.result_count);
    EXPECT_EQ(warm->queries[i].metrics.result_checksum,
              cold->queries[i].metrics.result_checksum);
  }
}

TEST(ResultCacheWarm, MultiQueryWarmResolvesEveryQuery) {
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 4; ++i) mix.push_back(plan::PaperFigure5Query(0.02));
  for (MultiMode mode : {MultiMode::kSerial, MultiMode::kShared}) {
    MultiQueryConfig config;
    config.seed = 42;
    config.cache.enabled = true;
    auto mediator = MultiQueryMediator::Create(mix, config);
    ASSERT_TRUE(mediator.ok());
    auto cold = mediator->Execute(StrategyKind::kDse, mode);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto warm = mediator->Execute(StrategyKind::kDse, mode);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    // Identical queries in the mix: every one resolves from its digest
    // (the hit path re-verifies against the reference inside Execute).
    EXPECT_EQ(warm->cache.result_hits, 4) << MultiModeName(mode);
    EXPECT_LE(warm->makespan, cold->makespan);
    EXPECT_EQ(warm->total_result_tuples, cold->total_result_tuples);
    for (QueryStatus s : warm->statuses) EXPECT_EQ(s, QueryStatus::kOk);
  }
}

TEST(ResultCacheInvalidation, VersionBumpForcesStaleMissesUnderRateDrift) {
  // Bursty delivery on the first source = rate drift driving replans
  // while the cache is live; the mix still warms and still invalidates.
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < 2; ++i) {
    plan::QuerySetup q = plan::PaperFigure5Query(0.02);
    q.catalog.sources[0].delay.kind = wrapper::DelayKind::kBursty;
    q.catalog.sources[0].delay.burst_length = 200;
    q.catalog.sources[0].delay.burst_gap_ms = 5.0;
    mix.push_back(std::move(q));
  }
  MultiQueryConfig config;
  config.seed = 42;
  config.cache.enabled = true;
  auto mediator = MultiQueryMediator::Create(std::move(mix), config);
  ASSERT_TRUE(mediator.ok());
  const int num_sources = 2 * 6;  // two paper queries, global ids 0..11
  auto cold = mediator->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = mediator->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm->cache.result_hits, 0);

  // Declare churn on every source: all entries go stale, and the next
  // run is a (lazily re-populating) cold run again.
  for (int s = 0; s < num_sources; ++s) mediator->BumpCacheVersion(s);
  auto bumped = mediator->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(bumped.ok());
  EXPECT_EQ(bumped->cache.result_hits + bumped->cache.segment_hits, 0);
  EXPECT_GT(bumped->cache.stale_invalidations, 0);
  EXPECT_EQ(MqFingerprint(*bumped), MqFingerprint(*cold));

  // The re-admitted entries carry the bumped versions: warm again.
  auto rewarm = mediator->Execute(StrategyKind::kDse, MultiMode::kShared);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_GT(rewarm->cache.result_hits, 0);
}

TEST(ResultCacheInvalidation, VersionBumpUnderFaultStorm) {
  // A correlated region outage runs over the caching fleet: storms and
  // the cache compose, and a bump still invalidates every entry.
  FleetConfig config = CachingConfig();
  config.storm.kind = wrapper::StormKind::kRegionOutage;
  config.storm.onset = Milliseconds(2);
  config.storm.outage = Milliseconds(20);
  auto fleet = FleetExecutor::Create(TinyTemplates(), Stream(10), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto cold = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm->cache.result_hits + warm->cache.segment_hits, 0);

  // Two 2-source templates: logical keys 0..3 cover every entry.
  for (int64_t key = 0; key < 4; ++key) fleet->BumpCacheVersion(key);
  auto bumped = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(bumped.ok());
  EXPECT_EQ(bumped->cache.result_hits + bumped->cache.segment_hits, 0);
  EXPECT_GT(bumped->cache.stale_invalidations, 0);
  EXPECT_EQ(FleetFingerprint(*bumped), FleetFingerprint(*cold));
}

TEST(ResultCacheBroker, TightBudgetReclaimsCachedBytes) {
  // Probe the admission estimates, then shrink the broker budget to the
  // largest single estimate: once anything is cached, outstanding grants
  // plus cached bytes exceed the budget at every barrier, so the broker's
  // reclaim pass trims the shard caches — work conservation measured as
  // evictions (and a warm run that lost entries to live queries).
  auto probe =
      FleetExecutor::Create(TinyTemplates(), Stream(8), CachingConfig());
  ASSERT_TRUE(probe.ok());
  auto probed = probe->Execute(StrategyKind::kDse, 1);
  ASSERT_TRUE(probed.ok());
  int64_t max_est = 1;
  for (const FleetQueryOutcome& q : probed->queries) {
    max_est = std::max(max_est, q.est_bytes);
  }

  FleetConfig config = CachingConfig();
  config.memory_budget_bytes = max_est;
  auto fleet = FleetExecutor::Create(TinyTemplates(), Stream(8), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto cold = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(cold->cache.evictions + warm->cache.evictions, 0);
  // Reclaim never blocks a query: everything still completes and
  // releases its grant.
  EXPECT_EQ(warm->broker.grants_issued, warm->broker.releases_applied);
  for (const FleetQueryOutcome& q : warm->queries) {
    EXPECT_TRUE(q.status == QueryStatus::kOk ||
                q.status == QueryStatus::kPartial)
        << static_cast<int>(q.status);
  }
}

TEST(ResultCacheLifecycle, CancelledQueriesAdmitNothing) {
  // Fleet: a tight per-attempt deadline cancels queries mid-flight; only
  // the cleanly finished (kOk) queries may admit result digests.
  FleetConfig config = CachingConfig();
  config.deadline_budget = Milliseconds(2);
  config.max_attempts = 2;
  auto fleet = FleetExecutor::Create(TinyTemplates(), Stream(10), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  auto r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int64_t ok =
      r->status_counts[static_cast<size_t>(QueryStatus::kOk)];
  EXPECT_LT(ok, 10);  // the deadline actually fired on someone
  EXPECT_EQ(r->cache.admitted_results, ok);
  // A later warm run can therefore hit at most the ok queries' digests.
  auto warm = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm->cache.result_hits, 10);
}

TEST(ResultCacheLifecycle, PartialFleetRunAdmitsNoResultDigest) {
  // Fleet: source A of every query stays silent past the failure
  // detector's patience, is declared dead and abandoned, and each query
  // finishes partial. An incomplete result digest must not be cached
  // (segments of cleanly completed MFs may be); the same stream without
  // the silence admits one digest per query.
  for (const bool silent : {false, true}) {
    SCOPED_TRACE(silent ? "silent A" : "healthy");
    plan::QuerySetup setup = plan::TinyTwoSourceQuery(800, 1200);
    if (silent) {
      setup.catalog.sources[0].delay.kind = wrapper::DelayKind::kInitial;
      setup.catalog.sources[0].delay.initial_delay_ms = 2000.0;
    }
    std::vector<plan::QuerySetup> templates;
    templates.push_back(std::move(setup));
    std::vector<FleetQuerySpec> workload(3);
    for (int i = 0; i < 3; ++i) workload[i].arrival = Milliseconds(5.0 * i);
    FleetConfig config = CachingConfig();
    config.comm.failure_detection = true;
    auto fleet = FleetExecutor::Create(std::move(templates), workload, config);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto r = fleet->Execute(StrategyKind::kDse, 2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryStatus expected =
        silent ? QueryStatus::kPartial : QueryStatus::kOk;
    EXPECT_EQ(r->status_counts[static_cast<size_t>(expected)], 3);
    EXPECT_EQ(r->cache.admitted_results, silent ? 0 : 3);
  }
}

}  // namespace
}  // namespace dqsched::core

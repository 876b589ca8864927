// Sharded-fleet tests: the admission-control broker's arbitration
// semantics, deterministic shard placement, byte-identical virtual
// results across host thread counts, and grant/release conservation.

#include "core/fleet_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/memory_broker.h"
#include "plan/canonical_plans.h"

namespace dqsched::core {
namespace {

MemoryBroker::Request Req(int64_t uid, int shard, int64_t est,
                          FairnessClass cls, SimTime arrival) {
  MemoryBroker::Request r;
  r.uid = uid;
  r.shard = shard;
  r.est_bytes = est;
  r.fairness = cls;
  r.arrival = arrival;
  return r;
}

MemoryBroker::Release Rel(int64_t uid, int64_t bytes, SimTime completed) {
  MemoryBroker::Release r;
  r.uid = uid;
  r.bytes = bytes;
  r.completed_at = completed;
  return r;
}

std::vector<MemoryBroker::Grant> Flatten(
    const std::vector<std::vector<MemoryBroker::Grant>>& by_shard) {
  std::vector<MemoryBroker::Grant> all;
  for (const auto& shard : by_shard) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  return all;
}

TEST(MemoryBroker, ImmediateAdmissionStampsArrival) {
  MemoryBroker broker({/*total_budget_bytes=*/100});
  broker.Submit(Req(1, 0, 60, FairnessClass::kInteractive, 25));
  const auto grants = Flatten(broker.Arbitrate(2));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 1);
  EXPECT_EQ(grants[0].granted_at, 25);
  EXPECT_EQ(broker.outstanding_bytes(), 60);
  EXPECT_EQ(broker.stats().queued_admissions, 0);
  EXPECT_FALSE(broker.HasQueued());
}

TEST(MemoryBroker, QueuedGrantStampsAtRelease) {
  MemoryBroker broker({100});
  broker.Submit(Req(1, 0, 80, FairnessClass::kInteractive, 0));
  broker.Submit(Req(2, 1, 50, FairnessClass::kInteractive, 10));
  auto grants = Flatten(broker.Arbitrate(2));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 1);
  EXPECT_TRUE(broker.HasQueued());

  broker.Submit(Rel(1, 80, 500));
  grants = Flatten(broker.Arbitrate(2));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 2);
  // The queued query is stamped when the budget freed, not when it asked.
  EXPECT_EQ(grants[0].granted_at, 500);
  EXPECT_EQ(broker.stats().queued_admissions, 1);
  EXPECT_EQ(broker.outstanding_bytes(), 50);
}

TEST(MemoryBroker, InteractiveAdmittedBeforeEarlierBatch) {
  MemoryBroker broker({100});
  broker.Submit(Req(1, 0, 100, FairnessClass::kBatch, 0));
  ASSERT_EQ(Flatten(broker.Arbitrate(2)).size(), 1u);
  // Batch asked first, but only one of the two fits after the release;
  // the interactive query must win the headroom.
  broker.Submit(Req(2, 0, 20, FairnessClass::kBatch, 1));
  broker.Submit(Req(3, 1, 90, FairnessClass::kInteractive, 2));
  ASSERT_EQ(Flatten(broker.Arbitrate(2)).size(), 0u);
  broker.Submit(Rel(1, 100, 300));
  const auto grants = Flatten(broker.Arbitrate(2));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 3);
  EXPECT_TRUE(broker.HasQueued());  // the batch query keeps waiting
}

TEST(MemoryBroker, BatchFillsBudgetInteractiveCannotUse) {
  MemoryBroker broker({100});
  broker.Submit(Req(1, 0, 60, FairnessClass::kInteractive, 0));
  ASSERT_EQ(Flatten(broker.Arbitrate(1)).size(), 1u);
  // A huge interactive query queues; a small batch query still fits —
  // work conservation admits it rather than idling the headroom.
  broker.Submit(Req(2, 0, 90, FairnessClass::kInteractive, 1));
  broker.Submit(Req(3, 0, 30, FairnessClass::kBatch, 2));
  const auto grants = Flatten(broker.Arbitrate(1));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 3);
  EXPECT_EQ(broker.outstanding_bytes(), 90);
}

TEST(MemoryBroker, OversizedLoneQueryAdmits) {
  MemoryBroker broker({10});
  broker.Submit(Req(1, 0, 5000, FairnessClass::kBatch, 0));
  const auto grants = Flatten(broker.Arbitrate(1));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 1);
  EXPECT_EQ(broker.outstanding_bytes(), 5000);
}

TEST(MemoryBroker, ForceAdmitBreaksDeadlockAndCounts) {
  MemoryBroker broker({10});
  broker.Submit(Req(1, 0, 8, FairnessClass::kBatch, 0));
  ASSERT_EQ(Flatten(broker.Arbitrate(1)).size(), 1u);
  broker.Submit(Req(2, 0, 8, FairnessClass::kBatch, 1));
  ASSERT_EQ(Flatten(broker.Arbitrate(1)).size(), 0u);
  ASSERT_TRUE(broker.HasQueued());
  const auto grants = Flatten(broker.ForceAdmit(1));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].uid, 2);
  EXPECT_EQ(broker.stats().forced_admissions, 1);
  EXPECT_FALSE(broker.HasQueued());
}

TEST(MemoryBroker, ArbitrationIndependentOfSubmissionOrder) {
  // Two brokers see the same round's events in opposite thread
  // interleavings; the sorted canonical order makes the grants equal.
  MemoryBroker a({100});
  MemoryBroker b({100});
  const auto r1 = Req(1, 0, 40, FairnessClass::kInteractive, 7);
  const auto r2 = Req(2, 1, 40, FairnessClass::kBatch, 3);
  const auto r3 = Req(3, 0, 40, FairnessClass::kInteractive, 5);
  a.Submit(r1);
  a.Submit(r2);
  a.Submit(r3);
  b.Submit(r3);
  b.Submit(r2);
  b.Submit(r1);
  const auto ga = Flatten(a.Arbitrate(2));
  const auto gb = Flatten(b.Arbitrate(2));
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].uid, gb[i].uid);
    EXPECT_EQ(ga[i].granted_at, gb[i].granted_at);
  }
  EXPECT_EQ(a.outstanding_bytes(), b.outstanding_bytes());
}

// ---------------------------------------------------------------------------

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

FleetConfig SmallConfig() {
  FleetConfig config;
  config.seed = 7;
  config.num_shards = 4;
  config.sync_turns = 64;
  return config;
}

/// Every virtual field of a fleet run, serialized. Excludes the two
/// host-wall quantities (metrics.planning_host_seconds) — everything
/// here must be byte-identical across --jobs (DESIGN.md §11/§12).
std::string Fingerprint(const FleetMetrics& m) {
  std::ostringstream os;
  for (const FleetQueryOutcome& q : m.queries) {
    os << q.uid << '/' << q.shard << '/' << q.template_idx << '/'
       << static_cast<int>(q.fairness) << '/' << q.est_bytes << '/'
       << q.arrival << '/' << q.admitted << '/' << q.joined << '/'
       << q.completed << '/' << q.completion_latency << '/'
       << q.metrics.response_time << '/' << q.metrics.busy_time << '/'
       << q.metrics.stalled_time << '/' << q.metrics.result_count << '/'
       << q.metrics.result_checksum << '/' << q.metrics.planning_phases << '/'
       << q.metrics.execution_phases << '/' << q.metrics.degradations << '/'
       << q.metrics.cf_activations << '/' << q.metrics.dqo_splits << '/'
       << q.metrics.operand_spills << '/' << q.metrics.timeouts << '/'
       << q.metrics.rate_change_events << '/' << q.metrics.peak_memory_bytes
       << '/' << static_cast<int>(q.status) << '/' << q.attempts << '/'
       << q.deadline << '/' << q.metrics.fault.stalls_injected << '/'
       << q.metrics.fault.disconnects_injected << '/'
       << q.metrics.fault.sources_killed << '/'
       << q.metrics.fault.sources_suspected << '/'
       << q.metrics.fault.sources_dead << '/'
       << q.metrics.fault.recoveries << '/'
       << q.metrics.fault.sources_abandoned << '/'
       << q.metrics.fault.replays_discarded << '/'
       << q.metrics.fault.partial_result << '/'
       << q.metrics.fault.deadline_hit << '\n';
  }
  for (const FleetShardOutcome& s : m.shards) {
    os << s.queries << '/' << s.makespan << '/' << s.busy_time << '/'
       << s.stalled_time << '/' << s.peak_memory_bytes << '/'
       << s.disk.pages_read << '/' << s.disk.pages_written << '/'
       << s.network.tuples_received << '/' << s.temps.temps_created << '\n';
  }
  os << m.makespan << '/' << m.rounds << '/' << m.broker.grants_issued << '/'
     << m.broker.releases_applied << '/' << m.broker.queued_admissions << '/'
     << m.broker.forced_admissions << '/' << m.broker.shed_requests << '/'
     << m.broker.peak_outstanding_bytes << '\n';
  for (int64_t c : m.status_counts) os << c << '/';
  os << m.breakers.trips << '/' << m.breakers.probes << '/'
     << m.breakers.reopens << '/' << m.breakers.resets << '/'
     << m.fault.stalls_injected << '/' << m.fault.sources_killed << '/'
     << m.fault.sources_dead << '/' << m.fault.deadline_hit << '\n';
  return os.str();
}

TEST(FleetExecutor, CreateValidates) {
  EXPECT_FALSE(
      FleetExecutor::Create({}, Stream(2), SmallConfig()).ok());
  EXPECT_FALSE(
      FleetExecutor::Create(TinyTemplates(), {}, SmallConfig()).ok());
  FleetConfig bad = SmallConfig();
  bad.num_shards = 0;
  EXPECT_FALSE(FleetExecutor::Create(TinyTemplates(), Stream(2), bad).ok());
  std::vector<FleetQuerySpec> unknown = Stream(2);
  unknown[1].template_idx = 9;
  EXPECT_FALSE(
      FleetExecutor::Create(TinyTemplates(), unknown, SmallConfig()).ok());
  std::vector<FleetQuerySpec> negative = Stream(2);
  negative[0].arrival = -1;
  EXPECT_FALSE(
      FleetExecutor::Create(TinyTemplates(), negative, SmallConfig()).ok());
  // A zero batch size would spin the shard loops toward the livelock guard.
  bad = SmallConfig();
  bad.strategy.dqp.batch_size = 0;
  EXPECT_FALSE(FleetExecutor::Create(TinyTemplates(), Stream(2), bad).ok());
  // The fleet injects faults only through FleetConfig::storm; a catalog
  // schedule is refused instead of silently dropped.
  std::vector<plan::QuerySetup> faulty = TinyTemplates();
  wrapper::FaultSpec death;
  death.kind = wrapper::FaultKind::kDeath;
  death.at_tuple = 500;
  faulty[0].catalog.sources[1].faults.events = {death};
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(std::move(faulty), Stream(2), SmallConfig());
  ASSERT_FALSE(fleet.ok());
  EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fleet.status().message().find(
                TinyTemplates()[0].catalog.sources[1].relation.name),
            std::string::npos);
}

TEST(FleetExecutor, MaIsRejected) {
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(4), SmallConfig());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_FALSE(fleet->Execute(StrategyKind::kMa, 1).ok());
}

TEST(FleetExecutor, CompletesVerifiesAndAccountsEveryQuery) {
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(12), SmallConfig());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->queries.size(), 12u);

  SimTime max_shard_makespan = 0;
  int shard_query_total = 0;
  for (const FleetShardOutcome& s : r->shards) {
    max_shard_makespan = std::max(max_shard_makespan, s.makespan);
    shard_query_total += s.queries;
  }
  EXPECT_EQ(shard_query_total, 12);
  EXPECT_EQ(r->makespan, max_shard_makespan);

  for (const FleetQueryOutcome& q : r->queries) {
    // Admission chain: arrival <= admitted <= joined <= completed.
    EXPECT_GE(q.admitted, q.arrival);
    EXPECT_GE(q.joined, q.admitted);
    EXPECT_GT(q.completed, q.joined);
    EXPECT_EQ(q.completion_latency, q.completed - q.arrival);
    EXPECT_GT(q.metrics.result_count, 0);
    EXPECT_GE(q.est_bytes, 1);
    EXPECT_GE(q.shard, 0);
    EXPECT_LT(q.shard, 4);
  }

  // Grant/release conservation: every admitted query released its grant
  // and the broker ended the run with nothing outstanding.
  EXPECT_EQ(r->broker.grants_issued, 12);
  EXPECT_EQ(r->broker.releases_applied, 12);
  EXPECT_GT(r->broker.peak_outstanding_bytes, 0);
}

TEST(FleetExecutor, ShardPlacementIsDeterministicAndSpread) {
  Result<FleetExecutor> a =
      FleetExecutor::Create(TinyTemplates(), Stream(16), SmallConfig());
  Result<FleetExecutor> b =
      FleetExecutor::Create(TinyTemplates(), Stream(16), SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  Result<FleetMetrics> ra = a->Execute(StrategyKind::kSeq, 1);
  Result<FleetMetrics> rb = b->Execute(StrategyKind::kSeq, 1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  std::vector<bool> used(4, false);
  for (size_t i = 0; i < ra->queries.size(); ++i) {
    EXPECT_EQ(ra->queries[i].shard, rb->queries[i].shard);
    used[static_cast<size_t>(ra->queries[i].shard)] = true;
  }
  // The uid hash must actually spread a 16-query stream.
  int shards_used = 0;
  for (bool u : used) shards_used += u ? 1 : 0;
  EXPECT_GE(shards_used, 2);
}

TEST(FleetExecutor, VirtualResultsByteIdenticalAcrossJobs) {
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(10), SmallConfig());
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    Result<FleetMetrics> j1 = fleet->Execute(kind, 1);
    Result<FleetMetrics> j2 = fleet->Execute(kind, 2);
    Result<FleetMetrics> j8 = fleet->Execute(kind, 8);
    ASSERT_TRUE(j1.ok() && j2.ok() && j8.ok());
    const std::string f1 = Fingerprint(*j1);
    EXPECT_EQ(f1, Fingerprint(*j2)) << StrategyName(kind);
    EXPECT_EQ(f1, Fingerprint(*j8)) << StrategyName(kind);
  }
}

TEST(FleetExecutor, TightBudgetQueuesAdmissions) {
  // Probe the admission estimates with a roomy run, then set the budget
  // to the largest single estimate: only one query fits at a time, so
  // admissions serialize through the broker queue — while each shard's
  // runtime budget still covers the query it is executing.
  Result<FleetExecutor> probe =
      FleetExecutor::Create(TinyTemplates(), Stream(6), SmallConfig());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  Result<FleetMetrics> probed = probe->Execute(StrategyKind::kDse, 1);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  int64_t max_est = 1;
  for (const FleetQueryOutcome& q : probed->queries) {
    max_est = std::max(max_est, q.est_bytes);
  }

  FleetConfig config = SmallConfig();
  config.memory_budget_bytes = max_est;
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(6), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->broker.queued_admissions, 0);
  EXPECT_EQ(r->broker.grants_issued, 6);
  EXPECT_EQ(r->broker.releases_applied, 6);
  int waited = 0;
  for (const FleetQueryOutcome& q : r->queries) {
    if (q.admitted > q.arrival) ++waited;
    EXPECT_GE(q.joined, q.admitted);
  }
  EXPECT_GT(waited, 0);
  // Serialized admissions still finish every query with verified results
  // (verify_results is on in SmallConfig's default).
  for (const FleetQueryOutcome& q : r->queries) {
    EXPECT_GT(q.metrics.result_count, 0);
  }
}

TEST(FleetExecutor, SingleShardMatchesMultiShardResults) {
  // Result correctness is shard-placement-independent: every query's
  // (count, checksum) is the template's reference answer either way.
  FleetConfig one = SmallConfig();
  one.num_shards = 1;
  Result<FleetExecutor> a =
      FleetExecutor::Create(TinyTemplates(), Stream(8), one);
  Result<FleetExecutor> b =
      FleetExecutor::Create(TinyTemplates(), Stream(8), SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  Result<FleetMetrics> ra = a->Execute(StrategyKind::kDse, 2);
  Result<FleetMetrics> rb = b->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->queries.size(), rb->queries.size());
  for (size_t i = 0; i < ra->queries.size(); ++i) {
    EXPECT_EQ(ra->queries[i].metrics.result_count,
              rb->queries[i].metrics.result_count);
    EXPECT_EQ(ra->queries[i].metrics.result_checksum,
              rb->queries[i].metrics.result_checksum);
  }
}

TEST(FleetExecutor, CancelMidFlightConservesGrants) {
  // Probe the healthy run for its latency scale, then arm a deadline at
  // roughly a third of the median: most queries get cancelled mid-flight
  // (some after retries), and every grant the broker ever issued must
  // still come back — cancellation releases the admission estimate just
  // like completion does.
  Result<FleetExecutor> probe =
      FleetExecutor::Create(TinyTemplates(), Stream(10), SmallConfig());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  Result<FleetMetrics> probed = probe->Execute(StrategyKind::kDse, 1);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  std::vector<SimDuration> latencies;
  for (const FleetQueryOutcome& q : probed->queries) {
    latencies.push_back(q.completed - q.joined);
  }
  std::sort(latencies.begin(), latencies.end());
  const SimDuration median = latencies[latencies.size() / 2];
  ASSERT_GT(median, 0);

  FleetConfig config = SmallConfig();
  config.deadline_budget = std::max<SimDuration>(1, median / 3);
  config.max_attempts = 2;
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(10), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Every query terminated in a documented status, and the taxonomy sums
  // to the stream size.
  int64_t terminal = 0;
  for (int64_t c : r->status_counts) terminal += c;
  EXPECT_EQ(terminal, 10);
  // The tight deadline must actually have fired: at least one query was
  // cancelled mid-flight (or shed by deadline-aware admission).
  const int64_t cancelled =
      r->status_counts[static_cast<size_t>(QueryStatus::kDeadlineCancelled)] +
      r->status_counts[static_cast<size_t>(QueryStatus::kShed)];
  EXPECT_GT(cancelled, 0);

  // Grant/release conservation on every terminal path: shed requests are
  // never granted, everything granted was released (by completion or by
  // mid-flight cancellation).
  EXPECT_EQ(r->broker.grants_issued, r->broker.releases_applied);
  for (const FleetQueryOutcome& q : r->queries) {
    if (q.status == QueryStatus::kShed) continue;
    EXPECT_GE(q.attempts, 1);
    EXPECT_LE(q.attempts, 2);
    EXPECT_GT(q.deadline, 0);
    if (q.status == QueryStatus::kDeadlineCancelled) {
      EXPECT_TRUE(q.metrics.fault.deadline_hit);
    }
  }
}

TEST(FleetExecutor, DeadlineLifecycleByteIdenticalAcrossJobs) {
  FleetConfig config = SmallConfig();
  config.deadline_budget = Milliseconds(2);
  config.max_attempts = 2;
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(10), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> j1 = fleet->Execute(StrategyKind::kDse, 1);
  Result<FleetMetrics> j2 = fleet->Execute(StrategyKind::kDse, 2);
  Result<FleetMetrics> j8 = fleet->Execute(StrategyKind::kDse, 8);
  ASSERT_TRUE(j1.ok() && j2.ok() && j8.ok());
  const std::string f1 = Fingerprint(*j1);
  EXPECT_EQ(f1, Fingerprint(*j2));
  EXPECT_EQ(f1, Fingerprint(*j8));
}

}  // namespace
}  // namespace dqsched::core

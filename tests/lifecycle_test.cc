// Query-lifecycle tests (DESIGN.md §13): the circuit-breaker state
// machine, the storm → schedule compiler, and the fleet's end-to-end
// degradation envelope under correlated fault storms — zero wedged
// queries, a documented terminal status for every stream member, grant
// conservation on every terminal path, and byte-identical outcome
// taxonomies across --jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/circuit_breaker.h"
#include "core/fleet_executor.h"
#include "fnv1a.h"
#include "plan/canonical_plans.h"
#include "wrapper/fault_model.h"

namespace dqsched::core {
namespace {

BreakerConfig TestBreaker() {
  BreakerConfig config;
  config.cooldown = Seconds(1);
  config.max_cooldown = Seconds(30);
  return config;
}

TEST(CircuitBreaker, TripsAfterConsecutiveSuspicions) {
  CircuitBreaker b(TestBreaker());
  EXPECT_EQ(b.state(0), BreakerState::kClosed);
  b.OnSuspected(10);
  EXPECT_EQ(b.state(10), BreakerState::kClosed);
  b.OnSuspected(20);
  EXPECT_EQ(b.state(20), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(20));
  EXPECT_EQ(b.stats().trips, 1);
}

TEST(CircuitBreaker, RecoveryResetsSuspicionStreak) {
  CircuitBreaker b(TestBreaker());
  b.OnSuspected(10);
  b.OnRecovered(20);
  b.OnSuspected(30);  // streak restarted: still one short of the trip
  EXPECT_EQ(b.state(30), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(30));
  EXPECT_EQ(b.stats().trips, 0);
}

TEST(CircuitBreaker, DeathTripsImmediately) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(5);
  EXPECT_EQ(b.state(5), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(5));
  EXPECT_EQ(b.stats().trips, 1);
}

TEST(CircuitBreaker, CooldownElapsesToHalfOpenAndAdmitsOneProbe) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(0);
  EXPECT_EQ(b.state(Seconds(1) - 1), BreakerState::kOpen);
  EXPECT_EQ(b.state(Seconds(1)), BreakerState::kHalfOpen);
  // One probe is admitted; the second query must keep degrading.
  EXPECT_TRUE(b.Allow(Seconds(1)));
  EXPECT_FALSE(b.Allow(Seconds(1)));
  EXPECT_EQ(b.stats().probes, 1);
}

TEST(CircuitBreaker, ProbeSuccessResets) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(0);
  ASSERT_TRUE(b.Allow(Seconds(1)));
  b.OnRecovered(Seconds(2));
  EXPECT_EQ(b.state(Seconds(2)), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(Seconds(2)));
  EXPECT_EQ(b.stats().resets, 1);
  // The cooldown backoff is forgotten after a successful probe: the next
  // trip starts from the configured base again.
  b.OnDead(Seconds(3));
  EXPECT_EQ(b.state(Seconds(3) + Seconds(1)), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, ProbeFailureReopensWithDoubledCooldown) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(0);
  ASSERT_TRUE(b.Allow(Seconds(1)));  // probe in flight
  b.OnDead(Seconds(1) + Milliseconds(100));
  EXPECT_EQ(b.stats().reopens, 1);
  const SimTime reopened = Seconds(1) + Milliseconds(100);
  // Base cooldown no longer suffices — it was doubled by the failure.
  EXPECT_EQ(b.state(reopened + Seconds(1)), BreakerState::kOpen);
  EXPECT_EQ(b.state(reopened + Seconds(2)), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, SuspicionFailsAProbeToo) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(0);
  ASSERT_TRUE(b.Allow(Seconds(1)));
  b.OnSuspected(Seconds(1) + 1);  // the probe ran into the outage again
  EXPECT_EQ(b.state(Seconds(1) + 1), BreakerState::kOpen);
  EXPECT_EQ(b.stats().reopens, 1);
}

TEST(CircuitBreaker, ProbeAbortReopens) {
  CircuitBreaker b(TestBreaker());
  b.OnDead(0);
  ASSERT_TRUE(b.Allow(Seconds(1)));
  // The probing query was cancelled (deadline) before proving anything:
  // the breaker must not stay wedged with a phantom probe slot.
  b.OnProbeAborted(Seconds(1) + 50);
  EXPECT_EQ(b.state(Seconds(1) + 50), BreakerState::kOpen);
  EXPECT_EQ(b.stats().reopens, 1);
  // A second abort without a probe is a no-op.
  b.OnProbeAborted(Seconds(1) + 60);
  EXPECT_EQ(b.stats().reopens, 1);
}

TEST(CircuitBreaker, MaxCooldownCaps) {
  BreakerConfig config = TestBreaker();
  config.max_cooldown = Seconds(2);
  CircuitBreaker b(config);
  SimTime now = 0;
  b.OnDead(now);
  for (int i = 0; i < 6; ++i) {
    // Walk to the next half-open window and fail the probe each time.
    now += Seconds(2);  // >= any capped cooldown
    ASSERT_EQ(b.state(now), BreakerState::kHalfOpen) << i;
    ASSERT_TRUE(b.Allow(now));
    b.OnDead(now + 1);
    now += 1;
  }
  // Cooldown is capped at 2s: the breaker still reaches half-open 2s
  // after the last reopen instead of backing off unboundedly.
  EXPECT_EQ(b.state(now + Seconds(2)), BreakerState::kHalfOpen);
}

TEST(BreakerPanel, SumsStatsInKeyOrder) {
  BreakerPanel panel(3, TestBreaker());
  panel.Of(0).OnDead(0);
  panel.Of(2).OnDead(0);
  EXPECT_EQ(panel.OpenCount(0), 2);
  ASSERT_TRUE(panel.Of(2).Allow(Seconds(1)));
  panel.Of(2).OnRecovered(Seconds(2));
  const BreakerStats total = panel.TotalStats();
  EXPECT_EQ(total.trips, 2);
  EXPECT_EQ(total.probes, 1);
  EXPECT_EQ(total.resets, 1);
  EXPECT_EQ(panel.OpenCount(Seconds(2)), 1);  // key 2 closed again
}

// ---------------------------------------------------------------------------

wrapper::StormConfig RegionStorm() {
  wrapper::StormConfig storm;
  storm.kind = wrapper::StormKind::kRegionOutage;
  storm.region_fraction = 0.5;
  storm.onset = Seconds(1);
  storm.outage = Seconds(2);
  storm.jitter = 0.0;  // exact index assertions below
  return storm;
}

constexpr double kMeanDelayNs = 1e6;  // 1 ms per tuple
constexpr int64_t kCard = 10000;

TEST(BuildStormSchedule, RegionOutageHitsOnlyTheRegion) {
  Rng rng(1);
  const wrapper::StormConfig storm = RegionStorm();
  // 4 sources at fraction 0.5: keys 0 and 1 are in the region.
  wrapper::FaultSchedule in_region = wrapper::BuildStormSchedule(
      storm, 0, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
  ASSERT_EQ(in_region.events.size(), 1u);
  EXPECT_EQ(in_region.events[0].kind, wrapper::FaultKind::kStall);
  EXPECT_EQ(in_region.events[0].at_tuple, 1000);  // 1 s / 1 ms
  EXPECT_EQ(in_region.events[0].stall, Seconds(2));

  wrapper::FaultSchedule outside = wrapper::BuildStormSchedule(
      storm, 2, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
  EXPECT_TRUE(outside.empty());
}

TEST(BuildStormSchedule, AttemptAfterStormPassesGetsEmptySchedule) {
  Rng rng(1);
  wrapper::FaultSchedule schedule = wrapper::BuildStormSchedule(
      RegionStorm(), 0, 4, /*start=*/Seconds(4), kMeanDelayNs, kCard, &rng);
  // onset + outage = 3 s < start: retry-after-recovery sees a healthy
  // source — the property the fleet's requeue path relies on.
  EXPECT_TRUE(schedule.empty());
}

TEST(BuildStormSchedule, AttemptMidWindowStallsAtTupleZero) {
  Rng rng(1);
  wrapper::FaultSchedule schedule = wrapper::BuildStormSchedule(
      RegionStorm(), 0, 4, /*start=*/Seconds(2), kMeanDelayNs, kCard, &rng);
  ASSERT_EQ(schedule.events.size(), 1u);
  EXPECT_EQ(schedule.events[0].at_tuple, 0);
  // Only the remaining window is injected: onset + outage - start = 1 s.
  EXPECT_EQ(schedule.events[0].stall, Seconds(1));
}

TEST(BuildStormSchedule, LethalOutageKillsRegardlessOfAttemptTime) {
  Rng rng(1);
  wrapper::StormConfig storm = RegionStorm();
  storm.lethal = true;
  wrapper::FaultSchedule first = wrapper::BuildStormSchedule(
      storm, 0, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
  ASSERT_EQ(first.events.size(), 1u);
  EXPECT_EQ(first.events[0].kind, wrapper::FaultKind::kDeath);
  EXPECT_EQ(first.events[0].at_tuple, 1000);
  // A retry long after the onset still finds the source dead — lethal
  // storms have no recovery.
  wrapper::FaultSchedule later = wrapper::BuildStormSchedule(
      storm, 0, 4, /*start=*/Seconds(9), kMeanDelayNs, kCard, &rng);
  ASSERT_EQ(later.events.size(), 1u);
  EXPECT_EQ(later.events[0].kind, wrapper::FaultKind::kDeath);
  EXPECT_EQ(later.events[0].at_tuple, 0);
}

TEST(BuildStormSchedule, CascadeSweepsEverySourceWithPropagationDelay) {
  wrapper::StormConfig storm;
  storm.kind = wrapper::StormKind::kCascadingSlowdown;
  storm.onset = Seconds(1);
  storm.jitter = 0.0;
  storm.wave_stall = Milliseconds(400);
  storm.propagation = Milliseconds(150);
  storm.waves = 3;
  Rng rng(1);
  for (int src : {0, 3}) {
    wrapper::FaultSchedule schedule = wrapper::BuildStormSchedule(
        storm, src, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
    ASSERT_EQ(schedule.events.size(), 3u) << src;
    // First wave reaches source k at onset + k * propagation.
    const SimTime first = Seconds(1) + src * Milliseconds(150);
    EXPECT_EQ(schedule.events[0].at_tuple, first / Milliseconds(1)) << src;
    for (const wrapper::FaultSpec& e : schedule.events) {
      EXPECT_EQ(e.kind, wrapper::FaultKind::kStall);
    }
    // Strictly increasing tuple indices (schedule validity).
    EXPECT_TRUE(schedule.Validate().ok());
  }
}

TEST(BuildStormSchedule, FlappingAlternatesInsideTheRegion) {
  wrapper::StormConfig storm;
  storm.kind = wrapper::StormKind::kFlapping;
  storm.region_fraction = 0.5;
  storm.onset = Seconds(1);
  storm.jitter = 0.0;
  storm.flap_period = Milliseconds(300);
  storm.flaps = 4;
  Rng rng(1);
  wrapper::FaultSchedule in_region = wrapper::BuildStormSchedule(
      storm, 1, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
  EXPECT_EQ(in_region.events.size(), 4u);
  EXPECT_TRUE(in_region.Validate().ok());
  wrapper::FaultSchedule outside = wrapper::BuildStormSchedule(
      storm, 3, 4, /*start=*/0, kMeanDelayNs, kCard, &rng);
  EXPECT_TRUE(outside.empty());
}

TEST(BuildStormSchedule, EventsPastCardinalityAreDropped) {
  Rng rng(1);
  // Cardinality 500 < the 1000-tuple onset index: nothing ever fires.
  wrapper::FaultSchedule schedule = wrapper::BuildStormSchedule(
      RegionStorm(), 0, 4, /*start=*/0, kMeanDelayNs, /*cardinality=*/500,
      &rng);
  EXPECT_TRUE(schedule.empty());
}

TEST(StormKindNames, RoundTrip) {
  for (wrapper::StormKind kind :
       {wrapper::StormKind::kNone, wrapper::StormKind::kRegionOutage,
        wrapper::StormKind::kCascadingSlowdown,
        wrapper::StormKind::kFlapping}) {
    wrapper::StormKind parsed;
    ASSERT_TRUE(wrapper::ParseStormKind(wrapper::StormKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  wrapper::StormKind parsed;
  EXPECT_FALSE(wrapper::ParseStormKind("hurricane", &parsed));
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

/// Probes the healthy run for its time scale: (median per-query latency,
/// fleet makespan).
std::pair<SimDuration, SimDuration> ProbeScale(const FleetConfig& config) {
  Result<FleetExecutor> probe =
      FleetExecutor::Create(TinyTemplates(), Stream(12), config);
  DQS_CHECK(probe.ok());
  Result<FleetMetrics> r = probe->Execute(StrategyKind::kDse, 1);
  DQS_CHECK(r.ok());
  std::vector<SimDuration> latencies;
  for (const FleetQueryOutcome& q : r->queries) {
    latencies.push_back(q.completed - q.joined);
  }
  std::sort(latencies.begin(), latencies.end());
  return {latencies[latencies.size() / 2], r->makespan};
}

FleetConfig StormConfigFor(SimDuration median, SimDuration makespan) {
  FleetConfig config;
  config.seed = 7;
  config.num_shards = 4;
  config.sync_turns = 64;
  config.deadline_budget = makespan;  // generous: deaths drive the kills
  config.max_attempts = 3;
  config.retry_backoff_initial = std::max<SimDuration>(1, median / 8);
  config.storm.kind = wrapper::StormKind::kRegionOutage;
  config.storm.onset = makespan / 16;
  config.storm.outage = makespan / 2;
  config.breaker.cooldown = std::max<SimDuration>(1, median);
  config.breaker.max_cooldown = makespan;
  return config;
}

/// The outcome taxonomy plus every per-query fault counter — the §13
/// byte-identity surface for storm runs.
std::string TaxonomyFingerprint(const FleetMetrics& m) {
  std::ostringstream os;
  for (const FleetQueryOutcome& q : m.queries) {
    const FaultStats& f = q.metrics.fault;
    os << q.uid << ':' << QueryStatusName(q.status) << '/' << q.attempts
       << '/' << q.deadline << '/' << q.completed << '/'
       << f.stalls_injected << '/' << f.disconnects_injected << '/'
       << f.sources_killed << '/' << f.sources_suspected << '/'
       << f.sources_dead << '/' << f.recoveries << '/'
       << f.sources_abandoned << '/' << f.replays_discarded << '/'
       << f.partial_result << '/' << f.deadline_hit << '\n';
  }
  for (int64_t c : m.status_counts) os << c << '/';
  os << '\n';
  os << m.breakers.trips << '/' << m.breakers.probes << '/'
     << m.breakers.reopens << '/' << m.breakers.resets << '\n';
  os << m.broker.grants_issued << '/' << m.broker.releases_applied << '/'
     << m.broker.shed_requests << '\n';
  return os.str();
}

TEST(FleetLifecycle, RegionOutageZeroWedgedQueries) {
  FleetConfig base;
  base.seed = 7;
  base.num_shards = 4;
  base.sync_turns = 64;
  const auto [median, makespan] = ProbeScale(base);
  ASSERT_GT(median, 0);

  const FleetConfig config = StormConfigFor(median, makespan);
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(12), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    Result<FleetMetrics> r = fleet->Execute(kind, 2);
    // Zero wedged queries: the run itself must terminate cleanly ...
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // ... with every query in a documented terminal status ...
    int64_t terminal = 0;
    for (int64_t c : r->status_counts) terminal += c;
    EXPECT_EQ(terminal, 12) << StrategyName(kind);
    // ... and grants == releases even on the cancel/retry/shed paths.
    EXPECT_EQ(r->broker.grants_issued, r->broker.releases_applied);
    // The storm must actually have been felt (injected silence on the
    // region sources) — otherwise this test proves nothing.
    EXPECT_TRUE(r->fault.any()) << StrategyName(kind);
  }
}

TEST(FleetLifecycle, StormTaxonomyByteIdenticalAcrossJobs) {
  FleetConfig base;
  base.seed = 7;
  base.num_shards = 4;
  base.sync_turns = 64;
  const auto [median, makespan] = ProbeScale(base);
  const FleetConfig config = StormConfigFor(median, makespan);
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(12), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    Result<FleetMetrics> j1 = fleet->Execute(kind, 1);
    Result<FleetMetrics> j2 = fleet->Execute(kind, 2);
    Result<FleetMetrics> j8 = fleet->Execute(kind, 8);
    ASSERT_TRUE(j1.ok() && j2.ok() && j8.ok());
    const std::string f1 = TaxonomyFingerprint(*j1);
    EXPECT_EQ(f1, TaxonomyFingerprint(*j2)) << StrategyName(kind);
    EXPECT_EQ(f1, TaxonomyFingerprint(*j8)) << StrategyName(kind);
  }
}

TEST(FleetLifecycle, StormOutcomesMatchPinnedDigests) {
  // Byte-identity across --jobs cannot see a change that moves every job
  // count alike; these digests of the taxonomy plus the makespan can. A
  // change that moves any storm outcome must re-pin them deliberately.
  FleetConfig base;
  base.seed = 7;
  base.num_shards = 4;
  base.sync_turns = 64;
  const auto [median, makespan] = ProbeScale(base);
  struct Cell {
    wrapper::StormKind storm;
    StrategyKind strategy;
    uint64_t digest;
  };
  const Cell cells[] = {
      {wrapper::StormKind::kRegionOutage, StrategyKind::kSeq,
       0xf841316c83da74d6ULL},
      {wrapper::StormKind::kRegionOutage, StrategyKind::kDse,
       0xcd738d1c01bafb6aULL},
      {wrapper::StormKind::kCascadingSlowdown, StrategyKind::kSeq,
       0x6e5211101acfad37ULL},
      {wrapper::StormKind::kCascadingSlowdown, StrategyKind::kDse,
       0xdf0d93d8402a770eULL},
      {wrapper::StormKind::kFlapping, StrategyKind::kSeq,
       0xcedcb030e006131dULL},
      {wrapper::StormKind::kFlapping, StrategyKind::kDse,
       0x58effffff5921b07ULL},
  };
  for (const Cell& cell : cells) {
    FleetConfig config = StormConfigFor(median, makespan);
    config.storm.kind = cell.storm;
    config.storm.wave_stall = makespan / 10;
    config.storm.propagation = makespan / 25;
    config.storm.flap_period = makespan / 12;
    Result<FleetExecutor> fleet =
        FleetExecutor::Create(TinyTemplates(), Stream(12), config);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    Result<FleetMetrics> r = fleet->Execute(cell.strategy, 2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->fault.any()) << wrapper::StormKindName(cell.storm);
    const uint64_t digest =
        Fnv1a(TaxonomyFingerprint(*r) + std::to_string(r->makespan));
    EXPECT_EQ(digest, cell.digest)
        << wrapper::StormKindName(cell.storm) << ' '
        << StrategyName(cell.strategy) << " digest 0x" << std::hex << digest;
  }
}

TEST(FleetLifecycle, LethalOutageExhaustsRetriesOrDegrades) {
  FleetConfig base;
  base.seed = 7;
  base.num_shards = 4;
  base.sync_turns = 64;
  const auto [median, makespan] = ProbeScale(base);
  FleetConfig config = StormConfigFor(median, makespan);
  config.deadline_budget = 0;  // no deadlines: deaths alone drive it
  config.storm.lethal = true;
  config.storm.onset = 0;  // the region is dead from the first tuple
  config.max_attempts = 2;
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(TinyTemplates(), Stream(12), config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t terminal = 0;
  for (int64_t c : r->status_counts) terminal += c;
  EXPECT_EQ(terminal, 12);
  // A permanent region death can never end kOk for the region queries:
  // they exhaust their retries, or a tripped breaker degrades the
  // later ones to partial at admission.
  const int64_t degraded =
      r->status_counts[static_cast<size_t>(QueryStatus::kPartial)] +
      r->status_counts[static_cast<size_t>(QueryStatus::kRetriesExhausted)];
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(r->broker.grants_issued, r->broker.releases_applied);
  // The breaker layer saw the deaths.
  EXPECT_GT(r->breakers.trips, 0);
  // Retried queries consumed more than one attempt.
  int max_attempts_seen = 0;
  for (const FleetQueryOutcome& q : r->queries) {
    max_attempts_seen = std::max(max_attempts_seen, q.attempts);
  }
  EXPECT_EQ(max_attempts_seen, 2);
}

TEST(FleetLifecycle, DetectorWithoutStormSendsDeadSourceThroughRetries) {
  // The caller arms the failure detector but configures no storm and no
  // deadline. A source silent for 2 s at start is declared dead; the
  // fleet kills the attempt and trips the breaker, and the retry runs
  // without that source (partial) instead of failing the whole Execute.
  plan::QuerySetup setup = plan::TinyTwoSourceQuery(800, 1200);
  setup.catalog.sources[0].delay.kind = wrapper::DelayKind::kInitial;
  setup.catalog.sources[0].delay.initial_delay_ms = 2000.0;
  std::vector<plan::QuerySetup> templates;
  templates.push_back(std::move(setup));
  std::vector<FleetQuerySpec> workload(3);
  for (int i = 0; i < 3; ++i) workload[i].arrival = Milliseconds(5.0 * i);
  FleetConfig config;
  config.seed = 7;
  config.num_shards = 4;
  config.sync_turns = 64;
  config.comm.failure_detection = true;
  Result<FleetExecutor> fleet =
      FleetExecutor::Create(std::move(templates), workload, config);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  Result<FleetMetrics> r = fleet->Execute(StrategyKind::kDse, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t terminal = 0;
  for (int64_t c : r->status_counts) terminal += c;
  EXPECT_EQ(terminal, 3);
  EXPECT_EQ(r->broker.grants_issued, r->broker.releases_applied);
  EXPECT_GT(r->fault.sources_dead, 0);
  EXPECT_GT(r->breakers.trips, 0);
  for (const FleetQueryOutcome& q : r->queries) {
    EXPECT_EQ(q.status, QueryStatus::kPartial) << q.uid;
    EXPECT_EQ(q.attempts, 2) << q.uid;
  }
}

}  // namespace
}  // namespace dqsched::core

// Source fault injection and the failure-tolerant communication layer:
// schedule validation, wrapper-level injection semantics (stall /
// disconnect / death, offset-resume and from-scratch replay), the CM's
// duplicate discarding and liveness detection, and the end-to-end strategy
// behavior — graceful degradation, partial results, deadlines (DESIGN.md
// §8). In DQSCHED_AUDIT builds every execution here also runs the
// invariant auditor, including the replay-aware conservation law.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "comm/comm_manager.h"
#include "comm/tuple_queue.h"
#include "core/dqp.h"
#include "core/engine.h"
#include "core/execution_state.h"
#include "core/mediator.h"
#include "core/strategy.h"
#include "exec/exec_context.h"
#include "plan/canonical_plans.h"
#include "storage/relation.h"
#include "wrapper/fault_model.h"
#include "wrapper/wrapper.h"

namespace dqsched {
namespace {

using comm::CommConfig;
using comm::CommManager;
using comm::FaultSignal;
using comm::TupleQueue;
using core::ExecutionMetrics;
using core::Mediator;
using core::MediatorConfig;
using core::StrategyKind;
using storage::Relation;
using storage::RelationSpec;
using storage::Tuple;
using wrapper::DelayConfig;
using wrapper::DelayKind;
using wrapper::FaultKind;
using wrapper::FaultModel;
using wrapper::FaultSchedule;
using wrapper::FaultSpec;
using wrapper::SimWrapper;

Relation MakeRelation(int64_t n, SourceId src = 0) {
  RelationSpec spec;
  spec.name = "R";
  spec.cardinality = n;
  return GenerateRelation(spec, src, Rng(7));
}

DelayConfig ConstantDelay(double us) {
  DelayConfig d;
  d.kind = DelayKind::kConstant;
  d.mean_us = us;
  return d;
}

FaultSpec StallAt(int64_t tuple, SimDuration duration) {
  FaultSpec s;
  s.kind = FaultKind::kStall;
  s.at_tuple = tuple;
  s.stall = duration;
  return s;
}

FaultSpec DisconnectAt(int64_t tuple, bool replay, int64_t failed_attempts,
                       SimDuration backoff, double jitter) {
  FaultSpec s;
  s.kind = FaultKind::kDisconnect;
  s.at_tuple = tuple;
  s.replay_from_scratch = replay;
  s.failed_attempts = failed_attempts;
  s.backoff_initial = backoff;
  s.backoff_jitter = jitter;
  return s;
}

FaultSpec DeathAt(int64_t tuple) {
  FaultSpec s;
  s.kind = FaultKind::kDeath;
  s.at_tuple = tuple;
  return s;
}

// ---------------------------------------------------------------- schedule

TEST(FaultScheduleValidation, RejectsBadSpecs) {
  EXPECT_FALSE(StallAt(-1, Milliseconds(1)).Validate().ok());
  EXPECT_FALSE(StallAt(0, 0).Validate().ok());
  EXPECT_FALSE(DisconnectAt(0, false, -1, Milliseconds(1), 0.0)
                   .Validate()
                   .ok());
  EXPECT_FALSE(DisconnectAt(0, false, 33, Milliseconds(1), 0.0)
                   .Validate()
                   .ok());
  EXPECT_FALSE(DisconnectAt(0, false, 1, 0, 0.0).Validate().ok());
  EXPECT_FALSE(DisconnectAt(0, false, 1, Milliseconds(1), 1.0)
                   .Validate()
                   .ok());
  EXPECT_FALSE(DisconnectAt(0, false, 1, Milliseconds(1),
                            std::numeric_limits<double>::quiet_NaN())
                   .Validate()
                   .ok());
  EXPECT_TRUE(DeathAt(0).Validate().ok());
}

TEST(FaultScheduleValidation, RejectsBadOrdering) {
  FaultSchedule schedule;
  EXPECT_TRUE(schedule.Validate().ok());  // empty is fine
  schedule.events = {StallAt(5, Milliseconds(1)), StallAt(5, Milliseconds(1))};
  EXPECT_FALSE(schedule.Validate().ok());  // not strictly increasing
  schedule.events = {DeathAt(3), StallAt(5, Milliseconds(1))};
  EXPECT_FALSE(schedule.Validate().ok());  // nothing can follow a death
  schedule.events = {StallAt(3, Milliseconds(1)), DeathAt(5)};
  EXPECT_TRUE(schedule.Validate().ok());
}

TEST(FaultScheduleValidation, CatalogSurfacesScheduleErrors) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  setup.catalog.sources[0].faults.events = {StallAt(0, 0)};
  EXPECT_FALSE(setup.catalog.Validate().ok());
}

TEST(FaultModelDeterminism, SameSeedSameOutage) {
  FaultSchedule schedule;
  schedule.events = {DisconnectAt(10, false, 3, Milliseconds(5), 0.25)};
  FaultModel a(schedule, 99);
  FaultModel b(schedule, 99);
  const auto act_a = a.OnProduce(10);
  const auto act_b = b.OnProduce(10);
  EXPECT_GT(act_a.extra_silence, 0);
  EXPECT_EQ(act_a.extra_silence, act_b.extra_silence);
}

// ----------------------------------------------------------------- wrapper

TEST(FaultWrapper, StallShiftsSubsequentArrivals) {
  const Relation rel = MakeRelation(8);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {StallAt(3, Milliseconds(1))};
  w.SetFaultSchedule(schedule, 5);
  TupleQueue q(64);
  std::vector<SimTime> times;
  struct Obs : wrapper::ArrivalObserver {
    std::vector<SimTime>* out;
    void OnArrivals(const SimTime* ts, int64_t n) override {
      out->insert(out->end(), ts, ts + n);
    }
  } obs;
  obs.out = &times;
  w.PumpInto(q, Milliseconds(10), &obs);
  ASSERT_EQ(times.size(), 8u);
  EXPECT_EQ(times[2], Microseconds(30));
  EXPECT_EQ(times[3], Microseconds(40) + Milliseconds(1));
  EXPECT_EQ(times[4], Microseconds(50) + Milliseconds(1));
  EXPECT_TRUE(w.Exhausted());
  ASSERT_NE(w.fault_stats(), nullptr);
  EXPECT_EQ(w.fault_stats()->stalls, 1);
  EXPECT_EQ(w.fault_stats()->silence, Milliseconds(1));
}

TEST(FaultWrapper, DeathSilencesPermanently) {
  const Relation rel = MakeRelation(8);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {DeathAt(5)};
  w.SetFaultSchedule(schedule, 5);
  TupleQueue q(64);
  w.PumpInto(q, Seconds(100));
  EXPECT_EQ(w.stats().tuples_delivered, 5);
  EXPECT_TRUE(w.dead());
  EXPECT_FALSE(w.Exhausted());
  EXPECT_EQ(w.NextArrival(), kSimTimeNever);
  // The stream does not end: the consumer cannot tell death from silence
  // (that is the failure detector's job).
  EXPECT_FALSE(q.producer_closed());
  ASSERT_NE(w.fault_stats(), nullptr);
  EXPECT_TRUE(w.fault_stats()->died);
}

TEST(FaultWrapper, DisconnectResumesFromOffset) {
  const Relation rel = MakeRelation(8);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  // failed_attempts=1, backoff 1 ms, no jitter: outage = 1 ms + 2 ms.
  schedule.events = {DisconnectAt(3, false, 1, Milliseconds(1), 0.0)};
  w.SetFaultSchedule(schedule, 5);
  TupleQueue q(64);
  std::vector<SimTime> times;
  struct Obs : wrapper::ArrivalObserver {
    std::vector<SimTime>* out;
    void OnArrivals(const SimTime* ts, int64_t n) override {
      out->insert(out->end(), ts, ts + n);
    }
  } obs;
  obs.out = &times;
  w.PumpInto(q, Seconds(1), &obs);
  ASSERT_EQ(times.size(), 8u);
  EXPECT_EQ(times[3], Microseconds(40) + Milliseconds(3));
  EXPECT_EQ(w.stats().tuples_delivered, 8);
  EXPECT_TRUE(w.replay_windows().empty());
  ASSERT_NE(w.fault_stats(), nullptr);
  EXPECT_EQ(w.fault_stats()->disconnects, 1);
  EXPECT_EQ(w.fault_stats()->reconnects, 1);
  EXPECT_EQ(w.fault_stats()->duplicates_scheduled, 0);
}

TEST(FaultWrapper, DisconnectReplaysFromScratch) {
  const Relation rel = MakeRelation(6);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {DisconnectAt(3, true, 0, Milliseconds(1), 0.0)};
  w.SetFaultSchedule(schedule, 5);
  TupleQueue q(64);
  w.PumpInto(q, Seconds(1));
  // Delivery: fresh 0,1,2 — reconnect — replayed 0,1,2 — fresh 3,4,5.
  EXPECT_EQ(w.stats().tuples_delivered, 9);
  EXPECT_EQ(q.size(), 9);
  // Positions [3, 6) of the delivery sequence are the duplicates.
  ASSERT_EQ(w.replay_windows().size(), 1u);
  EXPECT_EQ(w.replay_windows()[0].begin, 3);
  EXPECT_EQ(w.replay_windows()[0].end, 6);
  // The relation index each delivered position carries: a replay window
  // restarts at index 0, and fresh positions count on from the last fresh
  // index. This is the mapping the CM's span pops rely on.
  std::vector<int64_t> index_at;
  int64_t fresh = 0;
  for (int64_t p = 0; p < w.stats().tuples_delivered; ++p) {
    int64_t index = -1;
    for (const wrapper::ReplayWindow& win : w.replay_windows()) {
      if (p >= win.begin && p < win.end) index = p - win.begin;
    }
    index_at.push_back(index >= 0 ? index : fresh++);
  }
  EXPECT_EQ(index_at, (std::vector<int64_t>{0, 1, 2, 0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(fresh, rel.cardinality());
  ASSERT_NE(w.fault_stats(), nullptr);
  EXPECT_EQ(w.fault_stats()->duplicates_scheduled, 3);
}

// -------------------------------------------------------------------- comm

TEST(FaultComm, ReplayDuplicatesDiscardedExactly) {
  // A from-scratch replay through the bounded-queue window protocol: the
  // consumer must observe exactly the fault-free sequence.
  CommConfig config;
  config.queue_capacity = 16;  // force suspensions mid-replay
  config.failure_detection = true;
  const Relation rel = MakeRelation(2000);

  auto run = [&rel, &config](bool faulty) {
    CommManager manager(config);
    auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
    if (faulty) {
      FaultSchedule schedule;
      schedule.events = {DisconnectAt(1000, true, 0, Milliseconds(1), 0.0)};
      w->SetFaultSchedule(schedule, 5);
    }
    manager.AddSource(std::move(w), /*prior=*/10000.0);
    std::vector<uint64_t> rowids;
    Tuple out[64];
    SimTime t = 0;
    int guard = 0;
    while (!manager.SourceExhausted(0)) {
      if (++guard > 1000000) {
        ADD_FAILURE() << "drain did not converge";
        break;
      }
      t += Microseconds(200);
      const int64_t n = manager.Pop(0, t, out, 64);
      for (int64_t i = 0; i < n; ++i) rowids.push_back(out[i].rowid);
    }
    EXPECT_EQ(manager.ReplayDiscarded(0), faulty ? 1000 : 0);
    EXPECT_EQ(manager.replay_discarded_total(), faulty ? 1000 : 0);
    EXPECT_EQ(manager.RemainingTuples(0), 0);
    return rowids;
  };
  const std::vector<uint64_t> clean = run(false);
  const std::vector<uint64_t> deduped = run(true);
  EXPECT_EQ(clean.size(), 2000u);
  EXPECT_EQ(clean, deduped);
}

TEST(FaultComm, QueueOfOnlyDuplicatesCannotWedge) {
  // Regression: a consumer that pops only when it *sees* fresh tuples
  // (as fragments do, via Available) must not deadlock when the bounded
  // queue fills entirely with replayed duplicates — the producer is
  // suspended on a full queue, Available reads 0, and without the eager
  // duplicate discard in the pump path nothing would ever drain.
  CommConfig config;
  config.queue_capacity = 64;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel = MakeRelation(5000);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {DisconnectAt(2048, true, 0, Milliseconds(1), 0.0)};
  w->SetFaultSchedule(schedule, 5);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  Tuple out[64];
  SimTime t = 0;
  int64_t consumed = 0;
  int idle = 0;
  while (!manager.SourceExhausted(0) && idle < 1000000) {
    t += Microseconds(100);
    if (manager.Available(0, t) > 0) {
      consumed += manager.Pop(0, t, out, 64);
      idle = 0;
    } else {
      ++idle;
    }
  }
  EXPECT_EQ(consumed, 5000);
  EXPECT_EQ(manager.ReplayDiscarded(0), 2048);
}

TEST(FaultComm, DetectorSuspectsThenDeclaresDead) {
  CommConfig config;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel = MakeRelation(100);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {DeathAt(5)};
  w->SetFaultSchedule(schedule, 5);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  Tuple out[16];
  EXPECT_EQ(manager.Pop(0, Microseconds(100), out, 16), 5);
  const SimTime last = Microseconds(50);  // arrival of the 5th tuple

  // Liveness thresholds: floors dominate at this rate (50 ms / 500 ms).
  EXPECT_EQ(manager.NextFaultDeadline(Microseconds(60)),
            last + Milliseconds(50));
  manager.UpdateFaultState(last + Milliseconds(50) - 1);
  EXPECT_FALSE(manager.SourceSuspected(0));
  manager.UpdateFaultState(last + Milliseconds(50));
  EXPECT_TRUE(manager.SourceSuspected(0));
  EXPECT_FALSE(manager.SourceDead(0));
  manager.UpdateFaultState(last + Milliseconds(500));
  EXPECT_TRUE(manager.SourceDead(0));
  EXPECT_EQ(manager.fault_suspicions(), 1);
  EXPECT_EQ(manager.fault_declared_dead(), 1);

  FaultSignal sig;
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDown);
  EXPECT_EQ(sig.source, 0);
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDead);
  EXPECT_FALSE(manager.TakeFaultSignal(&sig));

  // Abandonment closes the stream; the queued prefix stays consumable.
  manager.AbandonSource(0);
  EXPECT_EQ(manager.RemainingTuples(0), 0);
  EXPECT_TRUE(manager.SourceExhausted(0));
}

TEST(FaultComm, DeliveryAfterSuspicionRecovers) {
  CommConfig config;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel = MakeRelation(100);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {StallAt(5, Milliseconds(100))};
  w->SetFaultSchedule(schedule, 5);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  Tuple out[16];
  EXPECT_EQ(manager.Pop(0, Microseconds(100), out, 16), 5);
  manager.UpdateFaultState(Microseconds(50) + Milliseconds(60));
  EXPECT_TRUE(manager.SourceSuspected(0));
  // The stalled tuple arrives at 60 us + 100 ms; popping past that point
  // delivers it and flips the source back to healthy.
  EXPECT_GT(manager.Pop(0, Milliseconds(101), out, 16), 0);
  EXPECT_FALSE(manager.SourceSuspected(0));
  EXPECT_EQ(manager.fault_recoveries(), 1);
  FaultSignal sig;
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDown);
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kRecovered);
}

TEST(FaultComm, SimultaneousSuspicionsSignalInSourceOrder) {
  // Source 1 falls silent first, so its threshold passes first; both pass
  // before the detector runs. The signals still come in source-id order.
  CommConfig config;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel_a = MakeRelation(100, 0);
  const Relation rel_b = MakeRelation(100, 1);
  auto a = std::make_unique<SimWrapper>(0, &rel_a, ConstantDelay(10.0), 1);
  auto b = std::make_unique<SimWrapper>(1, &rel_b, ConstantDelay(10.0), 2);
  FaultSchedule late;
  late.events = {DeathAt(5)};
  a->SetFaultSchedule(late, 5);
  FaultSchedule early;
  early.events = {DeathAt(2)};
  b->SetFaultSchedule(early, 6);
  manager.AddSource(std::move(a), /*prior=*/10000.0);
  manager.AddSource(std::move(b), /*prior=*/10000.0);
  Tuple out[16];
  EXPECT_EQ(manager.Pop(1, Microseconds(100), out, 16), 2);
  EXPECT_EQ(manager.Pop(0, Microseconds(100), out, 16), 5);
  // Suspect floors: 20 us + 50 ms for source 1, 50 us + 50 ms for 0.
  EXPECT_EQ(manager.NextFaultDeadline(Microseconds(100)),
            Microseconds(20) + Milliseconds(50));
  manager.UpdateFaultState(Microseconds(50) + Milliseconds(50));
  EXPECT_EQ(manager.fault_suspicions(), 2);
  FaultSignal sig;
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDown);
  EXPECT_EQ(sig.source, 0);
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDown);
  EXPECT_EQ(sig.source, 1);
  EXPECT_FALSE(manager.TakeFaultSignal(&sig));
}

TEST(FaultComm, SilencePastBothThresholdsDownThenDeadInOneRun) {
  CommConfig config;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel = MakeRelation(100);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  FaultSchedule schedule;
  schedule.events = {DeathAt(5)};
  w->SetFaultSchedule(schedule, 5);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  Tuple out[16];
  EXPECT_EQ(manager.Pop(0, Microseconds(100), out, 16), 5);
  // The first detector run comes after the 500 ms dead floor.
  manager.UpdateFaultState(Microseconds(50) + Milliseconds(500));
  EXPECT_TRUE(manager.SourceDead(0));
  EXPECT_EQ(manager.fault_suspicions(), 1);
  EXPECT_EQ(manager.fault_declared_dead(), 1);
  FaultSignal sig;
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDown);
  ASSERT_TRUE(manager.TakeFaultSignal(&sig));
  EXPECT_EQ(sig.kind, FaultSignal::Kind::kDead);
  EXPECT_FALSE(manager.TakeFaultSignal(&sig));
  // A dead source is no longer watched.
  EXPECT_EQ(manager.NextFaultDeadline(Seconds(1)), kSimTimeNever);
}

TEST(FaultComm, FaultDeadlineFollowsHeldSourceThroughItsLife) {
  CommConfig config;
  config.failure_detection = true;
  CommManager manager(config);
  const Relation rel = MakeRelation(100);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  w->Hold();
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  // Held sources are watched from t = 0 (DESIGN.md §8); the 50 ms suspect
  // floor dominates 64 x the 10 us prior.
  EXPECT_EQ(manager.NextFaultDeadline(0), Milliseconds(50));
  // Once a threshold has passed, the next detector run is due at once.
  EXPECT_EQ(manager.NextFaultDeadline(Milliseconds(50)),
            Milliseconds(50) + 1);
  // Admission restarts the silence clock.
  manager.StartSource(0, Milliseconds(10));
  EXPECT_EQ(manager.NextFaultDeadline(Milliseconds(10)), Milliseconds(60));
  // Tuples arrive every 10 us after admission; the third is the last one
  // delivered by this pop.
  Tuple out[16];
  EXPECT_EQ(manager.Pop(0, Milliseconds(10) + Microseconds(35), out, 16), 3);
  const SimTime last = Milliseconds(10) + Microseconds(30);
  EXPECT_EQ(manager.NextFaultDeadline(last + 1), last + Milliseconds(50));
  EXPECT_EQ(manager.NextFaultDeadline(last + Milliseconds(60)),
            last + Milliseconds(60) + 1);
  // A closed source is no longer watched.
  manager.CloseSource(0);
  EXPECT_EQ(manager.NextFaultDeadline(last + Milliseconds(60)),
            kSimTimeNever);
}

// ------------------------------------------------------------- end to end

MediatorConfig BaseConfig() {
  MediatorConfig config;
  config.memory_budget_bytes = 64LL * 1024 * 1024;
  config.seed = 7;
  return config;
}

Mediator MakeMediator(plan::QuerySetup setup, MediatorConfig config) {
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        std::move(config));
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m.value());
}

TEST(FaultEndToEnd, FaultFreeRunReportsNoFaultStats) {
  Mediator m = MakeMediator(plan::TinyTwoSourceQuery(), BaseConfig());
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->fault.any());
}

TEST(FaultEndToEnd, DormantScheduleIsBenign) {
  // A schedule whose only event sits past the relation's cardinality arms
  // the detector but never fires; the run completes exactly and clean.
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  const int64_t card = setup.catalog.sources[0].relation.cardinality;
  setup.catalog.sources[0].faults.events = {StallAt(card, Milliseconds(1))};
  Mediator m = MakeMediator(std::move(setup), BaseConfig());
  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    Result<ExecutionMetrics> r = m.Execute(kind);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->fault.any()) << core::StrategyName(kind);
  }
}

TEST(FaultEndToEnd, DisconnectReplayVerifiesAgainstReference) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  // 5 + 10 ms outage: below the 50 ms suspicion floor — pure dedup path.
  setup.catalog.sources[0].faults.events = {
      DisconnectAt(500, true, 1, Milliseconds(5), 0.25)};
  Mediator m = MakeMediator(std::move(setup), BaseConfig());
  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    // Execute() verifies count and checksum against the oracle.
    Result<ExecutionMetrics> r = m.Execute(kind);
    ASSERT_TRUE(r.ok()) << core::StrategyName(kind) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->fault.disconnects_injected, 1) << core::StrategyName(kind);
    EXPECT_EQ(r->fault.reconnects, 1) << core::StrategyName(kind);
    EXPECT_EQ(r->fault.replays_discarded, 500) << core::StrategyName(kind);
    EXPECT_FALSE(r->fault.partial_result) << core::StrategyName(kind);
  }
}

TEST(FaultEndToEnd, ReplayStraddlingPopsStillBorrow) {
  // SEQ runs A's build chain after B's. By then A's queue holds its fresh
  // prefix, the duplicates of a from-scratch replay and fresh tuples after
  // them, so one of A's pops straddles the discarded window. That pop is
  // still one span of A's relation (DESIGN.md §7.1): A's operand keeps
  // borrowing the run, and the answer matches the reference.
  plan::QuerySetup setup = plan::ChainThreeSourceQuery();
  setup.catalog.sources[0].faults.events = {
      DisconnectAt(200, true, 0, Milliseconds(1), 0.0)};
  MediatorConfig config = BaseConfig();
  config.comm.failure_detection = true;
  const core::SeedPolicy seeds = core::SeedPolicy::Mediator(config.seed);
  Result<core::PreparedQuery> query =
      core::PrepareQuery(setup.catalog, setup.plan, config.cost, seeds);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const plan::CompiledPlan& compiled = query->compiled;
  exec::ExecContext ctx(&config.cost, config.comm,
                        config.memory_budget_bytes);
  core::AddWrappers(ctx, *query, seeds, /*hold=*/false);
  core::ExecutionState state(&compiled, &ctx,
                             core::OptionsFor(StrategyKind::kSeq));
  core::Dqp dqp(config.strategy.dqp);
  const std::vector<ChainId> order = compiled.IteratorModelOrder();
  ASSERT_EQ(compiled.chain(order[1]).source, 0);  // A builds second
  // Per join, whether its operand borrowed, read when its chain is done.
  std::vector<int> borrowed(static_cast<size_t>(compiled.num_joins), -1);
  for (ChainId c : order) {
    core::SchedulingPlan sp;
    sp.fragments.assign(1, state.ChainFragment(c));
    sp.critical_ns.assign(1, 0.0);
    for (int guard = 0; !state.ChainDone(c); ++guard) {
      ASSERT_LT(guard, 100000) << "chain " << c << " made no progress";
      Result<core::Event> evt = dqp.RunPhase(state, sp, ctx);
      ASSERT_TRUE(evt.ok()) << evt.status().ToString();
      if (evt->kind == core::EventKind::kEndOfQf) {
        state.OnFragmentFinished(evt->fragment, ctx);
      } else if (evt->kind == core::EventKind::kRateChange) {
        ctx.comm.MarkPlanned(ctx.clock.now());  // acknowledge, as SEQ does
      }
    }
    const plan::ChainInfo& chain = compiled.chain(c);
    if (!chain.is_result) {
      borrowed[static_cast<size_t>(chain.sink_join)] =
          state.operands().Get(chain.sink_join).tuples().borrowed();
    }
  }
  EXPECT_EQ(ctx.comm.ReplayDiscarded(0), 200);
  const Status answer = query->CheckAnswer(
      ctx.result.count(), ctx.result.checksum().value(), "SEQ");
  EXPECT_TRUE(answer.ok()) << answer.ToString();
  // Both build chains are plain scans of A and B: both operands borrow.
  EXPECT_EQ(borrowed, std::vector<int>(borrowed.size(), 1));
}

TEST(FaultEndToEnd, TransientStallSuspectsThenRecovers) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  // 100 ms of silence: over the 50 ms suspicion floor, under the 500 ms
  // death floor — the source must come back recovered, the query exact.
  setup.catalog.sources[0].faults.events = {StallAt(500, Milliseconds(100))};
  Mediator m = MakeMediator(std::move(setup), BaseConfig());
  for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
    Result<ExecutionMetrics> r = m.Execute(kind);
    ASSERT_TRUE(r.ok()) << core::StrategyName(kind) << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->fault.stalls_injected, 1) << core::StrategyName(kind);
    EXPECT_GE(r->fault.sources_suspected, 1) << core::StrategyName(kind);
    EXPECT_GE(r->fault.recoveries, 1) << core::StrategyName(kind);
    EXPECT_EQ(r->fault.sources_dead, 0) << core::StrategyName(kind);
    EXPECT_GE(r->fault.source_down_events, 1) << core::StrategyName(kind);
    EXPECT_GE(r->fault.source_recovered_events, 1)
        << core::StrategyName(kind);
    EXPECT_FALSE(r->fault.partial_result) << core::StrategyName(kind);
  }
  // Scrambling reacts to the silence through its own timeout and rides
  // out the suspicion the same way.
  Result<ExecutionMetrics> scr = m.ExecuteScrambling(Milliseconds(20));
  ASSERT_TRUE(scr.ok()) << scr.status().ToString();
  EXPECT_GE(scr->fault.source_down_events, 1);
  EXPECT_GE(scr->fault.source_recovered_events, 1);
  EXPECT_FALSE(scr->fault.partial_result);
}

TEST(FaultEndToEnd, DeathIsUnavailableUnderStrictPolicy) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  setup.catalog.sources[0].faults.events = {DeathAt(500)};
  Mediator m = MakeMediator(std::move(setup), BaseConfig());
  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    Result<ExecutionMetrics> r = m.Execute(kind);
    ASSERT_FALSE(r.ok()) << core::StrategyName(kind);
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << core::StrategyName(kind) << ": " << r.status().ToString();
  }
  Result<ExecutionMetrics> scr = m.ExecuteScrambling(Milliseconds(20));
  ASSERT_FALSE(scr.ok());
  EXPECT_EQ(scr.status().code(), StatusCode::kUnavailable)
      << scr.status().ToString();
}

TEST(FaultEndToEnd, DeathYieldsPartialResultUnderDse) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  setup.catalog.sources[0].faults.events = {DeathAt(500)};
  MediatorConfig config = BaseConfig();
  config.strategy.fault.partial_results = true;
  Mediator m = MakeMediator(std::move(setup), config);
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->fault.sources_killed, 1);
  EXPECT_EQ(r->fault.sources_dead, 1);
  EXPECT_EQ(r->fault.sources_abandoned, 1);
  EXPECT_TRUE(r->fault.partial_result);
  EXPECT_GT(r->result_count, 0);
  EXPECT_LT(r->result_count, m.reference().result_card);

  // SEQ and MA are all-or-nothing: the policy does not apply to them.
  Result<ExecutionMetrics> seq = m.Execute(StrategyKind::kSeq);
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kUnavailable);
}

TEST(FaultEndToEnd, PartialResultRunsAreDeterministic) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  setup.catalog.sources[0].faults.events = {DeathAt(500)};
  MediatorConfig config = BaseConfig();
  config.strategy.fault.partial_results = true;
  Mediator m = MakeMediator(std::move(setup), config);
  Result<ExecutionMetrics> a = m.Execute(StrategyKind::kDse);
  Result<ExecutionMetrics> b = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->response_time, b->response_time);
  EXPECT_EQ(a->result_count, b->result_count);
  EXPECT_EQ(a->result_checksum, b->result_checksum);
  EXPECT_EQ(a->fault.sources_dead, b->fault.sources_dead);
  EXPECT_EQ(a->fault.replays_discarded, b->fault.replays_discarded);
  EXPECT_EQ(a->fault.source_down_events, b->fault.source_down_events);
}

TEST(FaultDeadline, StrictPolicyAborts) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  MediatorConfig config = BaseConfig();
  config.query_deadline = Milliseconds(10);  // well under the ~80 ms run
  Mediator m = MakeMediator(std::move(setup), config);
  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    Result<ExecutionMetrics> r = m.Execute(kind);
    ASSERT_FALSE(r.ok()) << core::StrategyName(kind);
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << core::StrategyName(kind) << ": " << r.status().ToString();
  }
  Result<ExecutionMetrics> scr = m.ExecuteScrambling(Milliseconds(20));
  ASSERT_FALSE(scr.ok());
  EXPECT_EQ(scr.status().code(), StatusCode::kDeadlineExceeded)
      << scr.status().ToString();
}

TEST(FaultDeadline, PartialPolicyReturnsWhatArrived) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  MediatorConfig config = BaseConfig();
  config.query_deadline = Milliseconds(10);
  config.strategy.fault.partial_results = true;
  Mediator m = MakeMediator(std::move(setup), config);
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->fault.deadline_hit);
  EXPECT_TRUE(r->fault.partial_result);
  EXPECT_GE(r->response_time, Milliseconds(10));
  EXPECT_LE(r->result_count, m.reference().result_card);
}

TEST(FaultDeadline, RejectsNegativeBudget) {
  plan::QuerySetup setup = plan::TinyTwoSourceQuery();
  MediatorConfig config = BaseConfig();
  config.query_deadline = -1;
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        std::move(config));
  EXPECT_FALSE(m.ok());
}

// The acceptance scenario: the paper's Figure 6 workload with the slowed
// relation A dying mid-stream. SEQ has no answer; DSE under the
// partial-result policy degrades gracefully.
TEST(FaultFig6, SlowSourceDeathSeqAbortsDseDegrades) {
  plan::QuerySetup setup = plan::PaperFigure5Query(/*scale=*/0.05);
  const SourceId a = setup.catalog.Find("A");
  ASSERT_NE(a, kInvalidId);
  setup.catalog.sources[static_cast<size_t>(a)].delay.mean_us = 200.0;
  setup.catalog.sources[static_cast<size_t>(a)].faults.events = {
      DeathAt(1000)};

  MediatorConfig strict = BaseConfig();
  Mediator m_strict = MakeMediator(setup, strict);
  Result<ExecutionMetrics> seq = m_strict.Execute(StrategyKind::kSeq);
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kUnavailable);

  MediatorConfig partial = BaseConfig();
  partial.strategy.fault.partial_results = true;
  Mediator m_partial = MakeMediator(std::move(setup), partial);
  Result<ExecutionMetrics> dse = m_partial.Execute(StrategyKind::kDse);
  ASSERT_TRUE(dse.ok()) << dse.status().ToString();
  EXPECT_EQ(dse->fault.sources_dead, 1);
  EXPECT_EQ(dse->fault.sources_abandoned, 1);
  EXPECT_TRUE(dse->fault.partial_result);
  EXPECT_GT(dse->result_count, 0);
  EXPECT_LT(dse->result_count, m_partial.reference().result_card);
}

TEST(FaultFig6, PartialDegradationIsSeedStable) {
  for (uint64_t seed : {1ULL, 7ULL, 1337ULL}) {
    plan::QuerySetup setup = plan::PaperFigure5Query(/*scale=*/0.05);
    const SourceId a = setup.catalog.Find("A");
    setup.catalog.sources[static_cast<size_t>(a)].delay.mean_us = 200.0;
    setup.catalog.sources[static_cast<size_t>(a)].faults.events = {
        DeathAt(1000)};
    MediatorConfig config = BaseConfig();
    config.seed = seed;
    config.strategy.fault.partial_results = true;
    Mediator m = MakeMediator(std::move(setup), config);
    Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_EQ(r->fault.sources_dead, 1) << "seed " << seed;
    EXPECT_TRUE(r->fault.partial_result) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dqsched

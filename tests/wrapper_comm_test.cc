#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "comm/comm_manager.h"
#include "comm/rate_estimator.h"
#include "comm/tuple_queue.h"
#include "storage/relation.h"
#include "wrapper/fault_model.h"
#include "wrapper/wrapper.h"

namespace dqsched {
namespace {

using comm::CommConfig;
using comm::CommManager;
using comm::RateEstimator;
using comm::TupleQueue;
using storage::Relation;
using storage::RelationSpec;
using storage::Tuple;
using wrapper::DelayConfig;
using wrapper::DelayKind;
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

void FeedArrival(RateEstimator& est, SimTime t) { est.OnArrivals(&t, 1); }

/// Records every observer notification, preserving run boundaries.
struct Capture : wrapper::ArrivalObserver {
  std::vector<SimTime> times;
  std::vector<SimTime> suppressed;
  std::vector<int64_t> runs;
  void OnArrivals(const SimTime* ts, int64_t n) override {
    runs.push_back(n);
    times.insert(times.end(), ts, ts + n);
  }
  void OnArrivalSuppressed(SimTime t) override { suppressed.push_back(t); }
};

TEST(TupleQueue, CapacityAndFull) {
  TupleQueue q(3);
  q.Push(2);
  EXPECT_FALSE(q.Full());
  q.Push(1);
  EXPECT_TRUE(q.Full());
}

TEST(TupleQueue, PopBatchBounded) {
  TupleQueue q(10);
  q.Push(2);
  EXPECT_EQ(q.Pop(8), 2);
  EXPECT_EQ(q.Pop(8), 0);
  EXPECT_TRUE(q.Empty());
}

TEST(TupleQueue, ExhaustionSemantics) {
  TupleQueue q(4);
  q.Push(1);
  EXPECT_FALSE(q.Exhausted());
  q.CloseProducer();
  EXPECT_FALSE(q.Exhausted());  // data still buffered
  q.Pop(4);
  EXPECT_TRUE(q.Exhausted());

  // Closed while full: buffered tuples drain to exhaustion.
  TupleQueue full(4);
  full.Push(3);
  full.Pop(3);
  full.Push(4);
  full.CloseProducer();
  EXPECT_TRUE(full.Full());
  EXPECT_FALSE(full.Exhausted());
  ASSERT_EQ(full.Pop(4), 4);
  EXPECT_TRUE(full.Exhausted());
  EXPECT_EQ(full.total_pushed(), 7);
  EXPECT_EQ(full.total_popped(), 7);
}

TEST(TupleQueue, CountsPushedAndPopped) {
  TupleQueue q(10);
  q.Push(2);
  q.Pop(1);
  EXPECT_EQ(q.total_pushed(), 2);
  EXPECT_EQ(q.total_popped(), 1);

  // Conservation holds at every position, past any multiple of capacity.
  TupleQueue r(8);
  for (int round = 0; round < 10; ++round) {
    r.Push(5);
    ASSERT_EQ(r.Pop(5), 5);
    EXPECT_EQ(r.total_pushed(), r.total_popped() + r.size());
  }
  EXPECT_EQ(r.total_pushed(), 50);
  EXPECT_EQ(r.total_popped(), 50);
}

TEST(TupleQueue, NonPowerOfTwoCapacityIsExact) {
  TupleQueue q(5);  // occupancy caps at exactly 5
  EXPECT_EQ(q.capacity(), 5);
  q.Push(5);
  EXPECT_TRUE(q.Full());
  EXPECT_EQ(q.SpaceLeft(), 0);
  q.Pop(3);
  EXPECT_EQ(q.SpaceLeft(), 3);
  EXPECT_FALSE(q.Full());
}

TEST(SimWrapper, DeliversOnSchedule) {
  const Relation rel = MakeRelation(10);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  TupleQueue q(100);
  // At t=5us nothing is due; first tuple lands at 10us.
  w.PumpInto(q, Microseconds(5));
  EXPECT_TRUE(q.Empty());
  w.PumpInto(q, Microseconds(10));
  EXPECT_EQ(q.size(), 1);
  w.PumpInto(q, Microseconds(100));
  EXPECT_EQ(q.size(), 10);
  EXPECT_TRUE(w.Exhausted());
  EXPECT_TRUE(q.producer_closed());
}

TEST(SimWrapper, NextArrivalTracksSchedule) {
  const Relation rel = MakeRelation(3);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  EXPECT_EQ(w.NextArrival(), Microseconds(10));
  TupleQueue q(100);
  w.PumpInto(q, Microseconds(10));
  EXPECT_EQ(w.NextArrival(), Microseconds(20));
}

TEST(SimWrapper, WindowProtocolSuspendsOnFullQueue) {
  const Relation rel = MakeRelation(10);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  TupleQueue q(4);
  w.PumpInto(q, Microseconds(1000));
  EXPECT_EQ(q.size(), 4);  // suspended at capacity
  EXPECT_EQ(w.NextArrival(), kSimTimeNever);
  EXPECT_EQ(w.remaining(), 6);

  // Drain two tuples at t=1000us; the pending tuple enters at the drain
  // time and production resumes at its normal pace from there.
  q.Pop(2);
  w.PumpInto(q, Microseconds(1000));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(w.NextArrival(), Microseconds(1010));
  EXPECT_GT(w.stats().blocked, 0);
}

TEST(SimWrapper, ResumedProductionContinuesFromDrainTime) {
  const Relation rel = MakeRelation(3);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  TupleQueue q(1);
  w.PumpInto(q, Microseconds(10));  // tuple 0 in queue
  w.PumpInto(q, Microseconds(50));  // tuple 1 ready at 20us but blocked
  EXPECT_EQ(q.size(), 1);
  q.Pop(1);
  // Resume at t=50: the pending tuple enters now, the next is due 10us on.
  w.PumpInto(q, Microseconds(50));
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(w.NextArrival(), Microseconds(60));
}

TEST(SimWrapper, EmptyRelationClosesImmediately) {
  const Relation rel = MakeRelation(0);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  TupleQueue q(4);
  w.PumpInto(q, 0);
  EXPECT_TRUE(q.producer_closed());
  EXPECT_TRUE(w.Exhausted());
  EXPECT_EQ(w.NextArrival(), kSimTimeNever);
}

TEST(SimWrapper, ObserverSeesArrivalTimes) {
  const Relation rel = MakeRelation(3);
  SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
  TupleQueue q(10);
  Capture cap;
  w.PumpInto(q, Microseconds(100), &cap);
  ASSERT_EQ(cap.times.size(), 3u);
  EXPECT_EQ(cap.times[0], Microseconds(10));
  EXPECT_EQ(cap.times[2], Microseconds(30));
  // All three tuples were ready: one bulk run, one observer call.
  ASSERT_EQ(cap.runs.size(), 1u);
  EXPECT_EQ(cap.runs[0], 3);
}

TEST(SimWrapper, SerialDeliveryMatchesBulk) {
  // Drive the full window protocol (suspend, resume, suppressed arrival)
  // with runs capped at one tuple and uncapped; every observable — pop
  // counts, observer samples, suppressed arrivals, wrapper stats — must
  // coincide. Queue of 4 drained 3-at-a-time against a 10 us producer
  // guarantees backpressure.
  const Relation rel = MakeRelation(50);
  struct Observed {
    std::vector<int64_t> pops;
    std::vector<SimTime> times;
    std::vector<SimTime> suppressed;
    int64_t delivered = 0;
    SimDuration blocked = 0;
    SimTime finished_at = kSimTimeNever;
  };
  auto run = [&rel](bool serial) {
    SimWrapper w(0, &rel, ConstantDelay(10.0), 1);
    w.set_serial_delivery(serial);
    TupleQueue q(4);
    Capture cap;
    Observed obs;
    SimTime t = 0;
    while (!q.Exhausted()) {
      t += Microseconds(35);
      w.PumpInto(q, t, &cap);
      obs.pops.push_back(q.Pop(3));
      w.PumpInto(q, t, &cap);  // resume a suspended producer
    }
    obs.times = cap.times;
    obs.suppressed = cap.suppressed;
    obs.delivered = w.stats().tuples_delivered;
    obs.blocked = w.stats().blocked;
    obs.finished_at = w.stats().finished_at;
    return obs;
  };
  const Observed serial = run(true);
  const Observed bulk = run(false);
  EXPECT_EQ(serial.pops, bulk.pops);
  EXPECT_EQ(serial.times, bulk.times);
  EXPECT_EQ(serial.suppressed, bulk.suppressed);
  EXPECT_EQ(serial.delivered, bulk.delivered);
  EXPECT_EQ(serial.blocked, bulk.blocked);
  EXPECT_EQ(serial.finished_at, bulk.finished_at);
  EXPECT_FALSE(serial.suppressed.empty());  // the protocol was exercised
}

TEST(RateEstimator, UsesPriorUntilWarmup) {
  RateEstimator est(0.1, /*warmup=*/4);
  est.SetPrior(5000.0);
  EXPECT_DOUBLE_EQ(est.MeanInterArrivalNs(), 5000.0);
  FeedArrival(est, 100);
  FeedArrival(est, 200);
  EXPECT_DOUBLE_EQ(est.MeanInterArrivalNs(), 5000.0);  // still warming up
}

TEST(RateEstimator, ConvergesToActualRate) {
  RateEstimator est(0.05, 4);
  est.SetPrior(1.0);
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += Microseconds(20);
    FeedArrival(est, t);
  }
  EXPECT_NEAR(est.MeanInterArrivalNs(), 20000.0, 100.0);
}

TEST(RateEstimator, TracksRateChanges) {
  RateEstimator est(0.05, 4);
  SimTime t = 0;
  for (int i = 0; i < 300; ++i) {
    t += Microseconds(20);
    FeedArrival(est, t);
  }
  const double before = est.MeanInterArrivalNs();
  for (int i = 0; i < 300; ++i) {
    t += Microseconds(100);
    FeedArrival(est, t);
  }
  EXPECT_GT(est.MeanInterArrivalNs(), before * 3);
}

class CommManagerTest : public ::testing::Test {
 protected:
  CommManagerTest() : rel_(MakeRelation(100)), manager_(MakeConfig()) {
    auto w = std::make_unique<SimWrapper>(0, &rel_, ConstantDelay(10.0), 1);
    manager_.AddSource(std::move(w), /*prior=*/10000.0);
  }
  static CommConfig MakeConfig() {
    CommConfig c;
    c.queue_capacity = 16;
    c.rate_change_min_samples = 8;
    c.rate_change_cooldown = 0;
    return c;
  }
  Relation rel_;
  CommManager manager_;
};

TEST_F(CommManagerTest, AvailablePumpsArrivals) {
  EXPECT_EQ(manager_.Available(0, Microseconds(35)), 3);
}

TEST_F(CommManagerTest, PopUnblocksSuspendedProducer) {
  // Fill the 16-slot queue and beyond.
  EXPECT_EQ(manager_.Available(0, Microseconds(10000)), 16);
  Tuple out[8];
  EXPECT_EQ(manager_.Pop(0, Microseconds(10000), out, 8), 8);
  // The pop re-pumps: the tuple pending since the suspension enters at the
  // drain time, and production resumes at its 10 us pace afterwards.
  EXPECT_EQ(manager_.queue(0).size(), 9);
  EXPECT_EQ(manager_.Available(0, Microseconds(10070)), 16);
}

TEST_F(CommManagerTest, ZeroPushSuspensionBumpsSourceVersion) {
  // 16 pushes fill the queue exactly; the producer is not yet suspended and
  // still advertises a real next arrival.
  EXPECT_EQ(manager_.Available(0, Microseconds(160)), 16);
  EXPECT_EQ(manager_.NextArrival(0), Microseconds(170));
  const uint64_t before = manager_.SourceVersion(0);
  // The next pump delivers nothing — the window protocol suspends the
  // producer on the full queue — yet it flips NextArrival to "never".
  // Version-guarded arrival caches must observe that transition; a stale
  // "arrival at 170 us" would be stalled on forever.
  manager_.PumpAll(Microseconds(170));
  EXPECT_EQ(manager_.queue(0).size(), 16);
  EXPECT_EQ(manager_.NextArrival(0), kSimTimeNever);
  EXPECT_NE(manager_.SourceVersion(0), before);
}

TEST_F(CommManagerTest, RemainingTuplesCountsQueueAndWrapper) {
  manager_.PumpAll(Microseconds(50));  // 5 delivered
  EXPECT_EQ(manager_.RemainingTuples(0), 100);
  Tuple out[5];
  manager_.Pop(0, Microseconds(50), out, 5);
  EXPECT_EQ(manager_.RemainingTuples(0), 95);
}

TEST_F(CommManagerTest, SourceExhaustedAfterFullDrain) {
  Tuple out[16];
  int64_t total = 0;
  SimTime t = 0;
  while (total < 100) {
    t += Microseconds(100);
    total += manager_.Pop(0, t, out, 16);
  }
  EXPECT_TRUE(manager_.SourceExhausted(0));
  EXPECT_EQ(manager_.NextArrival(0), kSimTimeNever);
}

TEST_F(CommManagerTest, RateChangeDetection) {
  manager_.MarkPlanned(0);
  Tuple out[16];
  SimTime t = 0;
  // The estimator warms up after its first samples: one warm-up signal
  // fires (the plan was computed on the prior), then — with delivery
  // matching the prior — silence.
  for (int i = 0; i < 24; ++i) {
    t += Microseconds(40);
    manager_.Pop(0, t, out, 16);
  }
  EXPECT_TRUE(manager_.RateChangedSincePlan(t));
  manager_.MarkPlanned(t);
  for (int i = 0; i < 20; ++i) {
    t += Microseconds(40);
    manager_.Pop(0, t, out, 16);
  }
  EXPECT_FALSE(manager_.RateChangedSincePlan(t));
}

// ------------------------------------------------------------ span pops
//
// A pop is a span of the source's relation read in place: fresh tuples are
// delivered in relation-index order and replayed duplicates are discarded
// by position, so every pop must be relation.tuples[cursor, cursor + n)
// for the running count `cursor` of fresh tuples popped before it.

/// Pops up to `max` tuples of source 0 at `t` and checks the span against
/// `rel` at `*cursor`, which it advances. With `copy` the pop goes through
/// the copying Pop adaptor, whose copy must hold the same tuples.
int64_t PopCheckingSpan(CommManager& cm, const Relation& rel, SimTime t,
                        int64_t max, int64_t* cursor, bool copy = false) {
  if (copy) {
    std::vector<Tuple> out(static_cast<size_t>(max));
    const int64_t n = cm.Pop(0, t, out.data(), max);
    EXPECT_LE(*cursor + n, rel.cardinality());
    for (int64_t i = 0; i < n && *cursor + i < rel.cardinality(); ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)].rowid,
                rel.tuples[static_cast<size_t>(*cursor + i)].rowid)
          << "copied pop at cursor " << *cursor << ", offset " << i;
    }
    *cursor += n;
    return n;
  }
  const comm::TupleSpan span = cm.PopSpan(0, t, max);
  EXPECT_LE(span.count, max);
  EXPECT_LE(*cursor + span.count, rel.cardinality());
  if (span.count > 0) {
    EXPECT_EQ(span.data, rel.tuples.data() + *cursor)
        << "span pop at cursor " << *cursor;
  }
  *cursor += span.count;
  return span.count;
}

/// Drains source 0 from `cursor` on, popping up to `max` tuples every
/// `step` after `*t`, every other pop through the copying adaptor; returns
/// the final cursor.
int64_t DrainCheckingSpans(CommManager& cm, const Relation& rel, SimTime* t,
                           SimDuration step, int64_t max, int64_t cursor) {
  int guard = 0;
  while (!cm.SourceExhausted(0)) {
    if (++guard > 100000) {
      ADD_FAILURE() << "drain did not converge";
      break;
    }
    *t += step;
    PopCheckingSpan(cm, rel, *t, max, &cursor, /*copy=*/guard % 2 == 0);
  }
  return cursor;
}

TEST(CommManagerSpan, PlainDeliveryPopsRelationSpans) {
  const Relation rel = MakeRelation(100);
  CommManager cm{CommConfig{}};
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  SimTime t = 0;
  EXPECT_EQ(DrainCheckingSpans(cm, rel, &t, Microseconds(35), 7, 0), 100);
  EXPECT_EQ(cm.queue(0).total_popped(), 100);
}

TEST(CommManagerSpan, SuspendAndResumeOnASmallQueue) {
  const Relation rel = MakeRelation(300);
  CommConfig config;
  config.queue_capacity = 16;
  CommManager cm(config);
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  // 100 tuples are ready per millisecond and 5 are popped: the producer
  // suspends on the full queue and resumes at every drain.
  SimTime t = 0;
  EXPECT_EQ(DrainCheckingSpans(cm, rel, &t, Milliseconds(1), 5, 0), 300);
  EXPECT_GT(cm.wrapper(0).stats().blocked, 0);
}

TEST(CommManagerSpan, SerialTransportPopsRelationSpans) {
  const Relation rel = MakeRelation(300);
  CommConfig config;
  config.queue_capacity = 16;
  config.serial_transport = true;
  CommManager cm(config);
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  SimTime t = 0;
  EXPECT_EQ(DrainCheckingSpans(cm, rel, &t, Microseconds(70), 5, 0), 300);
  EXPECT_GT(cm.wrapper(0).stats().blocked, 0);
}

wrapper::FaultSpec ReplayFromScratchAt(int64_t tuple) {
  wrapper::FaultSpec s;
  s.kind = wrapper::FaultKind::kDisconnect;
  s.at_tuple = tuple;
  s.replay_from_scratch = true;
  s.failed_attempts = 0;
  s.backoff_initial = Milliseconds(1);
  s.backoff_jitter = 0.0;
  return s;
}

TEST(CommManagerSpan, PopStraddlingADiscardedReplayIsOneSpan) {
  const Relation rel = MakeRelation(50);
  CommConfig config;
  config.queue_capacity = 128;
  config.failure_detection = true;
  CommManager cm(config);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  wrapper::FaultSchedule schedule;
  schedule.events = {ReplayFromScratchAt(20)};
  w->SetFaultSchedule(schedule, 5);
  cm.AddSource(std::move(w), /*prior=*/10000.0);
  // Delivered positions: fresh 0..19, replayed 0..19 at [20, 40), fresh
  // 20..49 at [40, 70).
  const SimTime t = Milliseconds(10);
  cm.PumpAll(t);
  ASSERT_EQ(cm.queue(0).size(), 70);
  int64_t cursor = 0;
  const comm::TupleSpan head = cm.PopSpan(0, t, 15);
  EXPECT_EQ(head.count, 15);
  EXPECT_EQ(head.data, rel.tuples.data());
  cursor += head.count;
  // Fresh 15..19, the discarded window, fresh 20..34: one span.
  const comm::TupleSpan straddle = cm.PopSpan(0, t, 20);
  EXPECT_EQ(straddle.count, 20);
  EXPECT_EQ(straddle.data, rel.tuples.data() + 15);
  EXPECT_EQ(cm.ReplayDiscarded(0), 20);
  cursor += straddle.count;
  SimTime drain = t;
  EXPECT_EQ(DrainCheckingSpans(cm, rel, &drain, Microseconds(100), 8, cursor),
            50);
  EXPECT_EQ(cm.queue(0).total_popped(), 70);
}

TEST(CommManagerSpan, AbandonedSourceDrainsItsFreshPrefix) {
  const Relation rel = MakeRelation(100);
  CommConfig config;
  config.queue_capacity = 64;
  config.failure_detection = true;
  CommManager cm(config);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  wrapper::FaultSchedule schedule;
  wrapper::FaultSpec death;
  death.kind = wrapper::FaultKind::kDeath;
  death.at_tuple = 25;
  schedule.events = {ReplayFromScratchAt(10), death};
  w->SetFaultSchedule(schedule, 5);
  cm.AddSource(std::move(w), /*prior=*/10000.0);
  // Delivered: fresh 0..9, replayed 0..9, fresh 10..24, then death.
  SimTime t = Milliseconds(10);
  int64_t cursor = 0;
  PopCheckingSpan(cm, rel, t, 5, &cursor);
  ASSERT_EQ(cursor, 5);
  cm.UpdateFaultState(Seconds(1));
  ASSERT_TRUE(cm.SourceDead(0));
  cm.AbandonSource(0);
  EXPECT_EQ(cm.RemainingTuples(0), 20);
  EXPECT_EQ(DrainCheckingSpans(cm, rel, &t, Microseconds(100), 7, cursor), 25);
  EXPECT_EQ(cm.ReplayDiscarded(0), 10);
  EXPECT_EQ(cm.RemainingTuples(0), 0);
}

// ------------------------------------------------------- inline answers
//
// The per-batch answers read state the manager keeps for its event index
// (the arrival key and the exhausted and ended flags SyncSource
// refreshes), never the wrapper. After every transition each must equal
// its formula over wrapper(s) and queue(s).

/// Fresh tuples queued for `s`: the queue minus the replayed duplicates
/// still in it, from the wrapper's replay windows.
int64_t FreshQueued(const CommManager& cm, SourceId s) {
  const TupleQueue& q = cm.queue(s);
  int64_t fresh = q.size();
  for (const wrapper::ReplayWindow& w : cm.wrapper(s).replay_windows()) {
    const int64_t b = std::max(w.begin, q.total_popped());
    const int64_t e = std::min(w.end, q.total_pushed());
    if (e > b) fresh -= e - b;
  }
  return fresh;
}

/// Checks the four answers for source 0 at `now`; Available goes last,
/// since it pumps a due arrival.
void ExpectAnswersMatchWrapper(CommManager& cm, SimTime now) {
  const SimWrapper& w = cm.wrapper(0);
  const TupleQueue& q = cm.queue(0);
  EXPECT_EQ(cm.NextArrival(0), w.NextArrival());
  EXPECT_EQ(cm.Backpressured(0), !w.Exhausted() && q.Full());
  EXPECT_EQ(cm.SourceExhausted(0),
            (w.Exhausted() || cm.SourceClosed(0)) && FreshQueued(cm, 0) == 0);
  const bool due = w.NextArrival() <= now;
  const int64_t pushed = q.total_pushed();
  const int64_t available = cm.Available(0, now);
  EXPECT_EQ(available, FreshQueued(cm, 0));
  if (due) {
    EXPECT_GT(w.NextArrival(), now) << "a due arrival was left unpumped";
  } else {
    EXPECT_EQ(q.total_pushed(), pushed) << "pumped with nothing due";
  }
}

CommConfig StateConfig(bool failure_detection = false) {
  CommConfig c;
  c.queue_capacity = 16;
  c.failure_detection = failure_detection;
  return c;
}

TEST(CommManagerState, HeldSourceBeforeAndAfterStart) {
  const Relation rel = MakeRelation(40);
  CommManager cm(StateConfig());
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  w->Hold();
  cm.AddSource(std::move(w), /*prior=*/10000.0);
  ExpectAnswersMatchWrapper(cm, Milliseconds(5));
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
  cm.StartSource(0, Milliseconds(5));
  ExpectAnswersMatchWrapper(cm, Milliseconds(5));
  EXPECT_EQ(cm.NextArrival(0), Milliseconds(5) + Microseconds(10));
  ExpectAnswersMatchWrapper(cm, Milliseconds(5) + Microseconds(35));
  EXPECT_EQ(cm.queue(0).size(), 3);
}

TEST(CommManagerState, SuspensionOnAFullQueueAndResumptionByAPop) {
  const Relation rel = MakeRelation(100);
  CommManager cm(StateConfig());
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  // 16 tuples fill the queue; the 17th is due at 170 us.
  cm.PumpAll(Microseconds(160));
  ExpectAnswersMatchWrapper(cm, Microseconds(160));
  EXPECT_TRUE(cm.Backpressured(0));
  EXPECT_EQ(cm.NextArrival(0), Microseconds(170));
  // The next pump delivers nothing and suspends the producer.
  ExpectAnswersMatchWrapper(cm, Microseconds(170));
  ASSERT_TRUE(cm.wrapper(0).Suspended());
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
  // A pop drains and resumes it: the pending tuple enters at once.
  EXPECT_EQ(cm.PopSpan(0, Microseconds(200), 4).count, 4);
  ExpectAnswersMatchWrapper(cm, Microseconds(200));
  EXPECT_FALSE(cm.wrapper(0).Suspended());
  EXPECT_EQ(cm.queue(0).size(), 13);
  EXPECT_FALSE(cm.Backpressured(0));
}

TEST(CommManagerState, LastTupleFillsTheQueue) {
  // The last tuple fills the queue: the producer is done, not throttled.
  const Relation rel = MakeRelation(16);
  CommManager cm(StateConfig());
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  cm.PumpAll(Microseconds(150));
  ExpectAnswersMatchWrapper(cm, Microseconds(150));
  EXPECT_EQ(cm.queue(0).size(), 15);
  ExpectAnswersMatchWrapper(cm, Microseconds(160));
  ASSERT_TRUE(cm.queue(0).Full());
  EXPECT_FALSE(cm.Backpressured(0));
  EXPECT_FALSE(cm.SourceExhausted(0));
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
  EXPECT_EQ(cm.PopSpan(0, Microseconds(170), 15).count, 15);
  ExpectAnswersMatchWrapper(cm, Microseconds(170));
  EXPECT_FALSE(cm.SourceExhausted(0));
  EXPECT_EQ(cm.PopSpan(0, Microseconds(180), 15).count, 1);
  ExpectAnswersMatchWrapper(cm, Microseconds(180));
  EXPECT_TRUE(cm.SourceExhausted(0));
}

TEST(CommManagerState, EmptyRelationEndsAtRegistration) {
  const Relation rel = MakeRelation(0);
  CommManager cm(StateConfig());
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  ExpectAnswersMatchWrapper(cm, 0);
  EXPECT_TRUE(cm.SourceExhausted(0));
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
}

TEST(CommManagerState, ReplayWindowAtTheQueueHead) {
  const Relation rel = MakeRelation(50);
  CommConfig config = StateConfig(/*failure_detection=*/true);
  config.queue_capacity = 128;
  CommManager cm(config);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  wrapper::FaultSchedule schedule;
  schedule.events = {ReplayFromScratchAt(20)};
  w->SetFaultSchedule(schedule, 5);
  cm.AddSource(std::move(w), /*prior=*/10000.0);
  // Delivered positions: fresh 0..19, replayed 0..19 at [20, 40), fresh
  // 20..49 at [40, 70).
  const SimTime t = Milliseconds(10);
  cm.PumpAll(t);
  ExpectAnswersMatchWrapper(cm, t);
  EXPECT_EQ(cm.Available(0, t), 50);
  // Popping the fresh head leaves the window at the head of the queue.
  EXPECT_EQ(cm.PopSpan(0, t, 20).count, 20);
  ASSERT_EQ(cm.queue(0).total_popped(), 20);
  ExpectAnswersMatchWrapper(cm, t);
  EXPECT_EQ(cm.Available(0, t), 30);
  EXPECT_EQ(cm.PopSpan(0, t, 30).count, 30);
  ExpectAnswersMatchWrapper(cm, t);
  EXPECT_TRUE(cm.SourceExhausted(0));
}

TEST(CommManagerState, DeathThenAbandon) {
  const Relation rel = MakeRelation(100);
  CommConfig config = StateConfig(/*failure_detection=*/true);
  config.queue_capacity = 64;
  CommManager cm(config);
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1);
  wrapper::FaultSpec death;
  death.kind = wrapper::FaultKind::kDeath;
  death.at_tuple = 25;
  wrapper::FaultSchedule schedule;
  schedule.events = {death};
  w->SetFaultSchedule(schedule, 5);
  cm.AddSource(std::move(w), /*prior=*/10000.0);
  cm.PumpAll(Milliseconds(10));
  ExpectAnswersMatchWrapper(cm, Milliseconds(10));
  ASSERT_TRUE(cm.wrapper(0).dead());
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
  // Dead but not abandoned: the stream has not ended.
  cm.UpdateFaultState(Seconds(1));
  ASSERT_TRUE(cm.SourceDead(0));
  EXPECT_EQ(cm.PopSpan(0, Seconds(1), 25).count, 25);
  ExpectAnswersMatchWrapper(cm, Seconds(1));
  EXPECT_FALSE(cm.SourceExhausted(0));
  cm.AbandonSource(0);
  ExpectAnswersMatchWrapper(cm, Seconds(1));
  EXPECT_TRUE(cm.SourceExhausted(0));
}

TEST(CommManagerState, CloseSourceMidStream) {
  const Relation rel = MakeRelation(100);
  CommManager cm(StateConfig());
  cm.AddSource(std::make_unique<SimWrapper>(0, &rel, ConstantDelay(10.0), 1),
               /*prior=*/10000.0);
  cm.PumpAll(Microseconds(50));
  ExpectAnswersMatchWrapper(cm, Microseconds(50));
  cm.CloseSource(0);
  ExpectAnswersMatchWrapper(cm, Microseconds(100));
  EXPECT_EQ(cm.NextArrival(0), kSimTimeNever);
  EXPECT_FALSE(cm.SourceExhausted(0));
  EXPECT_EQ(cm.PopSpan(0, Microseconds(100), 16).count, 5);
  ExpectAnswersMatchWrapper(cm, Microseconds(100));
  EXPECT_TRUE(cm.SourceExhausted(0));
  EXPECT_FALSE(cm.Backpressured(0));
}

DelayConfig InitialThenFast(double initial_ms, double mean_us) {
  DelayConfig d;
  d.kind = DelayKind::kInitial;
  d.initial_delay_ms = initial_ms;
  d.mean_us = mean_us;
  return d;
}

TEST(CommManagerRateChange, CooldownBoundaryIsNotSuppressed) {
  // now - last_signal_ == cooldown must NOT be suppressed: the gate is
  // strictly "elapsed < cooldown", so the boundary instant re-arms.
  CommConfig config;
  config.queue_capacity = 4096;
  config.rate_change_min_samples = 8;
  config.rate_change_cooldown = Milliseconds(10);
  CommManager manager(config);
  const Relation rel = MakeRelation(3000);
  // The 100 ms initial gap dominates the warm EWMA; the fast tail then
  // drags the live estimate far below the snapshot.
  auto w =
      std::make_unique<SimWrapper>(0, &rel, InitialThenFast(100.0, 10.0), 1);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  Tuple out[64];
  SimTime t = Milliseconds(100);
  while (!manager.EstimateWarm(0)) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  manager.MarkPlanned(t);
  const double ref = manager.EstimatedWaitNs(0);
  for (int i = 0; i < 40; ++i) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  ASSERT_LT(manager.EstimatedWaitNs(0), ref / config.rate_change_ratio);
  EXPECT_TRUE(manager.RateChangedSincePlan(t));  // ratio path fires
  const SimTime signal = t;
  // Fresh deliveries keep the deviation live through the cooldown window.
  t += Microseconds(100);
  manager.Pop(0, t, out, 64);
  EXPECT_FALSE(manager.RateChangedSincePlan(
      signal + config.rate_change_cooldown - 1));
  EXPECT_TRUE(
      manager.RateChangedSincePlan(signal + config.rate_change_cooldown));
}

TEST(CommManagerRateChange, WarmupPromotionBypassesCooldown) {
  // A source planned on its prior that has since warmed up must signal
  // immediately even inside another signal's cooldown window.
  CommConfig config;
  config.queue_capacity = 4096;
  config.rate_change_min_samples = 8;
  config.rate_change_cooldown = Seconds(1);
  CommManager manager(config);
  const Relation rel_a = MakeRelation(200, 0);
  const Relation rel_b = MakeRelation(200, 1);
  manager.AddSource(
      std::make_unique<SimWrapper>(0, &rel_a, ConstantDelay(10.0), 1),
      /*prior=*/10000.0);
  manager.AddSource(
      std::make_unique<SimWrapper>(1, &rel_b, ConstantDelay(500.0), 2),
      /*prior=*/500000.0);
  manager.MarkPlanned(0);  // both snapshots un-warm
  Tuple out[64];
  SimTime t = Microseconds(10 * 20);
  manager.Pop(0, t, out, 64);
  EXPECT_TRUE(manager.RateChangedSincePlan(t));  // source 0 warmed up
  manager.MarkPlanned(t);  // replan on the signal; source 1 still un-warm
  // Source 1 warms ~8 ms in, far inside the 1 s cooldown of the signal
  // above — the promotion fires regardless.
  t = Microseconds(500 * 20);
  manager.Pop(1, t, out, 64);
  ASSERT_TRUE(manager.EstimateWarm(1));
  EXPECT_TRUE(manager.RateChangedSincePlan(t));
  EXPECT_EQ(manager.rate_change_signals(), 2);
}

TEST(CommManagerRateChange, MemoizedFalseInvalidatedByNewDeliveries) {
  // A false verdict unlists every source it evaluated; new deliveries list
  // the source again and force re-evaluation.
  CommConfig config;
  config.queue_capacity = 4096;
  config.rate_change_min_samples = 8;
  config.rate_change_cooldown = 0;
  CommManager manager(config);
  const Relation rel = MakeRelation(3000);
  manager.AddSource(
      std::make_unique<SimWrapper>(0, &rel, InitialThenFast(100.0, 10.0), 1),
      /*prior=*/10000.0);
  Tuple out[64];
  SimTime t = Milliseconds(100);
  while (!manager.EstimateWarm(0)) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  manager.MarkPlanned(t);
  // No samples since the snapshot: full evaluation, false, memoized.
  EXPECT_FALSE(manager.RateChangedSincePlan(t));
  EXPECT_FALSE(manager.RateChangedSincePlan(t + Microseconds(1)));
  // The fast tail collapses the estimate well below snapshot / ratio.
  for (int i = 0; i < 40; ++i) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  EXPECT_TRUE(manager.RateChangedSincePlan(t));
  EXPECT_EQ(manager.rate_change_signals(), 1);
}

TEST(CommManagerRateChange, FiresOnGenuineSlowdown) {
  CommConfig config;
  config.queue_capacity = 1024;
  config.rate_change_min_samples = 32;
  config.rate_change_cooldown = 0;
  config.rate_change_ratio = 2.0;
  CommManager manager(config);
  const Relation rel = MakeRelation(5000);
  // Delivery at 100 us/tuple while the planning snapshot assumed 10 us.
  auto w = std::make_unique<SimWrapper>(0, &rel, ConstantDelay(100.0), 1);
  manager.AddSource(std::move(w), /*prior=*/10000.0);
  manager.MarkPlanned(0);
  const SimTime t = Microseconds(100.0 * 200);
  manager.PumpAll(t);
  EXPECT_TRUE(manager.RateChangedSincePlan(t));
  EXPECT_EQ(manager.rate_change_signals(), 1);
  // After re-planning (snapshot refresh) the signal clears.
  manager.MarkPlanned(t);
  EXPECT_FALSE(manager.RateChangedSincePlan(t + 1));
}

TEST(CommManagerRateChange, LowestFiringIdWinsOverDeliveryOrder) {
  // Two sources fire in the same evaluation; the higher id delivered both
  // first and last. The audit build's check inside RateChangedSincePlan
  // asserts that the candidate lists pick the lower id, as a scan in id
  // order would, on the warm-up path and on the ratio path alike.
  CommConfig config;
  config.queue_capacity = 4096;
  config.rate_change_min_samples = 8;
  config.rate_change_cooldown = 0;
  CommManager manager(config);
  const Relation rel_a = MakeRelation(3000, 0);
  const Relation rel_b = MakeRelation(3000, 1);
  manager.AddSource(
      std::make_unique<SimWrapper>(0, &rel_a, InitialThenFast(100.0, 10.0), 1),
      /*prior=*/10000.0);
  manager.AddSource(
      std::make_unique<SimWrapper>(1, &rel_b, InitialThenFast(100.0, 10.0), 2),
      /*prior=*/10000.0);
  manager.MarkPlanned(0);  // both snapshots un-warm
  Tuple out[64];
  SimTime t = Milliseconds(100);
  while (!manager.EstimateWarm(1)) {
    t += Microseconds(100);
    manager.Pop(1, t, out, 64);
  }
  while (!manager.EstimateWarm(0)) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  t += Microseconds(100);
  manager.Pop(1, t, out, 64);
  EXPECT_TRUE(manager.RateChangedSincePlan(t));  // both warmed up

  manager.MarkPlanned(t);
  const double ref0 = manager.EstimatedWaitNs(0);
  const double ref1 = manager.EstimatedWaitNs(1);
  for (int i = 0; i < 40; ++i) {
    t += Microseconds(100);
    manager.Pop(1, t, out, 64);
    manager.Pop(0, t, out, 64);
  }
  t += Microseconds(100);
  manager.Pop(1, t, out, 64);
  // The fast tails drag both estimates below snapshot / ratio.
  ASSERT_LT(manager.EstimatedWaitNs(0), ref0 / config.rate_change_ratio);
  ASSERT_LT(manager.EstimatedWaitNs(1), ref1 / config.rate_change_ratio);
  EXPECT_TRUE(manager.RateChangedSincePlan(t));
  EXPECT_EQ(manager.rate_change_signals(), 2);
}

TEST(CommManagerRateChange, DriftDeliveredInCooldownFiresAfterIt) {
  // A ratio drift that lands inside another signal's cooldown window is
  // suppressed, not forgotten: the first call after the window reports it
  // although nothing was delivered in between.
  CommConfig config;
  config.queue_capacity = 4096;
  config.rate_change_min_samples = 8;
  config.rate_change_cooldown = Milliseconds(10);
  CommManager manager(config);
  const Relation rel = MakeRelation(3000);
  manager.AddSource(
      std::make_unique<SimWrapper>(0, &rel, InitialThenFast(100.0, 10.0), 1),
      /*prior=*/10000.0);
  manager.MarkPlanned(0);  // planned on the prior
  Tuple out[64];
  SimTime t = Milliseconds(100);
  while (!manager.EstimateWarm(0)) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  EXPECT_TRUE(manager.RateChangedSincePlan(t));  // warm-up signal
  const SimTime signal = t;
  manager.MarkPlanned(t);  // the replan it triggers
  const double ref = manager.EstimatedWaitNs(0);
  for (int i = 0; i < 40; ++i) {
    t += Microseconds(100);
    manager.Pop(0, t, out, 64);
  }
  ASSERT_LT(t, signal + config.rate_change_cooldown);
  ASSERT_LT(manager.EstimatedWaitNs(0), ref / config.rate_change_ratio);
  EXPECT_FALSE(manager.RateChangedSincePlan(t));  // inside the window
  EXPECT_TRUE(
      manager.RateChangedSincePlan(signal + config.rate_change_cooldown));
  EXPECT_EQ(manager.rate_change_signals(), 2);
}

}  // namespace
}  // namespace dqsched

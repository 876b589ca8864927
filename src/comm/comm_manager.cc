#include "comm/comm_manager.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dqsched::comm {

namespace {

/// EWMA weight of every source's rate estimator.
constexpr double kEstimatorAlpha = 0.02;
/// A silent source is suspected down once its silence exceeds this
/// multiple of its estimated inter-arrival wait ...
constexpr double kSuspectWaitFactor = 64.0;
/// ... but never sooner than this floor (early estimates can sit on an
/// optimistic prior; see DESIGN.md §8).
constexpr SimDuration kSuspectSilenceFloor = Milliseconds(50);
/// A suspected source is declared dead once its silence exceeds this
/// multiple of the estimated wait ...
constexpr double kDeadWaitFactor = 256.0;
/// ... with its own, much larger, floor.
constexpr SimDuration kDeadSilenceFloor = Milliseconds(500);

}  // namespace

CommManager::CommManager(const CommConfig& config) : config_(config) {
  DQS_CHECK_MSG(config_.rate_change_ratio >= 1.0,
                "rate_change_ratio must be >= 1 (got %g)",
                config_.rate_change_ratio);
}

void CommManager::AddSource(std::unique_ptr<wrapper::SimWrapper> w,
                            double prior_wait_ns) {
  DQS_CHECK_MSG(w->id() == num_sources(),
                "sources must be added in id order (got %d, expected %d)",
                w->id(), num_sources());
  if (config_.serial_transport) w->set_serial_delivery(true);
  wrappers_.push_back(std::move(w));
  queues_.emplace_back(config_.queue_capacity);
  cursor_.push_back(0);
  auto est = std::make_unique<RateEstimator>(kEstimatorAlpha);
  est->SetPrior(prior_wait_ns);
  estimators_.push_back(std::move(est));
  snapshots_.push_back(PlanSnapshot{prior_wait_ns, 0});
  fault_state_.emplace_back();
  heap_key_.push_back(kSimTimeNever);
  exhausted_.push_back(0);
  ended_.push_back(0);
  liveness_key_.push_back(kSimTimeNever);
  source_version_.push_back(0);
  const size_t i = wrappers_.size() - 1;
  // The registration snapshot holds the raw prior, which the estimator
  // reports clamped to >= 1 ns: list the source until a check or a
  // snapshot settles it.
  for (SourceSet* list :
       {&warmup_candidates_, &ratio_candidates_, &stale_snapshots_}) {
    list->listed.push_back(0);
    list->Add(i);
  }
  // Empty relation: the stream closes without any push (previously done
  // lazily by the first pump).
  if (wrappers_[i]->Exhausted()) queues_[i].CloseProducer();
  SyncSource(i);
}

void CommManager::StartSource(SourceId source, SimTime now) {
  const size_t i = static_cast<size_t>(source);
  wrappers_[i]->Start(now);
  ++source_version_[i];
  // Silence is measured from admission, not query start, or a long-queued
  // query would join already suspected.
  fault_state_[i].last_arrival = now;
  SyncSource(i);
}

void CommManager::SyncSource(size_t i) {
  const wrapper::SimWrapper& w = *wrappers_[i];
  exhausted_[i] = w.Exhausted() ? 1 : 0;
  ended_[i] = w.Exhausted() || fault_state_[i].abandoned ? 1 : 0;
  const SimTime key = w.NextArrival();
  if (key != heap_key_[i]) {
    heap_key_[i] = key;
    if (key != kSimTimeNever) heap_.emplace(key, static_cast<int>(i));
  }
  if (config_.failure_detection) SyncLiveness(i);
}

void CommManager::SyncLiveness(size_t i) {
  const SimTime key = LivenessDeadline(i);
  if (key == liveness_key_[i]) return;
  liveness_key_[i] = key;
  if (key != kSimTimeNever) liveness_heap_.emplace(key, static_cast<int>(i));
}

void CommManager::PumpSource(size_t i, SimTime now) {
  auto& q = queues_[i];
  const int64_t before = q.total_pushed();
  const SimTime arrival_before = heap_key_[i];
  wrappers_[i]->PumpInto(q, now, estimators_[i].get());
  if (q.total_pushed() != before) OnDelivery(i);
  if (wrappers_[i]->has_faults()) {
    IngestReplayWindows(i);
    // A replayed duplicate run at the queue head will never be consumed,
    // so drop it as soon as it is delivered. Waiting for a consumer Pop
    // can deadlock: a producer suspended on a queue holding only
    // duplicates has nothing fresh to offer, so no consumer ever pops,
    // and the queue never drains. Discarding may free capacity, so keep
    // pumping while the producer has more to deliver right now.
    while (DiscardDupPrefix(i) && wrappers_[i]->Suspended()) {
      const int64_t b = q.total_pushed();
      wrappers_[i]->PumpInto(q, now, estimators_[i].get());
      if (q.total_pushed() == b) break;
      OnDelivery(i);
      IngestReplayWindows(i);
    }
  }
  SyncSource(i);
  // A pump can move NextArrival with zero deliveries — the window protocol
  // suspending the producer on a full queue flips it to kSimTimeNever.
  // Version-guarded arrival caches (SourceVersion's contract covers
  // NextArrival) must see that transition or they would keep stalling on
  // the stale pre-suspension arrival time forever.
  if (heap_key_[i] != arrival_before) ++source_version_[i];
}

void CommManager::PumpDue(SimTime now) {
  while (!heap_.empty() && heap_.top().first <= now) {
    const auto [key, i] = heap_.top();
    heap_.pop();
    if (key != heap_key_[static_cast<size_t>(i)]) continue;  // stale entry
    PumpSource(static_cast<size_t>(i), now);
  }
}

TupleSpan CommManager::PopSpan(SourceId source, SimTime now, int64_t max) {
  const size_t i = static_cast<size_t>(source);
  const wrapper::SimWrapper& w = *wrappers_[i];
  if (heap_key_[i] <= now) PumpSource(i, now);
  const int64_t n = fault_state_[i].windows.empty() ? queues_[i].Pop(max)
                                                    : PopDeduped(i, max);
  const TupleSpan span{w.relation().tuples.data() + cursor_[i], n};
  cursor_[i] += n;
  if (n > 0) ++source_version_[i];
  // Draining may unblock a suspended producer: its pending tuple enters at
  // the drain time.
  if (w.Suspended() || heap_key_[i] <= now) PumpSource(i, now);
  DQS_DCHECK_MSG(cursor_[i] + FreshInQueue(i) == FreshDelivered(i),
                 "source %d: cursor %lld + %lld fresh queued, but %lld fresh "
                 "delivered",
                 source, static_cast<long long>(cursor_[i]),
                 static_cast<long long>(FreshInQueue(i)),
                 static_cast<long long>(FreshDelivered(i)));
  return span;
}

int64_t CommManager::Pop(SourceId source, SimTime now, storage::Tuple* out,
                         int64_t max) {
  const TupleSpan span = PopSpan(source, now, max);
  std::copy_n(span.data, span.count, out);
  return span.count;
}

double CommManager::EstimatedWaitNs(SourceId source) const {
  return estimators_[static_cast<size_t>(source)]->MeanInterArrivalNs();
}

bool CommManager::EstimateWarm(SourceId source) const {
  return estimators_[static_cast<size_t>(source)]->warm();
}

int64_t CommManager::RemainingTuples(SourceId source) const {
  const size_t i = static_cast<size_t>(source);
  // An abandoned wrapper's remainder will never arrive; what's left for
  // the scheduler's n_p is only the fresh queued tail. (A merely dead
  // source still counts its remainder: the mediator doesn't know yet.)
  const int64_t upstream =
      fault_state_[i].abandoned ? 0 : wrappers_[i]->remaining();
  return upstream + FreshInQueue(i);
}

void CommManager::MarkPlanned(SimTime) {
  // A source that has not delivered since its snapshot still matches it.
  for (const int s : stale_snapshots_.sources) {
    const auto i = static_cast<size_t>(s);
    snapshots_[i].wait_ns = estimators_[i]->MeanInterArrivalNs();
    snapshots_[i].samples = estimators_[i]->samples();
    snapshots_[i].warm = estimators_[i]->warm();
  }
  stale_snapshots_.Clear();
  // Every source now matches its snapshot, so none can fire (warm equals
  // the snapshot's, no samples since it, and a ratio >= 1 holds the equal
  // estimate inside the band) until it delivers again.
  warmup_candidates_.Clear();
  ratio_candidates_.Clear();
}

bool CommManager::WarmupFires(size_t i) const {
  // A source planned on its prior has since produced real observations:
  // the plan's estimates are stale by construction.
  return !wrappers_[i]->Exhausted() && !snapshots_[i].warm &&
         estimators_[i]->warm();
}

bool CommManager::RatioFires(size_t i) const {
  const RateEstimator& est = *estimators_[i];
  if (wrappers_[i]->Exhausted()) return false;
  if (est.samples() - snapshots_[i].samples <
      config_.rate_change_min_samples) {
    return false;
  }
  const double ref = snapshots_[i].wait_ns;
  const double cur = est.MeanInterArrivalNs();
  return cur > ref * config_.rate_change_ratio ||
         cur < ref / config_.rate_change_ratio;
}

bool CommManager::InCooldown(SimTime now) const {
  return last_signal_ >= 0 && now - last_signal_ < config_.rate_change_cooldown;
}

bool CommManager::RateChangeAmongCandidates(SimTime now) {
  // Both predicates read only the source's estimator, its snapshot, and
  // Exhausted (which never reverts). A source that evaluated false
  // therefore stays false until it delivers or a snapshot is taken, so
  // each list holds every source that could fire (OnDelivery lists a
  // source only where its predicate can hold), and the lowest firing id
  // is the one a scan over all sources would pick.
  //
  // Warm-up transitions are exempt from the cooldown: each fires at most
  // once per source, and deferring them would delay the scheduler's first
  // informed degradation decisions.
  SourceId fired = warmup_candidates_.KeepIf(
      [this](size_t i) { return WarmupFires(i); });
  // A call suppressed by the cooldown leaves the ratio list alone.
  if (fired == kInvalidId && !InCooldown(now)) {
    fired = ratio_candidates_.KeepIf(
        [this](size_t i) { return RatioFires(i); });
  }
  DQS_DCHECK_MSG(fired == ScanRateChangeSource(now),
                 "rate-change candidates picked source %d, the scan %d",
                 fired, ScanRateChangeSource(now));
  if (fired == kInvalidId) return false;
  last_signal_ = now;
  ++rate_change_signals_;
  return true;
}

SourceId CommManager::ScanRateChangeSource(SimTime now) const {
  for (size_t i = 0; i < estimators_.size(); ++i) {
    if (WarmupFires(i)) return static_cast<SourceId>(i);
  }
  if (InCooldown(now)) return kInvalidId;
  for (size_t i = 0; i < estimators_.size(); ++i) {
    if (RatioFires(i)) return static_cast<SourceId>(i);
  }
  return kInvalidId;
}

void CommManager::OnDelivery(size_t i) {
  ++source_version_[i];
  // Both rate-change predicates change only at a delivery or a snapshot
  // (see RateChangeAmongCandidates), and a snapshot empties the lists.
  // So list the source only if a predicate can hold before its next
  // delivery: warm-up while its snapshot is cold, the ratio check if it
  // fires now.
  if (!snapshots_[i].warm) warmup_candidates_.Add(i);
  if (RatioFires(i)) ratio_candidates_.Add(i);
  stale_snapshots_.Add(i);
  if (!config_.failure_detection) return;
  SourceFaultState& fs = fault_state_[i];
  // The wrapper's finished_at is the virtual arrival timestamp of its last
  // delivered tuple — precise, and independent of when the pump ran.
  fs.last_arrival = wrappers_[i]->stats().finished_at;
  if (fs.health != Health::kHealthy && !fs.abandoned) {
    fs.health = Health::kHealthy;
    ++recoveries_;
    ++source_version_[i];  // SourceSuspected flipped
    fault_signals_.push_back(FaultSignal{FaultSignal::Kind::kRecovered,
                                         static_cast<SourceId>(i)});
  }
}

void CommManager::IngestReplayWindows(size_t i) {
  const std::vector<wrapper::ReplayWindow>& ws =
      wrappers_[i]->replay_windows();
  SourceFaultState& fs = fault_state_[i];
  while (fs.windows_ingested < ws.size()) {
    fs.windows.push_back(ws[fs.windows_ingested]);
    ++fs.windows_ingested;
  }
}

int64_t CommManager::PopDeduped(size_t i, int64_t max) {
  TupleQueue& q = queues_[i];
  SourceFaultState& fs = fault_state_[i];
  // Fresh tuples between duplicate runs are consecutive relation indices,
  // so a pop that straddles a discarded window is still one span.
  int64_t produced = 0;
  while (produced < max) {
    DiscardDupPrefix(i);
    if (q.Empty()) break;
    // Fresh tuples up to the next pending window (or the whole queue).
    int64_t want = max - produced;
    if (!fs.windows.empty()) {
      want = std::min(want, fs.windows.front().begin - q.total_popped());
    }
    const int64_t got = q.Pop(want);
    if (got == 0) break;
    produced += got;
  }
  return produced;
}

bool CommManager::DiscardDupPrefix(size_t i) {
  TupleQueue& q = queues_[i];
  SourceFaultState& fs = fault_state_[i];
  bool discarded = false;
  for (;;) {
    // Prune windows that are entirely behind the pop cursor.
    while (!fs.windows.empty() && fs.windows.front().end <= q.total_popped()) {
      fs.windows.erase(fs.windows.begin());
    }
    if (fs.windows.empty() || q.Empty()) break;
    const int64_t pos = q.total_popped();
    if (pos < fs.windows.front().begin) break;
    // The head of the queue is a run of replayed duplicates: pop them
    // without moving the cursor. Discards never count as consumed tuples.
    const int64_t got =
        q.Pop(std::min(fs.windows.front().end - pos, q.size()));
    fs.replay_discarded += got;
    replay_discarded_total_ += got;
    if (got > 0) ++source_version_[i];
    discarded = true;
  }
  return discarded;
}

int64_t CommManager::FreshInWindowedQueue(size_t i) const {
  const TupleQueue& q = queues_[i];
  int64_t fresh = q.size();
  for (const wrapper::ReplayWindow& w : fault_state_[i].windows) {
    const int64_t b = std::max(w.begin, q.total_popped());
    const int64_t e = std::min(w.end, q.total_pushed());
    if (e > b) fresh -= e - b;
  }
  return fresh;
}

int64_t CommManager::FreshDelivered(size_t i) const {
  const int64_t delivered = wrappers_[i]->stats().tuples_delivered;
  int64_t fresh = delivered;
  for (const wrapper::ReplayWindow& w : wrappers_[i]->replay_windows()) {
    fresh -= std::max<int64_t>(0, std::min(w.end, delivered) - w.begin);
  }
  return fresh;
}

SimDuration CommManager::SuspectTimeout(size_t i) const {
  const auto scaled = static_cast<SimDuration>(
      kSuspectWaitFactor * estimators_[i]->MeanInterArrivalNs());
  return std::max(scaled, kSuspectSilenceFloor);
}

SimDuration CommManager::DeadTimeout(size_t i) const {
  const auto scaled = static_cast<SimDuration>(
      kDeadWaitFactor * estimators_[i]->MeanInterArrivalNs());
  return std::max(scaled, kDeadSilenceFloor);
}

bool CommManager::WatchedForLiveness(size_t i) const {
  const SourceFaultState& fs = fault_state_[i];
  if (fs.abandoned || fs.health == Health::kDead) return false;
  // A suspended wrapper is silent because of mediator backpressure, not a
  // fault, and an exhausted one is done; neither is watched. A held one
  // is (DESIGN.md §8).
  return !wrappers_[i]->Exhausted() && !wrappers_[i]->Suspended();
}

SimTime CommManager::LivenessDeadline(size_t i) const {
  if (!WatchedForLiveness(i)) return kSimTimeNever;
  const SourceFaultState& fs = fault_state_[i];
  return fs.last_arrival + (fs.health == Health::kHealthy ? SuspectTimeout(i)
                                                          : DeadTimeout(i));
}

void CommManager::AdvanceLiveness(size_t i, SimTime now) {
  SourceFaultState& fs = fault_state_[i];
  const SimDuration silence = now - fs.last_arrival;
  if (fs.health == Health::kHealthy && silence >= SuspectTimeout(i)) {
    fs.health = Health::kSuspected;
    ++suspicions_;
    ++source_version_[i];
    fault_signals_.push_back(
        FaultSignal{FaultSignal::Kind::kDown, static_cast<SourceId>(i)});
  }
  if (fs.health == Health::kSuspected && silence >= DeadTimeout(i)) {
    fs.health = Health::kDead;
    ++declared_dead_;
    ++source_version_[i];
    fault_signals_.push_back(
        FaultSignal{FaultSignal::Kind::kDead, static_cast<SourceId>(i)});
  }
}

void CommManager::UpdateFaultState(SimTime now) {
  if (!config_.failure_detection) return;
  // Every input of a source's deadline changes only where SyncSource runs
  // or a transition below happens, so the heap's due entries are exactly
  // the sources a scan would transition. Consuming an entry clears its
  // live key, which also skips any duplicate entry with the same key.
  due_.clear();
  while (!liveness_heap_.empty() && liveness_heap_.top().first <= now) {
    const auto [key, i] = liveness_heap_.top();
    liveness_heap_.pop();
    if (key != liveness_key_[static_cast<size_t>(i)]) continue;  // stale
    liveness_key_[static_cast<size_t>(i)] = kSimTimeNever;
    due_.push_back(i);
  }
  // Signals go out in the scan's source-id order.
  std::sort(due_.begin(), due_.end());
  DQS_DCHECK_MSG(due_ == ScanDueSources(now),
                 "liveness heap found %zu due sources, the scan %zu",
                 due_.size(), ScanDueSources(now).size());
  for (const int i : due_) {
    AdvanceLiveness(static_cast<size_t>(i), now);
    SyncLiveness(static_cast<size_t>(i));
  }
}

std::vector<int> CommManager::ScanDueSources(SimTime now) const {
  std::vector<int> due;
  for (size_t i = 0; i < wrappers_.size(); ++i) {
    if (!WatchedForLiveness(i)) continue;
    const SourceFaultState& fs = fault_state_[i];
    const SimDuration silence = now - fs.last_arrival;
    if (silence >= (fs.health == Health::kHealthy ? SuspectTimeout(i)
                                                  : DeadTimeout(i))) {
      due.push_back(static_cast<int>(i));
    }
  }
  return due;
}

bool CommManager::TakeFaultSignal(FaultSignal* out) {
  if (fault_signals_.empty()) return false;
  *out = fault_signals_.front();
  fault_signals_.pop_front();
  return true;
}

SimTime CommManager::NextFaultDeadline(SimTime now) {
  if (!config_.failure_detection) return kSimTimeNever;
  while (!liveness_heap_.empty() &&
         liveness_heap_.top().first !=
             liveness_key_[static_cast<size_t>(liveness_heap_.top().second)]) {
    liveness_heap_.pop();  // stale
  }
  // A threshold already crossed fires on the very next detector run.
  const SimTime next = liveness_heap_.empty()
                           ? kSimTimeNever
                           : std::max(liveness_heap_.top().first, now + 1);
  DQS_DCHECK_MSG(next == ScanFaultDeadline(now),
                 "liveness heap deadline %lld, the scan %lld",
                 static_cast<long long>(next),
                 static_cast<long long>(ScanFaultDeadline(now)));
  return next;
}

SimTime CommManager::ScanFaultDeadline(SimTime now) const {
  SimTime next = kSimTimeNever;
  for (size_t i = 0; i < wrappers_.size(); ++i) {
    if (!WatchedForLiveness(i)) continue;
    const SourceFaultState& fs = fault_state_[i];
    SimTime t = fs.health == Health::kHealthy
                    ? fs.last_arrival + SuspectTimeout(i)
                    : fs.last_arrival + DeadTimeout(i);
    // A threshold already crossed fires on the very next detector run.
    if (t <= now) t = now + 1;
    next = std::min(next, t);
  }
  return next;
}

bool CommManager::SourceSuspected(SourceId source) const {
  return fault_state_[static_cast<size_t>(source)].health != Health::kHealthy;
}

bool CommManager::SourceDead(SourceId source) const {
  return fault_state_[static_cast<size_t>(source)].health == Health::kDead;
}

void CommManager::AbandonSource(SourceId source) {
  const size_t i = static_cast<size_t>(source);
  DQS_CHECK_MSG(fault_state_[i].health == Health::kDead,
                "abandoning source %d, which is not declared dead", source);
  CloseSource(source);
}

void CommManager::CloseSource(SourceId source) {
  const size_t i = static_cast<size_t>(source);
  SourceFaultState& fs = fault_state_[i];
  if (fs.abandoned) return;
  fs.abandoned = true;
  wrappers_[i]->Abandon();
  if (!queues_[i].producer_closed()) queues_[i].CloseProducer();
  SyncSource(i);  // NextArrival is now kSimTimeNever; liveness unwatched
  ++source_version_[i];
}

int64_t CommManager::ReplayDiscarded(SourceId source) const {
  return fault_state_[static_cast<size_t>(source)].replay_discarded;
}

void CommManager::InstallFaultSchedule(SourceId source,
                                       wrapper::FaultSchedule schedule,
                                       uint64_t seed) {
  const size_t i = static_cast<size_t>(source);
  wrappers_[i]->SetFaultSchedule(std::move(schedule), seed);
  // The schedule cannot change the first arrival (faults key off tuple
  // indices, and a held wrapper has not produced tuple 0 yet), but keep
  // the heap honest anyway.
  SyncSource(i);
}

}  // namespace dqsched::comm

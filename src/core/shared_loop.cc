#include "core/shared_loop.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dqsched::core {

SharedQueryLoop::SharedQueryLoop(exec::ExecContext* ctx, Options options)
    : ctx_(ctx), options_(std::move(options)) {
  DQS_CHECK(ctx_ != nullptr);
  DQS_CHECK(options_.strategy != StrategyKind::kMa);
  DQS_CHECK(options_.slice_batches > 0);
}

int SharedQueryLoop::AddQuery(const SharedQueryDesc& desc) {
  DQS_CHECK(desc.compiled != nullptr);
  DQS_CHECK(desc.source_lo <= desc.source_hi);
  const int q = num_queries();
  auto run = std::make_unique<QueryRun>();
  run->desc = desc;
  run->result = std::make_unique<exec::ResultCollector>();
  ExecutionOptions exec_options = OptionsFor(options_.strategy);
  exec_options.result_override = run->result.get();
  exec_options.shared_context = true;
  exec_options.kernels = options_.kernels;
  exec_options.cache = options_.cache;
  run->state =
      std::make_unique<ExecutionState>(desc.compiled, ctx_, exec_options);
  run->dqs = std::make_unique<Dqs>(options_.config.dqs);
  DqpConfig dqp_config = options_.config.dqp;
  dqp_config.slice_batches = options_.slice_batches;
  dqp_config.yield_on_starvation = true;
  dqp_config.deadline = desc.deadline;
  run->dqp = std::make_unique<Dqp>(dqp_config);
  run->dqo = std::make_unique<Dqo>();
  if (options_.strategy == StrategyKind::kSeq && !desc.resolved) {
    run->seq_order = desc.compiled->IteratorModelOrder();
  }
  runs_.push_back(std::move(run));

  if (source_owner_.size() < static_cast<size_t>(desc.source_hi)) {
    source_owner_.resize(static_cast<size_t>(desc.source_hi), -1);
  }
  for (SourceId s = desc.source_lo; s < desc.source_hi; ++s) {
    source_owner_[static_cast<size_t>(s)] = q;
  }

  arrival_key_.push_back(kSimTimeNever);
  ring_next_.push_back(q);
  if (desc.resolved) {
    // Whole-query result-cache hit: the slot joins already done, with the
    // cached digest adopted. It never enters the rotation — its sources
    // stay untouched and cost the loop nothing.
    QueryRun& done_run = *runs_.back();
    done_run.result->AdoptCached(desc.resolved_count,
                                 desc.resolved_checksum);
    done_run.done = true;
    done_run.done_at = ctx_->clock.now();
    ring_next_[static_cast<size_t>(q)] = q;
    return q;
  }
  if (active_ == 0) {
    // First (or first-after-drain) query: a self-loop it alone occupies.
    ring_next_[static_cast<size_t>(q)] = q;
    ring_tail_ = q;
    ring_prev_ = q;
  } else {
    // Splice behind the tail. When the next visit was due at the ring
    // head (ring_prev_ == tail), keep it there: an all-upfront batch is
    // then visited exactly in registration order 0, 1, ..., N-1.
    ring_next_[static_cast<size_t>(q)] =
        ring_next_[static_cast<size_t>(ring_tail_)];
    ring_next_[static_cast<size_t>(ring_tail_)] = q;
    if (ring_prev_ == ring_tail_) ring_prev_ = q;
    ring_tail_ = q;
  }
  ++active_;
  return q;
}

Status SharedQueryLoop::BuildPlan(QueryRun& run) {
  if (options_.strategy == StrategyKind::kDse) {
    Result<SchedulingPlan> sp = run.dqs->ComputePlan(*run.state, *ctx_,
                                                     *run.dqo);
    if (!sp.ok()) return sp.status();
    run.sp = std::move(sp.value());
    return Status::Ok();
  }
  // kSeq: the current chain of the iterator order, alone.
  while (run.seq_cursor < run.seq_order.size() &&
         run.state->ChainDone(run.seq_order[run.seq_cursor])) {
    ++run.seq_cursor;
  }
  DQS_CHECK(run.seq_cursor < run.seq_order.size());
  run.sp = SchedulingPlan{};
  run.sp.fragments.push_back(
      run.state->ChainFragment(run.seq_order[run.seq_cursor]));
  run.sp.critical_ns.push_back(0.0);
  return Status::Ok();
}

uint64_t SharedQueryLoop::QueryEpoch(const QueryRun& run) const {
  // Any mutation that can move the query's earliest arrival bumps one of
  // these monotone counters, so an unchanged sum proves the cached
  // minimum still holds.
  uint64_t e = run.state->structural_version();
  for (SourceId s = run.desc.source_lo; s < run.desc.source_hi; ++s) {
    e += ctx_->comm.SourceVersion(s);
  }
  return e;
}

SimTime SharedQueryLoop::EarliestArrival() {
  // Per-query minima come from the arrival cache; only queries whose
  // epoch drifted (or whose minimum is time-dependent) rescan their
  // fragments.
  for (int qi = 0; qi < num_queries(); ++qi) {
    QueryRun& other = *runs_[static_cast<size_t>(qi)];
    if (other.done) continue;
    const uint64_t epoch = QueryEpoch(other);
    if (other.arrival_valid && !other.arrival_volatile &&
        other.arrival_epoch == epoch) {
      continue;
    }
    SimTime q_min = kSimTimeNever;
    bool is_volatile = false;
    const ExecutionState& state = *other.state;
    for (int f = 0; f < state.num_fragments(); ++f) {
      if (!state.FragmentActive(f)) continue;
      const exec::FragmentRuntime& rt = state.fragment(f);
      q_min = std::min(q_min, rt.NextArrival(*ctx_));
      is_volatile = is_volatile || rt.TimeDependentArrival();
    }
    other.arrival_min = q_min;
    other.arrival_epoch = epoch;
    other.arrival_valid = true;
    other.arrival_volatile = is_volatile;
    arrival_key_[static_cast<size_t>(qi)] = q_min;
    if (q_min != kSimTimeNever) arrival_heap_.push({q_min, qi});
  }
  while (!arrival_heap_.empty()) {
    const auto [at, qi] = arrival_heap_.top();
    if (runs_[static_cast<size_t>(qi)]->done ||
        arrival_key_[static_cast<size_t>(qi)] != at) {
      arrival_heap_.pop();  // stale entry, a newer key superseded it
      continue;
    }
    return at;
  }
  return kSimTimeNever;
}

Result<SharedQueryLoop::Turn> SharedQueryLoop::Step() {
  if (active_ == 0) {
    Turn idle;
    idle.kind = Turn::Kind::kIdle;
    return idle;
  }
  DQS_CHECK_MSG(++guard_ < (1LL << 40), "multi-query livelock");
  // Retire slots cancelled between turns: CancelQuery marks them done but
  // cannot unlink from a singly-linked ring without the predecessor.
  int cur = ring_next_[static_cast<size_t>(ring_prev_)];
  while (runs_[static_cast<size_t>(cur)]->done) {
    ring_next_[static_cast<size_t>(ring_prev_)] =
        ring_next_[static_cast<size_t>(cur)];
    if (ring_tail_ == cur) ring_tail_ = ring_prev_;
    cur = ring_next_[static_cast<size_t>(ring_prev_)];
  }
  QueryRun& run = *runs_[static_cast<size_t>(cur)];

  if (run.need_replan) {
    DQS_RETURN_IF_ERROR(BuildPlan(run));
    run.need_replan = false;
  }
  Result<Event> evt = run.dqp->RunPhase(*run.state, run.sp, *ctx_);
  if (!evt.ok()) return evt.status();
  Turn turn;
  if (evt->kind != EventKind::kStarved) starved_streak_ = 0;
  switch (evt->kind) {
    case EventKind::kEndOfQf:
      run.state->OnFragmentFinished(evt->fragment, *ctx_);
      run.need_replan = true;
      if (run.state->QueryDone()) {
        run.done = true;
        run.done_at = ctx_->clock.now();
        --active_;
        turn.kind = Turn::Kind::kQueryDone;
        turn.query = cur;
      }
      break;
    case EventKind::kRateChange:
      ++run.rate_change_events;
      // DSE refreshes the snapshot inside ComputePlan; SEQ has no
      // planning phase, so acknowledge the new estimates here or the
      // same signal fires forever.
      if (options_.strategy == StrategyKind::kSeq) {
        ctx_->comm.MarkPlanned(ctx_->clock.now());
      }
      if (options_.targeted_replans) {
        // Route the replan to the query subscribed to the drifting
        // source rather than the one that happened to observe the
        // signal. Unattributable or orphaned signals fall back to the
        // observer so the estimate snapshot is always re-acknowledged.
        const SourceId src = ctx_->comm.LastRateChangeSource();
        const int owner =
            src == kInvalidId ? -1 : source_owner_[static_cast<size_t>(src)];
        if (owner >= 0 && !runs_[static_cast<size_t>(owner)]->done) {
          runs_[static_cast<size_t>(owner)]->need_replan = true;
        } else {
          run.need_replan = true;
        }
      } else {
        run.need_replan = true;
      }
      break;
    case EventKind::kTimeout:
      ++run.timeouts;
      run.need_replan = true;
      break;
    case EventKind::kPlanExhausted:
      run.need_replan = true;
      break;
    case EventKind::kMemoryOverflow:
      DQS_RETURN_IF_ERROR(run.dqo->HandleMemoryOverflow(
          *run.state, *ctx_, run.state->FragmentChain(evt->fragment)));
      run.need_replan = true;
      break;
    case EventKind::kSourceDown:
      run.need_replan = true;
      if (options_.surface_lifecycle) {
        turn.kind = ctx_->comm.SourceDead(evt->source)
                        ? Turn::Kind::kSourceDead
                        : Turn::Kind::kSourceSuspected;
        turn.source = evt->source;
        turn.query = SourceOwner(evt->source);
        break;
      }
      if (ctx_->comm.SourceDead(evt->source)) {
        return Status::Unavailable("source " + std::to_string(evt->source) +
                                   " declared dead in multi-query mix");
      }
      break;
    case EventKind::kSourceRecovered:
      run.need_replan = true;
      if (options_.surface_lifecycle) {
        turn.kind = Turn::Kind::kSourceRecovered;
        turn.source = evt->source;
        turn.query = SourceOwner(evt->source);
      }
      break;
    case EventKind::kDeadlineExceeded:
      if (options_.surface_lifecycle) {
        turn.kind = Turn::Kind::kQueryDeadline;
        turn.query = cur;
        break;
      }
      return Status::DeadlineExceeded(
          "query deadline expired in multi-query mix");
    case EventKind::kSliceEnd:
      break;  // keep the plan, yield the CPU
    case EventKind::kStarved:
      run.need_replan = true;
      if (++starved_streak_ >= active_) {
        // Every active query starves: report the earliest arrival any of
        // them waits for; the caller advances the shared clock (or caps
        // the stall at its own next event).
        turn.kind = Turn::Kind::kAllStarved;
        turn.stall_until = EarliestArrival();
        starved_streak_ = 0;
      }
      break;
  }

  if (run.done) {
    ring_next_[static_cast<size_t>(ring_prev_)] =
        ring_next_[static_cast<size_t>(cur)];
    if (ring_tail_ == cur) ring_tail_ = ring_prev_;
  } else {
    ring_prev_ = cur;
  }
  return turn;
}

void SharedQueryLoop::CancelQuery(int query) {
  QueryRun& run = *runs_[static_cast<size_t>(query)];
  DQS_CHECK_MSG(!run.done, "cancel of finished query %d", query);
  run.state->Cancel(*ctx_);
  // Quiesce the query's wrappers: nobody will drain those queues again.
  for (SourceId s = run.desc.source_lo; s < run.desc.source_hi; ++s) {
    ctx_->comm.CloseSource(s);
  }
  run.done = true;
  run.done_at = ctx_->clock.now();
  --active_;
  // The ring unlink happens lazily at the top of the next Step.
}

ExecutionMetrics SharedQueryLoop::QueryMetrics(int query) const {
  const QueryRun& run = *runs_[static_cast<size_t>(query)];
  ExecutionMetrics m;
  m.result_count = run.result->count();
  m.result_checksum = run.result->checksum().value();
  m.planning_phases = run.dqs->planning_phases();
  m.planning_host_seconds = run.dqs->planning_host_seconds();
  m.execution_phases = run.dqp->execution_phases();
  m.degradations = run.state->degradations();
  m.cf_activations = run.state->cf_activations();
  m.dqo_splits = run.state->dqo_splits();
  m.operand_spills = run.dqo->spills();
  m.timeouts = run.timeouts;
  m.rate_change_events = run.rate_change_events;
  // Per-query cache attribution: chains this query served from cached
  // segments, and whether the whole query was a result hit. Admission and
  // miss counters live on the shard aggregate (the driver's CacheStats).
  m.cache.segment_hits = run.state->cache_bound();
  m.cache.result_hits = run.desc.resolved ? 1 : 0;
  return m;
}

}  // namespace dqsched::core

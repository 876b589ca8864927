#include "core/dqp.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"

namespace dqsched::core {

Result<Event> Dqp::RunPhase(ExecutionState& state, const SchedulingPlan& sp,
                            exec::ExecContext& ctx) {
  ++execution_phases_;
  SimDuration stalled_this_phase = 0;
  int64_t batches_this_phase = 0;
  const size_t n = sp.fragments.size();

  // The active set is constant within a phase (degradation, CF activation,
  // DQO splits and fragment completion all return to the scheduler), so
  // resolve each scheduled fragment's runtime once; a null slot marks an
  // inactive fragment. The selection passes below must keep their exact
  // per-iteration call sequence: Available() on temp-backed sources issues
  // charged disk reads that advance the virtual clock, so pass order and
  // short-circuiting are observable in the simulated metrics.
  frags_.assign(n, nullptr);
  bool any_active = false;
  for (size_t k = 0; k < n; ++k) {
    if (state.FragmentActive(sp.fragments[k])) {
      frags_[k] = &state.fragment(sp.fragments[k]);
      any_active = true;
    }
  }

  for (;;) {
    ctx.Pump();

    // Abnormal interruption: the query's virtual-time budget expired.
    if (config_.deadline > 0 && ctx.clock.now() >= config_.deadline) {
      if (state.trace().enabled()) {
        state.trace().Record(ctx.clock.now(), TraceEventKind::kDeadline, -1,
                             "query deadline expired");
      }
      return Event{EventKind::kDeadlineExceeded, -1};
    }

    // Abnormal interruption: a liveness transition from the failure
    // detector (armed only for fault-injection runs).
    if (ctx.comm.failure_detection()) {
      ctx.comm.UpdateFaultState(ctx.clock.now());
      comm::FaultSignal sig;
      if (ctx.comm.TakeFaultSignal(&sig)) {
        const bool down = sig.kind != comm::FaultSignal::Kind::kRecovered;
        if (state.trace().enabled()) {
          state.trace().Record(
              ctx.clock.now(),
              down ? TraceEventKind::kSourceDown
                   : TraceEventKind::kSourceRecovered,
              -1,
              "source " + std::to_string(sig.source) +
                  (sig.kind == comm::FaultSignal::Kind::kDead
                       ? " declared dead"
                       : (down ? " suspected down" : " recovered")));
        }
        Event evt{down ? EventKind::kSourceDown : EventKind::kSourceRecovered,
                  -1};
        evt.source = sig.source;
        return evt;
      }
    }

    // Abnormal interruption: delivery rates drifted from the planning
    // snapshot; the scheduling plan may be stale.
    if (ctx.comm.RateChangedSincePlan(ctx.clock.now())) {
      if (state.trace().enabled()) {
        state.trace().Record(ctx.clock.now(), TraceEventKind::kRateChange,
                             -1, "delivery-rate estimates drifted");
      }
      return Event{EventKind::kRateChange, -1};
    }

    // Normal interruption: a fragment's input is exhausted and drained.
    for (size_t k = 0; k < n; ++k) {
      exec::FragmentRuntime* frag = frags_[k];
      if (frag != nullptr && frag->Finished(ctx) && frag->Available(ctx) == 0) {
        return Event{EventKind::kEndOfQf, sp.fragments[k]};
      }
    }
    if (!any_active) return Event{EventKind::kPlanExhausted, -1};

    // Pick a fragment. Two disciplines alternate batch-by-batch:
    //  * priority: highest-priority fragment with a full batch (or a
    //    stream that will never grow) — the paper's rule;
    //  * backpressure relief: a wrapper suspended on a full queue has its
    //    relation's total retrieval time stretched for every moment it
    //    stays suspended, so throttled streams (in priority order) get
    //    every other turn when the CPU is oversubscribed.
    // Fallback: any fragment with data. With round_robin (MA phase 1) the
    // priority discipline rotates instead.
    int chosen = -1;
    exec::FragmentRuntime* chosen_frag = nullptr;
    const bool relief_turn = (batches_ & 1) != 0;
    if (relief_turn) {
      for (size_t k = 0; k < n && chosen < 0; ++k) {
        exec::FragmentRuntime* frag = frags_[k];
        if (frag == nullptr) continue;
        if (frag->Backpressured(ctx) && frag->Available(ctx) > 0) {
          chosen = sp.fragments[k];
          chosen_frag = frag;
        }
      }
    }
    for (size_t k = 0; k < n && chosen < 0; ++k) {
      const size_t slot = config_.round_robin ? (rr_cursor_ + k) % n : k;
      exec::FragmentRuntime* frag = frags_[slot];
      if (frag == nullptr) continue;
      const int64_t avail = frag->Available(ctx);
      if (avail <= 0) continue;
      if (avail >= config_.batch_size ||
          frag->NextArrival(ctx) == kSimTimeNever) {
        chosen = sp.fragments[slot];
        chosen_frag = frag;
        if (config_.round_robin) rr_cursor_ = static_cast<int>(slot + 1);
      }
    }
    for (size_t k = 0; k < n && chosen < 0; ++k) {
      exec::FragmentRuntime* frag = frags_[k];
      if (frag == nullptr) continue;
      if (frag->Backpressured(ctx) && frag->Available(ctx) > 0) {
        chosen = sp.fragments[k];
        chosen_frag = frag;
      }
    }
    for (size_t k = 0; k < n && chosen < 0; ++k) {
      exec::FragmentRuntime* frag = frags_[k];
      if (frag == nullptr) continue;
      if (frag->Available(ctx) > 0) {
        chosen = sp.fragments[k];
        chosen_frag = frag;
      }
    }

    if (chosen >= 0) {
      exec::FragmentRuntime& frag = *chosen_frag;
      Result<int64_t> consumed = frag.ProcessBatch(ctx, config_.batch_size);
      if (!consumed.ok()) {
        if (consumed.status().code() == StatusCode::kResourceExhausted) {
          // M-schedulability violated at open: hand to the DQO.
          if (state.trace().enabled()) {
            state.trace().Record(ctx.clock.now(),
                                 TraceEventKind::kMemoryOverflow, chosen,
                                 frag.name() + ": " +
                                     consumed.status().message());
          }
          return Event{EventKind::kMemoryOverflow, chosen};
        }
        return consumed.status();
      }
      ++batches_;
      stalled_this_phase = 0;  // the timeout measures *consecutive* starvation
      state.trace().RecordBatch(ctx.clock.now(), chosen, consumed.value());
      if (frag.Finished(ctx)) {
        if (state.trace().enabled()) {
          state.trace().Record(ctx.clock.now(), TraceEventKind::kEndOfQf,
                               chosen, frag.name() + " finished");
        }
        return Event{EventKind::kEndOfQf, chosen};
      }
      if (config_.slice_batches > 0 &&
          ++batches_this_phase >= config_.slice_batches) {
        return Event{EventKind::kSliceEnd, -1};
      }
      continue;
    }

    // Everything starved. In multi-query mode, yield: another query may
    // have work, and only the driver can see across queries.
    if (config_.yield_on_starvation) return Event{EventKind::kStarved, -1};
    // Stall until the earliest possible arrival of any scheduled fragment
    // ("the DQP is stalled only if there is no available data for all the
    // fragments that are scheduled").
    SimTime next = kSimTimeNever;
    for (size_t k = 0; k < n; ++k) {
      if (frags_[k] == nullptr) continue;
      next = std::min(next, frags_[k]->NextArrival(ctx));
    }
    // A silent (possibly failed) source never schedules an arrival, so the
    // detector's thresholds bound the stall: the clock must reach them for
    // suspicion/death to be declared. Same for the query deadline.
    if (ctx.comm.failure_detection()) {
      next = std::min(next, ctx.comm.NextFaultDeadline(ctx.clock.now()));
    }
    if (config_.deadline > 0) next = std::min(next, config_.deadline);
    if (next == kSimTimeNever) {
      // No arrival will ever come, yet nothing was finished above: the
      // plan cannot make progress — let the scheduler revise it.
      return Event{EventKind::kPlanExhausted, -1};
    }
    DQS_CHECK_MSG(next > ctx.clock.now(),
                  "stall target not in the future (deadlock?)");
    const SimDuration wait = next - ctx.clock.now();
    if (stalled_this_phase + wait > config_.stall_timeout) {
      ctx.clock.StallUntil(ctx.clock.now() +
                           (config_.stall_timeout - stalled_this_phase));
      if (state.trace().enabled()) {
        state.trace().Record(ctx.clock.now(), TraceEventKind::kTimeout, -1,
                             "all scheduled fragments starved");
      }
      return Event{EventKind::kTimeout, -1};
    }
    stalled_this_phase += wait;
    ctx.clock.StallUntil(next);
  }
}

}  // namespace dqsched::core

// DSE: Dynamic Scheduling Execution — the paper's contribution. The
// general loop of Section 3.1: planning phases (DQS) interleaved with
// execution phases (DQP), with the DQO revising the plan on memory
// overflow and recording timeout escalations.

#include "core/strategy_internal.h"

#include "common/macros.h"

namespace dqsched::core::internal {

Result<ExecutionMetrics> RunDseImpl(ExecutionState& state,
                                    exec::ExecContext& ctx,
                                    const StrategyConfig& config) {
  Dqs dqs(config.dqs);
  Dqp dqp(config.dqp);
  Dqo dqo;
  StrategyCounters counters;

  SchedulingPlan sp;  // refilled by every planning phase
  int64_t guard = 0;
  while (!state.QueryDone()) {
    DQS_CHECK_MSG(++guard < (1LL << 40), "DSE livelock");
    DQS_RETURN_IF_ERROR(dqs.ComputePlan(state, ctx, dqo, &sp));
    Result<Event> evt = dqp.RunPhase(state, sp, ctx);
    if (!evt.ok()) return evt.status();
    switch (evt->kind) {
      case EventKind::kEndOfQf:
        state.OnFragmentFinished(evt->fragment, ctx);
        break;
      case EventKind::kRateChange:
        ++counters.rate_changes;
        break;  // replan with fresh estimates
      case EventKind::kTimeout:
        ++counters.timeouts;
        dqo.OnTimeout();  // phase-2 re-optimization hook
        break;
      case EventKind::kMemoryOverflow:
        DQS_RETURN_IF_ERROR(dqo.HandleMemoryOverflow(
            state, ctx, state.FragmentChain(evt->fragment)));
        break;
      case EventKind::kPlanExhausted:
        break;  // replan
      case EventKind::kSourceDown:
        ++counters.source_down_events;
        if (ctx.comm.SourceDead(evt->source)) {
          if (!config.fault.partial_results) {
            return Status::Unavailable("source " +
                                       std::to_string(evt->source) +
                                       " declared dead");
          }
          // Partial-result policy: give the stream up. Its chain drains
          // what arrived and completes; downstream joins see a subset.
          ctx.comm.AbandonSource(evt->source);
          ++counters.sources_abandoned;
          counters.partial_result = true;
        }
        // Mere suspicion: replan — the suspected chain has lost its
        // critical priority and blocked chains may degrade to MFs.
        break;
      case EventKind::kSourceRecovered:
        ++counters.source_recovered_events;
        break;  // replan with the chain's priority restored
      case EventKind::kDeadlineExceeded:
        counters.deadline_hit = true;
        if (!config.fault.partial_results) {
          return Status::DeadlineExceeded("query deadline expired");
        }
        counters.partial_result = true;
        return CollectMetrics(ctx, state, &dqs, dqp, dqo, counters);
      case EventKind::kSliceEnd:
      case EventKind::kStarved:
        return Status::Internal("multi-query event in single-query DSE");
    }
  }
  return CollectMetrics(ctx, state, &dqs, dqp, dqo, counters);
}

}  // namespace dqsched::core::internal

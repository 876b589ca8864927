// DSE: Dynamic Scheduling Execution — the paper's contribution. The
// general loop of Section 3.1: planning phases (DQS) interleaved with
// execution phases (DQP), with the DQO revising the plan on memory
// overflow.

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
  DQS_RETURN_IF_ERROR(RunPhases(
      state, ctx, dqp, dqo, config.fault, "",
      [&](const Event*, SchedulingPlan* sp) {
        return dqs.ComputePlan(state, ctx, dqo, sp);
      },
      [&] { return state.QueryDone(); }, &counters));
  return CollectMetrics(ctx, state, &dqs, dqp, dqo, counters);
}

}  // namespace dqsched::core::internal

// SEQ: the classical iterator-model execution (paper Sections 2.3 and
// 5.1.2). Chains run strictly sequentially in build-before-probe order;
// the engine consumes exactly one input at a time and stalls whenever that
// input is delayed — "a response time with a lower bound equal to the sum
// of the times needed to retrieve the data produced by each wrapper".

#include <string>
#include <vector>

#include "common/macros.h"
#include "core/strategy_internal.h"

namespace dqsched::core::internal {

void PlanCurrentChain(const ExecutionState& state,
                      const std::vector<ChainId>& order, size_t* cursor,
                      SchedulingPlan* sp) {
  while (*cursor < order.size() && state.ChainDone(order[*cursor])) {
    ++*cursor;
  }
  DQS_CHECK_MSG(*cursor < order.size(),
                "every chain done with the query unfinished");
  sp->fragments.assign(1, state.ChainFragment(order[*cursor]));
  sp->critical_ns.assign(1, 0.0);
}

Status RunIteratorModel(ExecutionState& state, exec::ExecContext& ctx,
                        Dqp& dqp, Dqo& dqo, StrategyCounters* counters) {
  const std::vector<ChainId> order = state.compiled().IteratorModelOrder();
  size_t cursor = 0;
  return RunPhases(
      state, ctx, dqp, dqo, FaultPolicy{}, "",
      [&](const Event* last, SchedulingPlan* sp) {
        // The chain runs alone, so planning again cannot revive a plan
        // with nothing left to run.
        if (last != nullptr && last->kind == EventKind::kPlanExhausted) {
          return Status::Internal("chain " + std::to_string(order[cursor]) +
                                  " cannot make progress");
        }
        PlanCurrentChain(state, order, &cursor, sp);
        return Status::Ok();
      },
      [&] { return state.QueryDone(); }, counters);
}

Result<ExecutionMetrics> RunSeqImpl(ExecutionState& state,
                                    exec::ExecContext& ctx,
                                    const StrategyConfig& config) {
  Dqp dqp(config.dqp);
  Dqo dqo;
  StrategyCounters counters;
  DQS_RETURN_IF_ERROR(RunIteratorModel(state, ctx, dqp, dqo, &counters));
  return CollectMetrics(ctx, state, /*dqs=*/nullptr, dqp, dqo, counters);
}

}  // namespace dqsched::core::internal

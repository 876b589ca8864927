// Shared plumbing of the strategy implementations. Internal header: not
// part of the public API.

#ifndef DQSCHED_CORE_STRATEGY_INTERNAL_H_
#define DQSCHED_CORE_STRATEGY_INTERNAL_H_

#include <functional>
#include <vector>

#include "core/dqo.h"
#include "core/dqp.h"
#include "core/dqs.h"
#include "core/events.h"
#include "core/execution_state.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "exec/exec_context.h"

namespace dqsched::core::internal {

/// Event tallies a strategy accumulates outside the DQS/DQP counters.
struct StrategyCounters {
  int64_t timeouts = 0;
  int64_t rate_changes = 0;
  int64_t source_down_events = 0;
  int64_t source_recovered_events = 0;
  int64_t sources_abandoned = 0;
  bool partial_result = false;
  bool deadline_hit = false;
};

/// Assembles the metrics of a finished run.
ExecutionMetrics CollectMetrics(const exec::ExecContext& ctx,
                                const ExecutionState& state, const Dqs* dqs,
                                const Dqp& dqp, const Dqo& dqo,
                                const StrategyCounters& counters);

/// The single-query phase loop (paper Section 3.1): until `done()`, the
/// strategy's plan step fills the next plan, `dqp` runs a phase of it,
/// and the loop reacts to the event that ended the phase. The plan step
/// sees that event (nullptr before the first phase) for the reactions
/// that are its strategy's own: SEQ gives up on kPlanExhausted,
/// scrambling scrambles on kTimeout. The loop owns the rest: fragment
/// completion, the DQO's memory-overflow revision, the event counters,
/// acknowledging new rate estimates, and `fault`. Strict, a dead source
/// fails the run with kUnavailable and an expired deadline with
/// kDeadlineExceeded (`where` ends both messages); with partial results,
/// a dead source is abandoned and an expired deadline returns Ok with
/// counters->deadline_hit set.
Status RunPhases(
    ExecutionState& state, exec::ExecContext& ctx, Dqp& dqp, Dqo& dqo,
    const FaultPolicy& fault, const char* where,
    const std::function<Status(const Event* last, SchedulingPlan* sp)>& plan,
    const std::function<bool()>& done, StrategyCounters* counters);

/// The iterator model's plan: the first chain of `order` (build before
/// probe) at or after `*cursor` that is not done, alone. The query must
/// not be done; its result chain comes last in `order`.
void PlanCurrentChain(const ExecutionState& state,
                      const std::vector<ChainId>& order, size_t* cursor,
                      SchedulingPlan* sp);

/// SEQ: each chain in build-before-probe order runs alone until it is
/// done. MA's phase 2 runs it over local temps.
Status RunIteratorModel(ExecutionState& state, exec::ExecContext& ctx,
                        Dqp& dqp, Dqo& dqo, StrategyCounters* counters);

Result<ExecutionMetrics> RunSeqImpl(ExecutionState& state,
                                    exec::ExecContext& ctx,
                                    const StrategyConfig& config);
Result<ExecutionMetrics> RunDseImpl(ExecutionState& state,
                                    exec::ExecContext& ctx,
                                    const StrategyConfig& config);
Result<ExecutionMetrics> RunMaImpl(ExecutionState& state,
                                   exec::ExecContext& ctx,
                                   const StrategyConfig& config);

}  // namespace dqsched::core::internal

#endif  // DQSCHED_CORE_STRATEGY_INTERNAL_H_

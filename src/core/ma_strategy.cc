// MA: Materialize All, the strategy of the paper's [1] as described in
// Section 5.1.2 — "In the first phase, MA materializes simultaneously on
// the disk of the mediator all the remote relations. Then, in the second
// phase, it executes the query with local data stored on disk. Therefore,
// MA can overlap the delays of several input relations, however at a high
// I/O overhead."

#include <algorithm>

#include "core/strategy_internal.h"

#include "common/macros.h"

namespace dqsched::core::internal {

Result<ExecutionMetrics> RunMaImpl(ExecutionState& state,
                                   exec::ExecContext& ctx,
                                   const StrategyConfig& config) {
  Dqo dqo;
  StrategyCounters counters;

  // Phase 1: one raw materialization fragment per source, serviced
  // round-robin so every relation is retrieved simultaneously. MA needs
  // every relation fully on disk, so its fault policy is strict.
  DqpConfig phase1_config = config.dqp;
  phase1_config.round_robin = true;
  Dqp phase1(phase1_config);

  SchedulingPlan materializations;
  for (SourceId s = 0; s < ctx.comm.num_sources(); ++s) {
    materializations.fragments.push_back(state.CreateMaterializeAll(s, ctx));
    materializations.critical_ns.push_back(0.0);
  }
  const std::vector<int>& mats = materializations.fragments;
  DQS_RETURN_IF_ERROR(RunPhases(
      state, ctx, phase1, dqo, FaultPolicy{}, " during materialization",
      [&](const Event*, SchedulingPlan* sp) {
        *sp = materializations;
        return Status::Ok();
      },
      [&] {
        return std::none_of(mats.begin(), mats.end(),
                            [&](int f) { return state.FragmentActive(f); });
      },
      &counters));

  // Phase 2: rebind every chain to its local temp, then run the iterator
  // model from disk.
  for (ChainId chain : state.compiled().IteratorModelOrder()) {
    state.RebindChainToTemp(chain,
                            state.MaTempOf(state.compiled().chain(chain).source),
                            ctx);
  }
  Dqp phase2(config.dqp);
  DQS_RETURN_IF_ERROR(RunIteratorModel(state, ctx, phase2, dqo, &counters));
  ExecutionMetrics m =
      CollectMetrics(ctx, state, /*dqs=*/nullptr, phase2, dqo, counters);
  m.execution_phases += phase1.execution_phases();
  return m;
}

}  // namespace dqsched::core::internal

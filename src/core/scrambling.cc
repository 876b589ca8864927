#include "core/scrambling.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "core/strategy_internal.h"

namespace dqsched::core {

namespace {

// A scrambling step: the starving current operator (order[cursor]) is
// suspended (implicitly — it has no data) and other work is picked.
void Scramble(ExecutionState& state, exec::ExecContext& ctx,
              const std::vector<ChainId>& order, size_t cursor,
              std::vector<int>* scrambled) {
  // (i) another runnable pipeline chain, in iterator order.
  for (size_t k = cursor + 1; k < order.size(); ++k) {
    const ChainId c = order[k];
    if (state.ChainDone(c) || !state.CSchedulable(c)) continue;
    const int frag = state.ChainFragment(c);
    if (!state.FragmentActive(frag)) continue;
    if (std::find(scrambled->begin(), scrambled->end(), frag) !=
        scrambled->end()) {
      continue;
    }
    scrambled->push_back(frag);
    return;
  }
  // (ii) otherwise materialize some blocked wrapper's output.
  for (size_t k = cursor + 1; k < order.size(); ++k) {
    const ChainId c = order[k];
    if (state.ChainDone(c) || state.CSchedulable(c) || state.Degraded(c)) {
      continue;
    }
    if (ctx.comm.RemainingTuples(state.compiled().chain(c).source) == 0) {
      continue;
    }
    scrambled->push_back(state.Degrade(c, ctx));
    return;
  }
  // (iii) "there is no more work to scramble" [1]: wait it out.
}

}  // namespace

Result<ExecutionMetrics> RunScrambling(ExecutionState& state,
                                       exec::ExecContext& ctx,
                                       const ScramblingConfig& config) {
  if (config.batch_size <= 0 || config.timeout <= 0) {
    return Status::InvalidArgument("scrambling batch/timeout must be > 0");
  }
  DqpConfig dqp_config;
  dqp_config.batch_size = config.batch_size;
  dqp_config.stall_timeout = config.timeout;
  dqp_config.deadline = config.deadline;
  Dqp dqp(dqp_config);
  Dqo dqo;
  internal::StrategyCounters counters;

  const std::vector<ChainId> order = state.compiled().IteratorModelOrder();
  size_t cursor = 0;
  // Fragments picked by scrambling steps, oldest first (they run whenever
  // the current operator starves, mirroring "O1 resumes as soon as data
  // arrives" — the DQP's priority rule gives exactly that).
  std::vector<int> scrambled;

  // Scrambling is timeout-driven: it ignores rate estimates, and the
  // detector's verdict only matters when it is terminal.
  DQS_RETURN_IF_ERROR(internal::RunPhases(
      state, ctx, dqp, dqo, FaultPolicy{}, " under scrambling",
      [&](const Event* last, SchedulingPlan* sp) {
        if (last != nullptr && last->kind == EventKind::kTimeout) {
          Scramble(state, ctx, order, cursor, &scrambled);
        }
        // Degraded chains whose ancestors finished resume from their
        // materialized prefix, as in DSE.
        for (ChainId c = 0; c < state.num_chains(); ++c) {
          if (!state.ChainDone(c) && state.Degraded(c) &&
              !state.CfActivated(c) && state.CSchedulable(c)) {
            state.ActivateCf(c, ctx);
          }
        }
        internal::PlanCurrentChain(state, order, &cursor, sp);
        for (int frag : scrambled) {
          if (!state.FragmentActive(frag)) continue;
          sp->fragments.push_back(frag);
          sp->critical_ns.push_back(0.0);
        }
        return Status::Ok();
      },
      [&] { return state.QueryDone(); }, &counters));
  return internal::CollectMetrics(ctx, state, /*dqs=*/nullptr, dqp, dqo,
                                  counters);
}

}  // namespace dqsched::core

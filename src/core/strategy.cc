#include "core/strategy.h"

#include "common/macros.h"
#include "core/engine.h"
#include "core/strategy_internal.h"

namespace dqsched::core {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kSeq:
      return "SEQ";
    case StrategyKind::kDse:
      return "DSE";
    case StrategyKind::kMa:
      return "MA";
  }
  return "unknown";
}

ExecutionOptions OptionsFor(StrategyKind kind) {
  ExecutionOptions options;
  // MA, as described in [1], is a simple two-phase strategy; it performs
  // its materialization and re-read I/O synchronously. DSE's fragments
  // overlap I/O with CPU (the assumption behind the paper's bmi formula).
  options.async_io = kind != StrategyKind::kMa;
  return options;
}

Result<ExecutionMetrics> RunStrategy(StrategyKind kind, ExecutionState& state,
                                     exec::ExecContext& ctx,
                                     const StrategyConfig& config) {
  switch (kind) {
    case StrategyKind::kSeq:
      return internal::RunSeqImpl(state, ctx, config);
    case StrategyKind::kDse:
      return internal::RunDseImpl(state, ctx, config);
    case StrategyKind::kMa:
      return internal::RunMaImpl(state, ctx, config);
  }
  return Status::InvalidArgument("unknown strategy");
}

namespace internal {

ExecutionMetrics CollectMetrics(const exec::ExecContext& ctx,
                                const ExecutionState& state, const Dqs* dqs,
                                const Dqp& dqp, const Dqo& dqo,
                                const StrategyCounters& counters) {
  ExecutionMetrics m;
  m.response_time = ctx.clock.now();
  m.busy_time = ctx.clock.busy_time();
  m.stalled_time = ctx.clock.stalled_time();
  m.result_count = ctx.result.count();
  m.result_checksum = ctx.result.checksum().value();
  if (dqs != nullptr) {
    m.planning_phases = dqs->planning_phases();
    m.planning_host_seconds = dqs->planning_host_seconds();
  }
  m.execution_phases = dqp.execution_phases();
  m.degradations = state.degradations();
  m.cf_activations = state.cf_activations();
  m.dqo_splits = state.dqo_splits();
  m.operand_spills = dqo.spills();
  m.timeouts = counters.timeouts;
  m.rate_change_events = counters.rate_changes;
  m.peak_memory_bytes = ctx.memory.peak();
  m.disk = ctx.disk.stats();
  m.network = ctx.net.stats();
  m.temps = ctx.temps.stats();
  // Fault layer: all-zero unless a fault schedule / failure detection ran.
  m.fault = ContextFaults(ctx.comm);
  m.fault.source_down_events = counters.source_down_events;
  m.fault.source_recovered_events = counters.source_recovered_events;
  m.fault.sources_abandoned = counters.sources_abandoned;
  m.fault.partial_result = counters.partial_result;
  m.fault.deadline_hit = counters.deadline_hit;
  return m;
}

Status DriveChain(ChainId chain, ExecutionState& state,
                  exec::ExecContext& ctx, Dqp& dqp, Dqo& dqo,
                  StrategyCounters* counters) {
  int64_t guard = 0;
  while (!state.ChainDone(chain)) {
    DQS_CHECK_MSG(++guard < (1LL << 40), "DriveChain livelock on chain %d",
                  chain);
    SchedulingPlan sp;
    sp.fragments.push_back(state.ChainFragment(chain));
    sp.critical_ns.push_back(0.0);
    Result<Event> evt = dqp.RunPhase(state, sp, ctx);
    if (!evt.ok()) return evt.status();
    switch (evt->kind) {
      case EventKind::kEndOfQf:
        state.OnFragmentFinished(evt->fragment, ctx);
        break;
      case EventKind::kMemoryOverflow:
        DQS_RETURN_IF_ERROR(dqo.HandleMemoryOverflow(state, ctx, chain));
        break;
      case EventKind::kRateChange:
        ++counters->rate_changes;
        ctx.comm.MarkPlanned(ctx.clock.now());
        break;
      case EventKind::kTimeout:
        ++counters->timeouts;
        dqo.OnTimeout();
        break;
      case EventKind::kPlanExhausted:
        return Status::Internal("chain " + std::to_string(chain) +
                                " cannot make progress");
      case EventKind::kSourceDown:
        // Sequential execution has no useful partial answer: a declared
        // death aborts the run; mere suspicion keeps waiting (the stream
        // may recover, and the detector will escalate if not).
        ++counters->source_down_events;
        if (ctx.comm.SourceDead(evt->source)) {
          return Status::Unavailable("source " + std::to_string(evt->source) +
                                     " declared dead");
        }
        break;
      case EventKind::kSourceRecovered:
        ++counters->source_recovered_events;
        break;
      case EventKind::kDeadlineExceeded:
        counters->deadline_hit = true;
        return Status::DeadlineExceeded("query deadline expired on chain " +
                                        std::to_string(chain));
      case EventKind::kSliceEnd:
      case EventKind::kStarved:
        return Status::Internal("multi-query event in DriveChain");
    }
  }
  return Status::Ok();
}

}  // namespace internal
}  // namespace dqsched::core

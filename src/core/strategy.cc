#include "core/strategy.h"

#include <string>

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

Status RunPhases(
    ExecutionState& state, exec::ExecContext& ctx, Dqp& dqp, Dqo& dqo,
    const FaultPolicy& fault, const char* where,
    const std::function<Status(const Event* last, SchedulingPlan* sp)>& plan,
    const std::function<bool()>& done, StrategyCounters* counters) {
  SchedulingPlan sp;  // refilled by every plan step
  Event last;
  const Event* ended = nullptr;  // the event that ended the last phase
  int64_t guard = 0;
  while (!done()) {
    DQS_CHECK_MSG(++guard < (1LL << 40), "phase-loop livelock%s", where);
    DQS_RETURN_IF_ERROR(plan(ended, &sp));
    Result<Event> evt = dqp.RunPhase(state, sp, ctx);
    if (!evt.ok()) return evt.status();
    last = *evt;
    ended = &last;
    switch (last.kind) {
      case EventKind::kEndOfQf:
        state.OnFragmentFinished(last.fragment, ctx);
        break;
      case EventKind::kRateChange:
        // Acknowledge the new estimates, or the same drift fires again
        // at once. DSE's ComputePlan takes the same snapshot next.
        ++counters->rate_changes;
        ctx.comm.MarkPlanned(ctx.clock.now());
        break;
      case EventKind::kTimeout:
        ++counters->timeouts;
        break;
      case EventKind::kMemoryOverflow: {
        const ChainId chain = state.FragmentChain(last.fragment);
        // Only MA's materializations belong to no chain; they hold no
        // operands, so none can fail to open.
        if (chain == kInvalidId) {
          return Status::Internal("materialization cannot overflow memory");
        }
        DQS_RETURN_IF_ERROR(dqo.HandleMemoryOverflow(state, ctx, chain));
        break;
      }
      case EventKind::kPlanExhausted:
        break;  // plan again
      case EventKind::kSourceDown:
        // Mere suspicion keeps the run going: the stream may recover, and
        // the detector escalates if it does not (DSE's next plan drops the
        // suspected chain's critical priority).
        ++counters->source_down_events;
        if (!ctx.comm.SourceDead(last.source)) break;
        if (!fault.partial_results) {
          return Status::Unavailable("source " + std::to_string(last.source) +
                                     " declared dead" + where);
        }
        // Partial-result policy: give the stream up. Its chain drains
        // what arrived and completes; downstream joins see a subset.
        ctx.comm.AbandonSource(last.source);
        ++counters->sources_abandoned;
        counters->partial_result = true;
        break;
      case EventKind::kSourceRecovered:
        ++counters->source_recovered_events;
        break;
      case EventKind::kDeadlineExceeded:
        counters->deadline_hit = true;
        if (!fault.partial_results) {
          return Status::DeadlineExceeded(
              std::string("query deadline expired") + where);
        }
        counters->partial_result = true;
        return Status::Ok();
      case EventKind::kSliceEnd:
      case EventKind::kStarved:
        return Status::Internal("multi-query event in a single-query run");
    }
  }
  return Status::Ok();
}

}  // namespace internal
}  // namespace dqsched::core

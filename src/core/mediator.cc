#include "core/mediator.h"

#include <utility>

#include "common/macros.h"
#include "core/dphj.h"
#include "core/execution_state.h"
#include "core/scrambling.h"
#include "exec/exec_context.h"

namespace dqsched::core {

Result<Mediator> Mediator::Create(wrapper::Catalog catalog, plan::Plan plan,
                                  MediatorConfig config) {
  DQS_RETURN_IF_ERROR(config.Validate());
  if (config.query_deadline < 0) {
    return Status::InvalidArgument("query deadline must be >= 0");
  }
  // Each run has its own context, so a cache could only ever serve the
  // run that filled it, which epoch gating forbids: it would never hit.
  if (config.cache.enabled) {
    return Status::InvalidArgument(
        "the single-query mediator has no result cache; use the "
        "multi-query or fleet driver");
  }
  // Arm the failure detector exactly when a source can misbehave: with no
  // schedule anywhere, every fault code path stays dormant and the run is
  // bit-identical to a build without the fault layer.
  for (const wrapper::SourceSpec& s : catalog.sources) {
    if (!s.faults.empty()) {
      config.comm.failure_detection = true;
      break;
    }
  }

  const SeedPolicy seeds = SeedPolicy::Mediator(config.seed);
  Result<PreparedQuery> query =
      PrepareQuery(std::move(catalog), plan, config.cost, seeds);
  if (!query.ok()) return query.status();

  // The realized retrieval totals make the lower bound tight for this
  // exact workload instance.
  const wrapper::Catalog& cat = query->catalog;
  std::vector<double> realized;
  realized.reserve(static_cast<size_t>(cat.num_sources()));
  for (SourceId s = 0; s < cat.num_sources(); ++s) {
    const wrapper::SourceSpec& spec = cat.source(s);
    realized.push_back(RealizedDelayTotalNs(spec.delay, seeds.DelaySeed(s),
                                            spec.relation.cardinality));
  }

  return Mediator(std::move(config), std::move(query.value()),
                  std::move(realized));
}

void Mediator::SetupContext(exec::ExecContext& ctx) const {
  AddWrappers(ctx, query_, SeedPolicy::Mediator(config_.seed),
              /*hold=*/false);
}

Status Mediator::Verify(const ExecutionMetrics& metrics,
                        const char* label) const {
  if (!config_.verify_results || metrics.fault.partial_result) {
    return Status::Ok();
  }
  return query_.CheckAnswer(metrics.result_count, metrics.result_checksum,
                            label);
}

Result<Mediator::TracedExecution> Mediator::ExecuteWithOptions(
    StrategyKind kind, bool trace) const {
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  SetupContext(ctx);
  ExecutionOptions options = OptionsFor(kind);
  options.trace = trace;
  options.kernels = config_.kernels;
  ExecutionState state(&query_.compiled, &ctx, options);
  StrategyConfig strategy = config_.strategy;
  if (config_.query_deadline > 0) {
    strategy.dqp.deadline = config_.query_deadline;
  }
  Result<ExecutionMetrics> metrics = RunStrategy(kind, state, ctx, strategy);
  if (!metrics.ok()) return metrics.status();
  DQS_RETURN_IF_ERROR(Verify(*metrics, StrategyName(kind)));
  TracedExecution out;
  out.metrics = std::move(metrics.value());
  out.trace = std::move(state.trace());
  out.fragment_names = state.FragmentNames();
  return out;
}

Result<ExecutionMetrics> Mediator::Execute(StrategyKind kind) const {
  Result<TracedExecution> run = ExecuteWithOptions(kind, /*trace=*/false);
  if (!run.ok()) return run.status();
  return std::move(run->metrics);
}

Result<Mediator::TracedExecution> Mediator::ExecuteTraced(
    StrategyKind kind) const {
  return ExecuteWithOptions(kind, /*trace=*/true);
}

Result<ExecutionMetrics> Mediator::ExecuteScrambling(
    SimDuration timeout) const {
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  SetupContext(ctx);
  // Scrambling shares DSE's asynchronous-I/O fragments (it also
  // materializes to overlap), but not its rate-driven planning.
  ExecutionOptions options = OptionsFor(StrategyKind::kDse);
  options.kernels = config_.kernels;
  ExecutionState state(&query_.compiled, &ctx, options);
  ScramblingConfig scr;
  scr.timeout = timeout;
  scr.batch_size = config_.strategy.dqp.batch_size;
  scr.deadline = config_.query_deadline;
  Result<ExecutionMetrics> metrics = RunScrambling(state, ctx, scr);
  if (!metrics.ok()) return metrics;
  DQS_RETURN_IF_ERROR(Verify(*metrics, "SCR"));
  return metrics;
}

Result<ExecutionMetrics> Mediator::ExecuteDphj() const {
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  SetupContext(ctx);
  DphjConfig dphj;
  dphj.batch_size = config_.strategy.dqp.batch_size;
  Result<ExecutionMetrics> metrics = RunDphj(query_.compiled, ctx, dphj);
  if (!metrics.ok()) return metrics;
  DQS_RETURN_IF_ERROR(Verify(*metrics, "DPHJ"));
  return metrics;
}

LwbBreakdown Mediator::LowerBound() const {
  return ComputeLwb(query_.compiled, query_.reference, query_.catalog,
                    config_.cost, realized_retrieval_ns_);
}

}  // namespace dqsched::core

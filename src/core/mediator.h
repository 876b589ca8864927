// The public entry point of dqsched: the mediator of the paper's
// data-integration architecture (Section 2.1). Construct one from a
// catalog + plan + configuration, then Execute() any strategy; repeated
// executions reuse identical generated data and identical per-tuple delay
// draws, so strategies are compared on exactly the same workload.

#ifndef DQSCHED_CORE_MEDIATOR_H_
#define DQSCHED_CORE_MEDIATOR_H_

#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/lwb.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "core/trace.h"
#include "plan/compiled_plan.h"
#include "plan/plan_node.h"
#include "plan/reference_executor.h"
#include "storage/relation.h"
#include "wrapper/catalog.h"

namespace dqsched::core {

/// Everything configurable about one mediator.
struct MediatorConfig : EngineConfig {
  /// Virtual-time budget for each execution (0 = unlimited). Expiry
  /// raises kDeadlineExceeded, resolved per StrategyConfig::fault.
  SimDuration query_deadline = 0;
};

/// An integration query ready to execute.
class Mediator {
 public:
  /// Validates everything, compiles + annotates the plan, generates the
  /// data, and computes the exact reference answer.
  static Result<Mediator> Create(wrapper::Catalog catalog, plan::Plan plan,
                                 MediatorConfig config);

  Mediator(Mediator&&) = default;
  Mediator& operator=(Mediator&&) = default;

  /// Executes the query under `kind` on a fresh context. Deterministic:
  /// the same mediator + strategy always yields the same metrics.
  Result<ExecutionMetrics> Execute(StrategyKind kind) const;

  /// Like Execute, but records and returns the execution trace (paper
  /// Section 5.3's diagnostic tool): scheduler decisions, interruption
  /// events, per-fragment batch activity, plus fragment display names for
  /// rendering.
  struct TracedExecution {
    ExecutionMetrics metrics;
    ExecutionTrace trace;
    std::vector<std::string> fragment_names;
  };
  Result<TracedExecution> ExecuteTraced(StrategyKind kind) const;

  /// Executes with query scrambling, phase 1 (core/scrambling.h) — the
  /// paper's main prior art, for measurable comparison. `timeout` is the
  /// scrambling trigger the paper calls hard to tune.
  Result<ExecutionMetrics> ExecuteScrambling(
      SimDuration timeout = Milliseconds(100)) const;

  /// Executes with double-pipelined (symmetric) hash joins — the
  /// operator-level adaptation of paper Section 1.1 (core/dphj.h) — for
  /// comparison against the scheduling-level DSE. Verified against the
  /// reference like every other strategy.
  Result<ExecutionMetrics> ExecuteDphj() const;

  /// The analytic lower bound LWB (paper Section 5.1.2).
  LwbBreakdown LowerBound() const;

  const wrapper::Catalog& catalog() const { return query_.catalog; }
  const plan::ReferenceResult& reference() const { return query_.reference; }

 private:
  Result<TracedExecution> ExecuteWithOptions(StrategyKind kind,
                                             bool trace) const;
  void SetupContext(exec::ExecContext& ctx) const;
  /// The answer check, unless verification is off or the run is partial.
  Status Verify(const ExecutionMetrics& metrics, const char* label) const;

  Mediator(MediatorConfig config, PreparedQuery query,
           std::vector<double> realized_retrieval_ns)
      : config_(std::move(config)),
        query_(std::move(query)),
        realized_retrieval_ns_(std::move(realized_retrieval_ns)) {}

  MediatorConfig config_;
  PreparedQuery query_;
  /// Per-source realized total delivery time (sum of this seed's actual
  /// delay draws), nanoseconds — makes the LWB tight per workload.
  std::vector<double> realized_retrieval_ns_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_MEDIATOR_H_

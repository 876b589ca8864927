// The Dynamic QEP Optimizer (paper Sections 3.1 and 4.2).
//
// The full DQO of the paper's architecture hosts arbitrary re-optimization
// strategies [4,9,15]. This implementation provides the one module the
// paper declares mandatory: memory-overflow handling — "the dynamic
// optimizer must, at least, include a module which deals with these memory
// problems ... modifying the QEP by replacing p by two fragments,
// inserting a materialize operator at the highest possible point"
// (Section 4.2). Timeout escalation (phase-2 re-optimization [15]) is
// not implemented: the strategies' phase loop counts a kTimeout and plans
// again.

#ifndef DQSCHED_CORE_DQO_H_
#define DQSCHED_CORE_DQO_H_

#include "common/ids.h"
#include "common/status.h"
#include "core/execution_state.h"
#include "exec/exec_context.h"

namespace dqsched::core {

/// Memory-overflow handler.
class Dqo {
 public:
  /// Revises the execution so `chain` becomes executable: first evicts
  /// resident operands the chain does not probe (they reload later), then,
  /// if the chain still cannot open, splits it into stages materialized
  /// through disk temps (the technique of the paper's [4]). Fails with
  /// kResourceExhausted when nothing helps (a single join's operand plus
  /// index exceeds the total budget — the query is infeasible under this
  /// memory model).
  Status HandleMemoryOverflow(ExecutionState& state, exec::ExecContext& ctx,
                              ChainId chain);

  /// Operand evictions performed to relieve memory pressure.
  int64_t spills() const { return spills_; }

 private:
  int64_t spills_ = 0;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_DQO_H_

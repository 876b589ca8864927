// The Dynamic Query Processor (paper Section 3.2).
//
// One execution phase: repeatedly scan the scheduling plan's fragments in
// priority order, process a batch of tuples from the first fragment with
// sufficient input, return to the highest priority after every batch.
// The phase ends with an interruption event: EndOfQF, RateChange, TimeOut,
// MemoryOverflow, or PlanExhausted.

#ifndef DQSCHED_CORE_DQP_H_
#define DQSCHED_CORE_DQP_H_

#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/dqs.h"
#include "core/events.h"
#include "core/execution_state.h"
#include "exec/exec_context.h"

namespace dqsched::core {

/// Processor tunables.
struct DqpConfig {
  /// Preferred tuples per batch ("the rationale behind considering batches
  /// ... is to reduce the potential overheads due to frequent switches").
  int64_t batch_size = 128;
  /// Stall budget before a TimeOut interruption (the hook for phase-2
  /// re-optimization [15]).
  SimDuration stall_timeout = Seconds(5);
  /// Round-robin instead of strict priority (used by MA's phase 1, which
  /// materializes all relations simultaneously).
  bool round_robin = false;
  /// Multi-query time slicing: end the phase with kSliceEnd after this
  /// many batches (0 = unlimited; single-query strategies).
  int64_t slice_batches = 0;
  /// Multi-query mode: return kStarved instead of stalling the global
  /// clock when no scheduled fragment has data — another query may have
  /// work.
  bool yield_on_starvation = false;
  /// Absolute virtual-time budget for the whole query (0 = unlimited).
  /// Crossing it raises kDeadlineExceeded; the strategy decides between
  /// aborting and returning a partial result. Plumbed from
  /// MediatorConfig::query_deadline.
  SimTime deadline = 0;
};

/// The processor. Owns no state besides counters and per-phase scratch;
/// fragments live in the ExecutionState.
class Dqp {
 public:
  explicit Dqp(const DqpConfig& config) : config_(config) {}

  /// Runs one execution phase against `sp`. Never returns without an
  /// event; the virtual clock advances by CPU charges and stalls.
  Result<Event> RunPhase(ExecutionState& state, const SchedulingPlan& sp,
                         exec::ExecContext& ctx);

  int64_t execution_phases() const { return execution_phases_; }

 private:
  DqpConfig config_;
  int64_t execution_phases_ = 0;
  int64_t batches_ = 0;
  int rr_cursor_ = 0;
  /// The phase's resolved runtimes, parallel to the plan's fragments
  /// (null = inactive); reused across phases.
  std::vector<exec::FragmentRuntime*> frags_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_DQP_H_

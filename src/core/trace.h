// Execution tracing. The paper's authors diagnosed their scheduler by
// "checking the execution traces" (Section 5.3); this module makes those
// traces a first-class artifact: every scheduling decision (planning
// phases, degradations, CF activations, DQO revisions) and every
// interruption event is recorded with its virtual timestamp, and the
// per-fragment batch activity can be rendered as an ASCII timeline.
//
// Tracing is off by default; enable it via MediatorConfig::trace or
// ExecutionTrace::set_enabled. Every Record site builds its detail string
// only under `if (trace.enabled())`, so tracing off costs one branch and
// no allocation.

#ifndef DQSCHED_CORE_TRACE_H_
#define DQSCHED_CORE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace dqsched::core {

enum class TraceEventKind {
  kPlanningPhase,  // DQS computed a scheduling plan
  kDegradation,    // MF(p) created (Section 4.4)
  kCfActivation,   // degraded chain resumed as CF(p)
  kDqoSplit,       // memory-overflow chain split (Section 4.2)
  kOperandSpill,   // operand evicted to disk under pressure
  kEndOfQf,        // a query fragment finished
  kRateChange,     // delivery-rate estimates drifted; replanning
  kTimeout,        // every scheduled fragment starved past the budget
  kMemoryOverflow, // a fragment failed to open in the budget
  kSourceDown,     // the failure detector suspects/declared a source down
  kSourceRecovered,// a suspected source delivered again
  kDeadline,       // the query's virtual-time budget expired
  kCancelled,      // lifecycle cancellation released the query's resources
  kCacheHit,       // a chain was rebound to a cached segment (DESIGN.md §14)
  kQueryDone,
};

const char* TraceEventKindName(TraceEventKind kind);

/// One recorded decision/event.
struct TraceEvent {
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kPlanningPhase;
  /// Subject fragment id (-1 when not applicable).
  int fragment = -1;
  /// Free-form context ("MF(p_C)", "4 fragments scheduled", ...).
  std::string detail;
};

/// One batch execution, for the activity timeline.
struct TraceBatch {
  SimTime time = 0;
  int fragment = -1;
  int64_t consumed = 0;
};

/// Collects events and batch activity for one execution.
class ExecutionTrace {
 public:
  ExecutionTrace() = default;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(SimTime time, TraceEventKind kind, int fragment,
              std::string detail);
  void RecordBatch(SimTime time, int fragment, int64_t consumed);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceBatch>& batches() const { return batches_; }

  /// Number of recorded events of `kind`.
  int64_t CountOf(TraceEventKind kind) const;

  /// Human-readable event log: one line per event, time-ordered
  /// (they are recorded in time order; the virtual clock is monotonic).
  /// `limit` truncates long logs (0 = everything).
  std::string RenderEventLog(size_t limit = 0) const;

  /// ASCII activity timeline: one row per fragment that executed batches,
  /// `columns` time buckets wide; cell shading reflects tuples consumed in
  /// the bucket (' ' none, '.' light, ':' medium, '#' heavy). Fragment
  /// names come from `names` (indexed by fragment id; missing entries
  /// render as #id).
  std::string RenderTimeline(const std::vector<std::string>& names,
                             int columns = 72) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  std::vector<TraceBatch> batches_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_TRACE_H_

// The Dynamic Query Scheduler (paper Sections 3.3 and 4).
//
// At each planning phase the DQS:
//   1. snapshots delivery-rate estimates (future RateChange baseline),
//   2. activates complement fragments of degraded chains that became
//      C-schedulable,
//   3. degrades critical non-C-schedulable chains whose benefit
//      materialization indicator exceeds the threshold bmt (Section 4.4),
//      then invokes the DQO to split any schedulable chain that cannot fit
//      the memory budget even alone (M-schedulability, Section 4.2),
//   4. computes per-chain criticality and subtree priorities (Section 4.3),
//   5. collects schedulable fragments (C-schedulable chains + running MFs)
//      and orders them by descending priority,
//   6. admits fragments greedily under the memory budget (scheduling-plan
//      admission, Sections 4.1-4.2).
//
// The result is the *scheduling plan*: a totally ordered set of query
// fragments the DQP executes concurrently.
//
// Replanning is incremental (DESIGN.md §9): steps 4-5 are served from a
// per-scheduler cache invalidated by ExecutionState::structural_version()
// (degradations, CF activations, fragment completions, DQO splits) and by
// CommManager::SourceVersion() per source, so a replan triggered by one
// source's drift recomputes only the chains reading that source and
// repairs the sorted order. Emitted plans are byte-identical to a cold
// recompute (tests/plan_cache_test.cc).

#ifndef DQSCHED_CORE_DQS_H_
#define DQSCHED_CORE_DQS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/dqo.h"
#include "core/execution_state.h"
#include "exec/exec_context.h"

namespace dqsched::core {

/// Scheduler tunables.
struct DqsConfig {
  /// Benefit materialization threshold: a chain degrades only when
  /// bmi = w_p / (2*IO_p) exceeds this (paper fixes it to 1 for
  /// single-query experiments).
  double bmt = 1.0;
};

/// The totally ordered fragment set of one execution phase.
struct SchedulingPlan {
  /// Fragment ids, highest priority first.
  std::vector<int> fragments;
  /// Critical degree of each fragment at planning time (parallel array,
  /// nanoseconds of projected idle time; diagnostics).
  std::vector<double> critical_ns;

  bool empty() const { return fragments.empty(); }
};

/// The scheduler. Carries the incremental plan cache between phases; one
/// Dqs instance serves exactly one ExecutionState over its lifetime.
class Dqs {
 public:
  explicit Dqs(const DqsConfig& config) : config_(config) {}

  /// Produces the next scheduling plan into `plan`, mutating `state`
  /// (degradations, CF activations, DQO-mediated splits). `plan` is the
  /// caller's and is overwritten; reusing one across phases keeps planning
  /// allocation-free. An empty plan with the query unfinished is an
  /// internal error.
  Status ComputePlan(ExecutionState& state, exec::ExecContext& ctx, Dqo& dqo,
                     SchedulingPlan* plan);

  /// Critical degree of chain p: n_p * (w_p - c_p) in nanoseconds (paper
  /// Section 4.3) with n_p the tuples still to arrive, w_p the estimated
  /// mean waiting time, c_p the estimated per-tuple processing time.
  static double ChainCritical(const ExecutionState& state,
                              const exec::ExecContext& ctx, ChainId chain);

  /// Benefit materialization indicator of chain p: w_p / (2 * IO_p)
  /// (paper Section 4.4).
  static double Bmi(const ExecutionState& state, const exec::ExecContext& ctx,
                    ChainId chain);

  int64_t planning_phases() const { return planning_phases_; }
  double planning_host_seconds() const { return planning_host_seconds_; }
  /// Planning phases that rebuilt the cache from scratch (first plan,
  /// structural change) vs. phases served incrementally. Diagnostics;
  /// their sum is planning_phases().
  int64_t full_replans() const { return full_replans_; }
  int64_t incremental_replans() const { return incremental_replans_; }

 private:
  /// One schedulable fragment in canonical (construction) order: chain
  /// slots ascending, then auxiliary fragments ascending. `origin` is the
  /// chain whose subtree priority the fragment inherits (kInvalidId for
  /// origin-less auxiliaries, which rank at priority 0).
  struct Candidate {
    int fragment = kInvalidId;
    ChainId origin = kInvalidId;
    int dependents = 0;
    double priority = 0.0;
  };

  /// Everything reusable across planning phases while the structural
  /// version holds. Source-version stamps track per-chain delivery drift.
  struct PlanCache {
    bool valid = false;
    const ExecutionState* state = nullptr;
    uint64_t structural_version = 0;
    std::vector<double> critical;           // per chain
    std::vector<double> subtree;            // per chain
    std::vector<uint64_t> source_version;   // per chain, comm stamp
    std::vector<Candidate> candidates;      // canonical order
    std::vector<int> order;                 // candidate indices, sorted
  };

  DqsConfig config_;
  PlanCache cache_;
  // Scratch buffers (avoid per-phase allocation on the warm path).
  std::vector<uint8_t> dirty_mark_;
  std::vector<ChainId> dirty_chains_;
  std::vector<int> changed_order_;
  std::vector<int> kept_order_;
  int64_t planning_phases_ = 0;
  int64_t full_replans_ = 0;
  int64_t incremental_replans_ = 0;
  double planning_host_seconds_ = 0.0;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_DQS_H_

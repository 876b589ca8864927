// Query-fragment execution.
//
// A *query fragment* (paper Section 3.3) is either a pipeline chain, a
// materialization fragment MF(p), or a complement fragment CF(p)/split
// remainder. All of them execute the same way: pop a batch from the input
// source, push it through the pipelined operators, deliver to the sink,
// charging the simulation for every step. The dynamic query processor
// interleaves ProcessBatch calls across fragments per the scheduling plan.

#ifndef DQSCHED_EXEC_CHAIN_EXECUTOR_H_
#define DQSCHED_EXEC_CHAIN_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "exec/chain_source.h"
#include "exec/exec_context.h"
#include "exec/kernel_config.h"
#include "exec/operand.h"
#include "plan/compiled_plan.h"

namespace dqsched::exec {

/// Where a fragment's output goes.
enum class SinkKind {
  kOperand,  // build input of a join (blocking edge)
  kTemp,     // a temp relation (MF(p), MA phase 1, split intermediate)
  kResult,   // the query result
};

/// Static description of one executable fragment.
struct FragmentSpec {
  std::string name;
  /// Pipelined operators applied to each input tuple.
  std::vector<plan::ChainOp> ops;
  /// Leading ops already applied to materialized input batches (a CF whose
  /// MF ran the chain's leading filters). Batches flagged from_temp start
  /// at ops[temp_skip_ops].
  int temp_skip_ops = 0;
  SinkKind sink = SinkKind::kResult;
  JoinId sink_join = kInvalidId;  // kOperand
  TempId sink_temp = kInvalidId;  // kTemp
  /// The pipeline chain this fragment realizes (metrics/provenance);
  /// kInvalidId for MA phase-1 materializations.
  ChainId origin_chain = kInvalidId;
  /// Asynchronous disk I/O for this fragment's temp writes/reads.
  bool async_io = true;
  /// Operator kernel selection (vectorized vs scalar).
  KernelConfig kernels;
};

/// Per-fragment execution statistics.
struct FragmentStats {
  int64_t consumed = 0;       // input tuples
  int64_t consumed_live = 0;  // subset of `consumed` popped from a wrapper
                              // queue (vs replayed from a temp); the
                              // invariant auditor's per-source conservation
                              // law sums these against queue pops
  int64_t produced = 0;       // tuples delivered to the sink
  int64_t batches = 0;
};

/// Executable fragment: spec + source + sinks, plus open/close lifecycle.
class FragmentRuntime {
 public:
  /// `operands` and `result` must outlive the runtime.
  FragmentRuntime(FragmentSpec spec, std::unique_ptr<ChainSource> source,
                  OperandRegistry* operands, ResultCollector* result)
      : spec_(std::move(spec)),
        source_(std::move(source)),
        operands_(operands),
        result_(result) {}

  FragmentRuntime(const FragmentRuntime&) = delete;
  FragmentRuntime& operator=(const FragmentRuntime&) = delete;

  const FragmentSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// Memory that must be granted before the fragment can run: its probe
  /// operands' indexes (plus reloads if spilled). 0 once opened.
  int64_t BytesToOpen(const ExecContext& ctx) const;

  /// Loads and indexes every probed operand. Idempotent. Fails with
  /// kResourceExhausted if the memory grant fails (the caller — DQS/DQO —
  /// must then revise the plan, paper Section 4.2).
  Status Open(ExecContext& ctx);
  bool opened() const { return opened_; }

  /// Processes up to `max_tuples` input tuples. Returns the count consumed
  /// (0 when no input is ready). Opens on first use.
  Result<int64_t> ProcessBatch(ExecContext& ctx, int64_t max_tuples);

  /// True when the input is exhausted and everything was consumed.
  bool Finished(const ExecContext& ctx) const {
    return source_->Exhausted(ctx);
  }

  /// Seals the sink, releases probed operands, marks the fragment closed.
  void Close(ExecContext& ctx);
  bool closed() const { return closed_; }

  /// Early termination (an MF(p) stopped because p became schedulable):
  /// seals whatever was materialized so far and closes, without requiring
  /// the input to be exhausted. Unconsumed input stays in the queue for
  /// the complement fragment.
  void Stop(ExecContext& ctx);

  /// Cancellation: marks the fragment closed without sealing its sink or
  /// requiring exhaustion. The caller (ExecutionState::Cancel) releases
  /// operand grants registry-wide and drops the query's temps; the husk
  /// must never execute afterwards.
  void Abort() { closed_ = true; }

  /// Tuples consumable immediately.
  int64_t Available(ExecContext& ctx) { return source_->Available(ctx); }
  /// The producing wrapper is suspended on a full queue.
  bool Backpressured(const ExecContext& ctx) const {
    return source_->Backpressured(ctx);
  }
  /// Earliest time new input can appear.
  SimTime NextArrival(const ExecContext& ctx) const {
    return source_->NextArrival(ctx);
  }
  /// See ChainSource::TimeDependentArrival().
  bool TimeDependentArrival() const { return source_->TimeDependentArrival(); }

  ChainSource& source() { return *source_; }
  const ChainSource& source() const { return *source_; }
  const FragmentStats& stats() const { return stats_; }

  /// Relinquishes the input source so a plan revision can hand it to a
  /// replacement fragment. Only legal before any consumption; the runtime
  /// is unusable afterwards.
  std::unique_ptr<ChainSource> TakeSource();

 private:
  /// The pre-vectorization tuple-at-a-time kernels, kept verbatim as the
  /// equivalence oracle (spec_.kernels.scalar) and the benchmark baseline.
  Result<int64_t> ProcessBatchScalar(ExecContext& ctx,
                                     const ChainSource::PopResult& pop);
  /// Batch-at-a-time kernels: selection-vector filters, two-pass probes,
  /// bulk sink delivery. Simulated charges are byte-identical to scalar.
  Result<int64_t> ProcessBatchVectorized(ExecContext& ctx,
                                         const ChainSource::PopResult& pop);

  FragmentSpec spec_;
  std::unique_ptr<ChainSource> source_;
  OperandRegistry* operands_;
  ResultCollector* result_;
  bool opened_ = false;
  bool closed_ = false;
  FragmentStats stats_;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_CHAIN_EXECUTOR_H_

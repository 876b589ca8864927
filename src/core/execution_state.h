// Runtime bookkeeping of one query execution: the fragments realizing each
// pipeline chain, the operand registry, chain completion, PC degradation
// (MF/CF, paper Section 4.4), and memory-overflow plan splits (Section 4.2).
//
// Fragment id space: ids [0, num_chains) are the *chain slots* — the
// fragment currently realizing that chain (the PC itself, its CF after
// degradation, or the current stage after a DQO split). Ids >= num_chains
// are auxiliary fragments (MFs, MA phase-1 materializations), appended as
// they are created.

#ifndef DQSCHED_CORE_EXECUTION_STATE_H_
#define DQSCHED_CORE_EXECUTION_STATE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "exec/chain_executor.h"
#include "exec/chain_source.h"
#include "exec/exec_context.h"
#include "exec/kernel_config.h"
#include "core/trace.h"
#include "exec/operand.h"
#include "plan/compiled_plan.h"

namespace dqsched::core {

class CacheManager;

/// Per-strategy knobs that shape fragment construction.
struct ExecutionOptions {
  /// Temp I/O mode for fragments (DSE overlaps I/O with CPU; MA runs
  /// synchronously, which is part of why it loses — see DESIGN.md).
  bool async_io = true;
  /// Record scheduling decisions and batch activity (core/trace.h).
  bool trace = false;
  /// Destination for result tuples; defaults to the context's collector.
  /// Multi-query execution gives each query its own collector so answers
  /// verify independently.
  exec::ResultCollector* result_override = nullptr;
  /// True when other queries share this context (multi-query kShared):
  /// the invariant auditor then checks the memory accountant against this
  /// state's operands as a lower bound instead of an exact balance.
  bool shared_context = false;
  /// Operator kernel selection, copied into every FragmentSpec.
  exec::KernelConfig kernels;
  /// The shard's result cache, or nullptr when caching is off. The DQS
  /// probes it at plan time (segment hits rebind chains to cached temps);
  /// drivers admit completed MFs and result digests through it.
  CacheManager* cache = nullptr;
};

/// All mutable execution state of one run.
class ExecutionState {
 public:
  /// `compiled` must be annotated and must outlive the state; `ctx` is the
  /// run's context. `indexes` is the prepared instance's index set, which
  /// the operands share (exec::IndexSet); null builds every index privately.
  ExecutionState(const plan::CompiledPlan* compiled, exec::ExecContext* ctx,
                 const ExecutionOptions& options,
                 exec::IndexSet* indexes = nullptr);

  ExecutionState(const ExecutionState&) = delete;
  ExecutionState& operator=(const ExecutionState&) = delete;

  const plan::CompiledPlan& compiled() const { return *compiled_; }
  int num_chains() const { return compiled_->num_chains(); }
  int num_fragments() const { return static_cast<int>(fragments_.size()); }

  exec::FragmentRuntime& fragment(int id);
  const exec::FragmentRuntime& fragment(int id) const;
  /// False for fragments that were closed/stopped/replaced.
  bool FragmentActive(int id) const;
  ChainId FragmentChain(int id) const;
  bool IsMf(int id) const;

  /// The fragment currently realizing `chain` (slot id == chain id).
  int ChainFragment(ChainId chain) const { return chain; }

  bool ChainDone(ChainId chain) const;
  /// All ancestor chains finished (paper Section 4.1).
  bool CSchedulable(ChainId chain) const;
  bool QueryDone() const { return ChainDone(compiled_->result_chain); }

  bool Degraded(ChainId chain) const;
  bool CfActivated(ChainId chain) const;
  /// The materialization fragment of a degraded chain (kInvalidId before
  /// degradation) and the temp it materializes into.
  int MfFragment(ChainId chain) const;
  TempId MfTemp(ChainId chain) const;
  /// Leading filter ops of the chain (what MF(p) applies before its temp).
  int LeadingFilters(ChainId chain) const;
  /// Splits chain p into MF(p) + (later) CF(p): creates the
  /// materialization fragment and returns its id. Requires p not done, not
  /// C-schedulable, not yet degraded, and its fragment never started.
  int Degrade(ChainId chain, exec::ExecContext& ctx);
  /// Stops MF(p) and swaps the chain slot to CF(p), whose input is the
  /// materialized prefix followed by the live remainder.
  void ActivateCf(ChainId chain, exec::ExecContext& ctx);

  /// Memory-overflow revision (DQO, paper Section 4.2): replaces the
  /// chain's fragment by a sequence of stages, each of whose probe
  /// operands fit within `budget_bytes`, materializing intermediates to
  /// disk between stages. Fails when even a single operand exceeds the
  /// budget.
  Status SplitForMemory(ChainId chain, exec::ExecContext& ctx,
                        int64_t budget_bytes);

  /// Replaces the chain's input by a sealed temp (MA phase 2).
  void RebindChainToTemp(ChainId chain, TempId temp, exec::ExecContext& ctx);

  /// Result-cache segment hit: replaces the chain's input by the adopted
  /// sealed temp holding the cached MF segment — the source stream with
  /// the chain's leading filters pre-applied, so the fragment skips them
  /// (same complementarity as CF(p)). Requires the chain untouched: not
  /// done, not degraded, never started. The caller closes the chain's
  /// source so no live tuples race the cached copy.
  void BindChainToCachedSegment(ChainId chain, TempId temp,
                                exec::ExecContext& ctx);
  /// True once BindChainToCachedSegment rebound this chain.
  bool CacheBound(ChainId chain) const;
  /// Marks the chain as cache-probed so the per-plan lookup runs at most
  /// once per chain (deterministic hit/miss counters).
  bool CacheProbed(ChainId chain) const;
  void SetCacheProbed(ChainId chain);
  /// True once the chain's MF ran to natural completion (its temp holds
  /// the full filtered prefix of the source stream) — the admission
  /// criterion for caching the segment.
  bool MfComplete(ChainId chain) const;
  int64_t cache_bound() const { return cache_bound_; }

  /// Creates an auxiliary materialize-everything fragment for `source`
  /// (MA phase 1): no operators, raw wrapper output to a temp. Returns the
  /// fragment id; the temp is recorded and retrievable via MaTempOf().
  int CreateMaterializeAll(SourceId source, exec::ExecContext& ctx);
  TempId MaTempOf(SourceId source) const;

  /// Handles a finished fragment: closes it, advances chain staging, marks
  /// chains done. Must be called exactly once per EndOfQF event.
  void OnFragmentFinished(int id, exec::ExecContext& ctx);

  /// Cooperative cancellation (DESIGN.md §13): releases every operand
  /// grant back to the memory accountant, closes every fragment without
  /// sealing, and drops every temp this query created — leaving the state
  /// readable for metrics and still satisfying the conservation laws.
  /// Idempotent; the query must not be stepped afterwards.
  void Cancel(exec::ExecContext& ctx);
  bool cancelled() const { return cancelled_; }
  /// Drops every temp this query still owns, returning their pages to the
  /// pool. Called once the query is done or cancelled, in contexts that
  /// outlive it (the shared loop); nothing reads a finished query's temps.
  /// Idempotent.
  void Retire(exec::ExecContext& ctx);
  /// Every temp this query created (see owned_temps_).
  const std::vector<TempId>& owned_temps() const { return owned_temps_; }

  /// Estimated CPU per *live* input tuple of the fragment, nanoseconds
  /// (the scheduler's c_p).
  double FragmentCpuPerTupleNs(int id) const;
  /// Tuples still to come from the fragment's remote source (n_p of the
  /// critical degree; 0 for pure-temp inputs which never stall).
  int64_t FragmentRemainingLive(int id, const exec::ExecContext& ctx) const;

  int64_t degradations() const { return degradations_; }
  int64_t cf_activations() const { return cf_activations_; }
  int64_t dqo_splits() const { return dqo_splits_; }

  /// Bumped by every mutation that can change chain done-ness, fragment
  /// membership/activity, or degradation state (Degrade, ActivateCf,
  /// SplitForMemory, OnFragmentFinished, RebindChainToTemp,
  /// CreateMaterializeAll). The DQS plan cache keys its candidate set and
  /// sorted order on this: an unchanged version guarantees the structural
  /// inputs of planning are unchanged (delivery-side drift is tracked
  /// separately via CommManager::SourceVersion).
  uint64_t structural_version() const { return structural_version_; }

  exec::OperandRegistry& operands() { return operands_; }
  const exec::OperandRegistry& operands() const { return operands_; }
  const ExecutionOptions& options() const { return options_; }

  /// Live-queue tuples consumed by fragment runtimes of `chain` that were
  /// since retired (a finished split stage replaced by its successor).
  /// The per-source conservation law sums this with the live runtimes'
  /// FragmentStats::consumed_live against the queue's total_popped().
  int64_t RetiredLiveConsumed(ChainId chain) const;

  /// The execution trace (empty unless ExecutionOptions::trace was set).
  ExecutionTrace& trace() { return trace_; }
  const ExecutionTrace& trace() const { return trace_; }
  /// Display names per fragment id, for trace rendering.
  std::vector<std::string> FragmentNames() const;
  /// The collector this execution's result tuples flow into.
  const exec::ResultCollector& result() const { return *result_; }

 private:
  struct PendingStage {
    exec::FragmentSpec spec;
    TempId input_temp = kInvalidId;
  };

  struct FragmentSlot {
    std::unique_ptr<exec::FragmentRuntime> runtime;
    ChainId chain = kInvalidId;
    bool is_mf = false;
    bool active = true;
  };

  struct ChainState {
    bool done = false;
    bool degraded = false;
    bool cf_activated = false;
    /// The MF fragment finished naturally (full filtered prefix sealed in
    /// mf_temp) — distinguishes it from an MF stopped by CF activation,
    /// whose temp holds only a partial prefix.
    bool mf_complete = false;
    /// The chain's input was rebound to a cached segment at plan time.
    bool cache_bound = false;
    /// The segment cache was already probed for this chain this run.
    bool cache_probed = false;
    int mf_fragment = kInvalidId;
    TempId mf_temp = kInvalidId;
    /// Number of leading filter ops (what MF(p) applies before
    /// materializing).
    int leading_filters = 0;
    /// Live-queue consumption of retired stage runtimes (conservation
    /// accounting survives runtime replacement).
    int64_t retired_live_consumed = 0;
    std::deque<PendingStage> stages;
  };

  /// Builds the initial fragment realizing `chain` (full PC from its
  /// wrapper queue).
  std::unique_ptr<exec::FragmentRuntime> MakeChainFragment(ChainId chain);
  exec::FragmentSpec BaseSpecFor(ChainId chain) const;

  const plan::CompiledPlan* compiled_;
  exec::ExecContext* ctx_;
  ExecutionOptions options_;
  exec::ResultCollector* result_;
  exec::OperandRegistry operands_;
  std::vector<FragmentSlot> fragments_;
  std::vector<ChainState> chain_states_;
  std::vector<TempId> ma_temps_;  // per source, MA phase 1
  /// Every temp this query created (MF prefixes, DQO split links, MA
  /// materializations, adopted cache segments; not operand spills — those
  /// belong to the operand), so Retire and Cancel can return their space.
  std::vector<TempId> owned_temps_;
  ExecutionTrace trace_;
  bool cancelled_ = false;
  int64_t split_serial_ = 0;      // unique suffixes for split stage names
  uint64_t structural_version_ = 0;
  int64_t cache_bound_ = 0;
  int64_t degradations_ = 0;
  int64_t cf_activations_ = 0;
  int64_t dqo_splits_ = 0;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_EXECUTION_STATE_H_

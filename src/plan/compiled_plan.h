// Pipeline-chain decomposition of a logical plan.
//
// "A QEP can be decomposed into a set of maximum pipeline chains. A
// pipeline chain (PC) is the maximal set of physical operators linked by
// pipelinable edges. Blocking edges induce dependency constraints between
// PCs." (paper Section 2.2). Each chain starts at a scan, flows through
// filters and hash-join probes, and ends either at an *operand sink*
// (feeding the build side of a parent join across a blocking edge — the
// paper's implicit `mat`) or at the *result sink* (query output).
//
// The compiled form is what the scheduler (DQS), processor (DQP), and
// optimizer (DQO) operate on.

#ifndef DQSCHED_PLAN_COMPILED_PLAN_H_
#define DQSCHED_PLAN_COMPILED_PLAN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "plan/plan_node.h"
#include "sim/cost_model.h"
#include "wrapper/catalog.h"

namespace dqsched::plan {

enum class ChainOpKind { kFilter, kProbe };

/// One pipelined physical operator within a chain.
struct ChainOp {
  ChainOpKind kind = ChainOpKind::kFilter;
  /// Originating plan node. For filters this also identifies the
  /// deterministic pseudo-predicate, so every strategy and the reference
  /// executor filter identically.
  NodeId node = kInvalidId;
  // kFilter
  double selectivity = 1.0;
  // kProbe
  JoinId join = kInvalidId;
  int probe_key_field = 0;
};

/// Static description of one pipeline chain.
struct ChainInfo {
  ChainId id = kInvalidId;
  std::string name;
  /// Remote source feeding the chain head.
  SourceId source = kInvalidId;
  /// Pipelined operators, applied in order to each source tuple.
  std::vector<ChainOp> ops;
  /// True for the single chain whose sink is the query result.
  bool is_result = false;
  /// When !is_result: the join whose build operand this chain produces.
  JoinId sink_join = kInvalidId;
  /// Key field the operand will be hashed on (a field of this chain's
  /// carrier relation).
  int build_key_field = 0;
  /// Chains that directly block this one: the operand producers of this
  /// chain's probe ops ("p1 blocks p2" of paper Section 4.1).
  std::vector<ChainId> blockers;

  // --- Annotations (filled by Annotate(); estimates, not exact) ----------
  double est_input_card = 0.0;
  double est_output_card = 0.0;
  /// c_p: mediator CPU per source tuple, nanoseconds (receive + operator
  /// work amortized over expected fanouts).
  double est_cpu_per_tuple_ns = 0.0;
  /// One-time CPU when the chain opens (building hash indexes over its
  /// probe operands), nanoseconds.
  double est_open_cpu_ns = 0.0;
  /// Hard memory requirement while the chain runs: the hash
  /// tables/operands of every join it probes (paper: sum of mem(op)).
  double est_mem_bytes = 0.0;
  /// Soft (spillable) memory: this chain's own operand accumulation.
  double est_sink_mem_bytes = 0.0;
};

/// A fully decomposed plan.
struct CompiledPlan {
  std::vector<ChainInfo> chains;
  ChainId result_chain = kInvalidId;
  int num_joins = 0;
  /// join id -> chain producing its build operand.
  std::vector<ChainId> operand_of_join;
  /// join id -> key field the operand is hashed on.
  std::vector<int> join_build_field;

  int num_chains() const { return static_cast<int>(chains.size()); }
  const ChainInfo& chain(ChainId id) const {
    return chains[static_cast<size_t>(id)];
  }

  // --- Closure index (filled by Compile() via BuildClosureIndex) --------
  // Flattened transitive closure of the blocker DAG in CSR layout: chain
  // c's entries occupy [offset[c], offset[c+1]) of the arena, sorted by
  // ascending chain id. ancestors*(c) must all finish before c becomes
  // C-schedulable; descendants*(c) are the chains c transitively gates
  // (its transitive dependents). The scheduler's hot path reads these
  // spans; the allocating DFS Ancestors() below stays as the reference
  // implementation for the auditor and the randomized equivalence test.
  std::vector<int32_t> anc_offset;
  std::vector<ChainId> anc_arena;
  std::vector<int32_t> desc_offset;
  std::vector<ChainId> desc_arena;

  bool HasClosureIndex() const {
    return anc_offset.size() == chains.size() + 1;
  }
  /// ancestors*(id), ascending. Requires HasClosureIndex().
  std::span<const ChainId> AncestorsOf(ChainId id) const {
    const auto i = static_cast<size_t>(id);
    return {anc_arena.data() + anc_offset[i],
            static_cast<size_t>(anc_offset[i + 1] - anc_offset[i])};
  }
  /// descendants*(id) — the chains transitively blocked by `id` —
  /// ascending. Requires HasClosureIndex().
  std::span<const ChainId> TransitiveDependentsOf(ChainId id) const {
    const auto i = static_cast<size_t>(id);
    return {desc_arena.data() + desc_offset[i],
            static_cast<size_t>(desc_offset[i + 1] - desc_offset[i])};
  }
  /// |descendants*(id)|: the DQS's unblocking-power tie-breaker, as a
  /// table read instead of an O(chains * edges) DFS sweep.
  int NumTransitiveDependents(ChainId id) const {
    const auto i = static_cast<size_t>(id);
    return desc_offset[i + 1] - desc_offset[i];
  }

  /// (Re)builds the closure index from `chains[*].blockers`. Requires an
  /// acyclic blocker relation (always true for compiled plans; hand-built
  /// cyclic plans must not call this).
  void BuildClosureIndex();
  /// Cross-checks the index against the reference DFS (Ancestors());
  /// Internal error naming the first mismatching chain otherwise.
  Status ValidateClosureIndex() const;

  /// Transitive closure of the blocker relation for `id` (the paper's
  /// ancestors*(p)). Reference implementation: allocating DFS + sort.
  /// Hot paths must use AncestorsOf() (enforced by dqs_analyze).
  std::vector<ChainId> Ancestors(ChainId id) const;

  /// The execution order of the classical iterator model: for each join,
  /// the build operand's chain runs to completion before the probe chain
  /// starts; recursively, left (build) to right (probe). Used by SEQ and by
  /// MA's phase 2.
  std::vector<ChainId> IteratorModelOrder() const;
};

/// Decomposes a validated plan into pipeline chains.
Result<CompiledPlan> Compile(const Plan& plan, const wrapper::Catalog& catalog);

/// Fills the annotation fields of every chain from catalog statistics and
/// the cost model. Estimated fanout of a probe = est operand cardinality /
/// key domain of the probe field. The catalog arrives validated
/// (Catalog::Validate, which PrepareQuery runs); only the cost model is
/// checked here.
Status Annotate(CompiledPlan* compiled, const wrapper::Catalog& catalog,
                const sim::CostModel& cost);

}  // namespace dqsched::plan

#endif  // DQSCHED_PLAN_COMPILED_PLAN_H_

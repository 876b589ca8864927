// A classical dynamic-programming join-order optimizer producing bushy
// plans — the compile-time half of the paper's architecture ("The query
// optimizer first generates an 'optimal' QEP ... Bushy plans are the most
// general and the most appealing", Section 2.2). The mediator's dynamic
// machinery then schedules whatever this produces.
//
// Scope: acyclic (tree-shaped) join graphs over catalog relations, cost
// model C_out (sum of intermediate result cardinalities), exhaustive DP
// over connected sub-graphs. Tracks the *carrier* relation of every
// sub-plan (the deep probe-side leaf whose attributes flow upward) so that
// every produced hash join keys on attributes actually present in its
// inputs — the physical constraint dqsched tuples impose.

#ifndef DQSCHED_PLAN_OPTIMIZER_H_
#define DQSCHED_PLAN_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "plan/plan_node.h"
#include "wrapper/catalog.h"

namespace dqsched::plan {

/// One equi-join predicate: relation a's field matches relation b's field;
/// both fields are uniform over [0, domain).
struct JoinEdge {
  SourceId a = kInvalidId;
  int a_field = 0;
  SourceId b = kInvalidId;
  int b_field = 0;
  int64_t domain = 1;
};

/// Runs the DP over `edges` (which must form a spanning tree of the
/// catalog's relations) and returns the cheapest bushy plan. Practical up
/// to ~14 relations; more than 20 is InvalidArgument (the DP tables are
/// indexed by relation subset).
Result<Plan> OptimizeBushy(const wrapper::Catalog& catalog,
                           const std::vector<JoinEdge>& edges);

/// Estimated C_out cost of an arbitrary validated plan under the textbook
/// cardinality model (used by tests to compare optimizer output against
/// alternatives).
double EstimatePlanCost(const Plan& plan, const wrapper::Catalog& catalog);

}  // namespace dqsched::plan

#endif  // DQSCHED_PLAN_OPTIMIZER_H_

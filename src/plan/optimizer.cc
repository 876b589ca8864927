#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"

namespace dqsched::plan {

namespace {

/// Validates that `edges` forms a spanning tree with at most
/// kTupleKeyFields predicates per relation and distinct fields per use.
Status ValidateEdges(const wrapper::Catalog& catalog,
                     const std::vector<JoinEdge>& edges) {
  const int n = catalog.num_sources();
  if (static_cast<int>(edges.size()) != n - 1) {
    return Status::InvalidArgument(
        "join graph must be a spanning tree (expected " +
        std::to_string(n - 1) + " edges, got " +
        std::to_string(edges.size()) + ")");
  }
  std::vector<uint8_t> field_used(static_cast<size_t>(n) *
                                  storage::kTupleKeyFields);
  auto use = [&](SourceId r, int f) -> Status {
    if (r < 0 || r >= n) return Status::InvalidArgument("edge endpoint out of range");
    if (f < 0 || f >= storage::kTupleKeyFields) {
      return Status::InvalidArgument("edge field out of range");
    }
    uint8_t& slot =
        field_used[static_cast<size_t>(r) * storage::kTupleKeyFields +
                   static_cast<size_t>(f)];
    if (slot) {
      return Status::InvalidArgument("field " + std::to_string(f) +
                                     " of relation " + std::to_string(r) +
                                     " used by two join predicates");
    }
    slot = 1;
    return Status::Ok();
  };
  // Union-find for connectivity.
  std::vector<int> parent(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) x = parent[static_cast<size_t>(x)];
    return x;
  };
  for (const JoinEdge& e : edges) {
    DQS_RETURN_IF_ERROR(use(e.a, e.a_field));
    DQS_RETURN_IF_ERROR(use(e.b, e.b_field));
    if (e.domain < 1) return Status::InvalidArgument("edge domain < 1");
    const int ra = find(e.a), rb = find(e.b);
    if (ra == rb) return Status::InvalidArgument("join graph has a cycle");
    parent[static_cast<size_t>(ra)] = rb;
  }
  return Status::Ok();
}

/// DP table entry for (subset, carrier).
struct DpEntry {
  double cost = std::numeric_limits<double>::infinity();
  uint32_t build_mask = 0;  // 0 => leaf scan
  SourceId build_carrier = kInvalidId;
  int edge = -1;  // the cross predicate joined on
};

}  // namespace

Result<Plan> OptimizeBushy(const wrapper::Catalog& catalog,
                           const std::vector<JoinEdge>& edges) {
  DQS_RETURN_IF_ERROR(catalog.Validate());
  const int n = catalog.num_sources();
  if (n > 20) {
    return Status::InvalidArgument(
        "DP optimizer supports at most 20 relations, got " +
        std::to_string(n));
  }

  if (n == 1) {
    Plan plan;
    plan.SetRoot(plan.AddScan(0));
    return plan;
  }
  DQS_RETURN_IF_ERROR(ValidateEdges(catalog, edges));

  const uint32_t full = (1u << n) - 1;
  // Cardinality of each connected subset under the textbook model:
  // product of base cardinalities times 1/domain per internal predicate.
  std::vector<double> card(full + 1, 0.0);
  for (uint32_t s = 1; s <= full; ++s) {
    double c = 1.0;
    for (int r = 0; r < n; ++r) {
      if (s & (1u << r)) {
        c *= static_cast<double>(catalog.source(r).relation.cardinality);
      }
    }
    for (const JoinEdge& e : edges) {
      if ((s & (1u << e.a)) && (s & (1u << e.b))) {
        c /= static_cast<double>(e.domain);
      }
    }
    card[s] = c;
  }

  // dp[s][carrier].
  std::vector<std::vector<DpEntry>> dp(
      full + 1, std::vector<DpEntry>(static_cast<size_t>(n)));
  for (int r = 0; r < n; ++r) {
    dp[1u << r][static_cast<size_t>(r)].cost = 0.0;
  }

  // Subsets in increasing popcount order; plain increasing order works
  // because every proper submask is numerically smaller.
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;  // singleton
    const uint32_t low = s & (0u - s);
    for (uint32_t left = (s - 1) & s; left; left = (left - 1) & s) {
      if (!(left & low)) continue;  // canonical split: left holds low bit
      const uint32_t right = s & ~left;
      // Tree graph: a valid split has exactly one cross predicate.
      int cross = -1;
      bool multiple = false;
      for (size_t ei = 0; ei < edges.size(); ++ei) {
        const JoinEdge& e = edges[ei];
        const bool a_left = (left >> e.a) & 1, b_left = (left >> e.b) & 1;
        if (((left & (1u << e.a)) != 0) != ((left & (1u << e.b)) != 0) &&
            (s & (1u << e.a)) && (s & (1u << e.b))) {
          if (cross >= 0) multiple = true;
          cross = static_cast<int>(ei);
        }
        (void)a_left;
        (void)b_left;
      }
      if (cross < 0 || multiple) continue;
      const JoinEdge& e = edges[static_cast<size_t>(cross)];
      // Orientation 1: the side holding e.a builds (hashed on a_field),
      // the side holding e.b probes (carrier must be e.b). Orientation 2
      // is the mirror.
      const uint32_t a_side = (left & (1u << e.a)) ? left : right;
      const uint32_t b_side = s & ~a_side;
      const auto relax = [&](uint32_t bmask, SourceId bcar, uint32_t pmask,
                             SourceId pcar) {
        const DpEntry& b = dp[bmask][static_cast<size_t>(bcar)];
        const DpEntry& p = dp[pmask][static_cast<size_t>(pcar)];
        if (!std::isfinite(b.cost) || !std::isfinite(p.cost)) return;
        const double total = b.cost + p.cost + card[s];
        DpEntry& out = dp[s][static_cast<size_t>(pcar)];
        if (total < out.cost) {
          out.cost = total;
          out.build_mask = bmask;
          out.build_carrier = bcar;
          out.edge = cross;
        }
      };
      relax(a_side, e.a, b_side, e.b);
      relax(b_side, e.b, a_side, e.a);
    }
  }

  // Pick the best carrier for the full set and reconstruct.
  SourceId best_carrier = kInvalidId;
  for (int r = 0; r < n; ++r) {
    if (dp[full][static_cast<size_t>(r)].cost <
        (best_carrier == kInvalidId
             ? std::numeric_limits<double>::infinity()
             : dp[full][static_cast<size_t>(best_carrier)].cost)) {
      best_carrier = r;
    }
  }
  if (best_carrier == kInvalidId) {
    return Status::Internal("DP found no plan (disconnected join graph?)");
  }

  Plan plan;
  std::vector<NodeId> scans(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) scans[static_cast<size_t>(r)] = plan.AddScan(r);

  // Recursive reconstruction of (subset, carrier) -> node id.
  auto build = [&](auto&& self, uint32_t s, SourceId carrier) -> NodeId {
    if ((s & (s - 1)) == 0) return scans[static_cast<size_t>(carrier)];
    const DpEntry& entry = dp[s][static_cast<size_t>(carrier)];
    DQS_CHECK_MSG(std::isfinite(entry.cost), "reconstruction hit an "
                                             "unreachable DP state");
    const JoinEdge& e = edges[static_cast<size_t>(entry.edge)];
    const uint32_t pmask = s & ~entry.build_mask;
    const NodeId bnode = self(self, entry.build_mask, entry.build_carrier);
    const NodeId pnode = self(self, pmask, carrier);
    const bool build_is_a = entry.build_carrier == e.a;
    return plan.AddHashJoin(bnode, pnode,
                            build_is_a ? e.a_field : e.b_field,
                            build_is_a ? e.b_field : e.a_field);
  };
  plan.SetRoot(build(build, full, best_carrier));
  DQS_RETURN_IF_ERROR(plan.Validate(catalog));
  return plan;
}

double EstimatePlanCost(const Plan& plan, const wrapper::Catalog& catalog) {
  struct Est {
    double card = 0.0;
    double cost = 0.0;
    SourceId carrier = kInvalidId;
  };
  auto visit = [&](auto&& self, NodeId id) -> Est {
    const PlanNode& node = plan.node(id);
    switch (node.type) {
      case OpType::kScan:
        return {static_cast<double>(
                    catalog.source(node.source).relation.cardinality),
                0.0, node.source};
      case OpType::kFilter: {
        Est in = self(self, node.input);
        return {in.card * node.selectivity, in.cost, in.carrier};
      }
      case OpType::kHashJoin: {
        const Est b = self(self, node.build);
        const Est p = self(self, node.probe);
        const int64_t domain =
            catalog.source(p.carrier)
                .relation.key_domain[static_cast<size_t>(node.probe_key_field)];
        const double out =
            p.card * (b.card / static_cast<double>(domain < 1 ? 1 : domain));
        return {out, b.cost + p.cost + out, p.carrier};
      }
    }
    return {};
  };
  return visit(visit, plan.root()).cost;
}

}  // namespace dqsched::plan

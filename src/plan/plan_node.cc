#include "plan/plan_node.h"

#include <vector>

#include "common/macros.h"
#include "storage/tuple.h"

namespace dqsched::plan {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kScan:
      return "Scan";
    case OpType::kFilter:
      return "Filter";
    case OpType::kHashJoin:
      return "HashJoin";
  }
  return "Unknown";
}

NodeId Plan::Add(PlanNode node) {
  node.id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  return node.id;
}

NodeId Plan::AddScan(SourceId source) {
  PlanNode n;
  n.type = OpType::kScan;
  n.source = source;
  return Add(n);
}

NodeId Plan::AddFilter(NodeId input, double selectivity) {
  PlanNode n;
  n.type = OpType::kFilter;
  n.input = input;
  n.selectivity = selectivity;
  return Add(n);
}

NodeId Plan::AddHashJoin(NodeId build, NodeId probe, int build_key_field,
                         int probe_key_field) {
  PlanNode n;
  n.type = OpType::kHashJoin;
  n.build = build;
  n.probe = probe;
  n.build_key_field = build_key_field;
  n.probe_key_field = probe_key_field;
  return Add(n);
}

const PlanNode& Plan::node(NodeId id) const {
  DQS_CHECK_MSG(id >= 0 && id < size(), "bad node id %d", id);
  return nodes_[static_cast<size_t>(id)];
}

Status Plan::Validate(const wrapper::Catalog& catalog) const {
  if (nodes_.empty()) return Status::InvalidArgument("plan has no nodes");
  if (root_ < 0 || root_ >= size()) {
    return Status::InvalidArgument("plan root is not set or out of range");
  }
  std::vector<int> child_refs(nodes_.size(), 0);
  std::vector<int> source_refs(static_cast<size_t>(catalog.num_sources()), 0);
  auto check_child = [&](NodeId parent, NodeId child,
                         const char* role) -> Status {
    if (child < 0 || child >= size()) {
      return Status::InvalidArgument("node " + std::to_string(parent) +
                                     " has invalid " + role + " child");
    }
    ++child_refs[static_cast<size_t>(child)];
    return Status::Ok();
  };
  for (const PlanNode& n : nodes_) {
    switch (n.type) {
      case OpType::kScan:
        if (n.source < 0 || n.source >= catalog.num_sources()) {
          return Status::InvalidArgument("scan node " + std::to_string(n.id) +
                                         " references unknown source");
        }
        ++source_refs[static_cast<size_t>(n.source)];
        break;
      case OpType::kFilter: {
        DQS_RETURN_IF_ERROR(check_child(n.id, n.input, "filter"));
        if (!(n.selectivity >= 0.0 && n.selectivity <= 1.0)) {
          return Status::InvalidArgument("filter node " +
                                         std::to_string(n.id) +
                                         " selectivity out of [0,1]");
        }
        break;
      }
      case OpType::kHashJoin: {
        DQS_RETURN_IF_ERROR(check_child(n.id, n.build, "build"));
        DQS_RETURN_IF_ERROR(check_child(n.id, n.probe, "probe"));
        if (n.build == n.probe) {
          return Status::InvalidArgument("join node " + std::to_string(n.id) +
                                         " has identical children");
        }
        if (n.build_key_field < 0 ||
            n.build_key_field >= storage::kTupleKeyFields ||
            n.probe_key_field < 0 ||
            n.probe_key_field >= storage::kTupleKeyFields) {
          return Status::InvalidArgument("join node " + std::to_string(n.id) +
                                         " key field out of range");
        }
        break;
      }
    }
  }
  // Tree shape: the root has no parent, every other node exactly one.
  for (const PlanNode& n : nodes_) {
    const int refs = child_refs[static_cast<size_t>(n.id)];
    if (n.id == root_) {
      if (refs != 0) {
        return Status::InvalidArgument("root node is referenced as a child");
      }
    } else if (refs != 1) {
      return Status::InvalidArgument(
          "node " + std::to_string(n.id) + " is referenced " +
          std::to_string(refs) + " times (plan must be a tree)");
    }
  }
  for (size_t s = 0; s < source_refs.size(); ++s) {
    if (source_refs[s] > 1) {
      return Status::InvalidArgument(
          "source " + catalog.sources[s].relation.name +
          " is scanned more than once");
    }
  }
  return Status::Ok();
}

std::string Plan::ToString(const wrapper::Catalog& catalog) const {
  // Recursive rendering; plans are small (tens of nodes).
  struct Render {
    const Plan* plan;
    const wrapper::Catalog* cat;
    std::string Visit(NodeId id) const {
      const PlanNode& n = plan->node(id);
      switch (n.type) {
        case OpType::kScan:
          return cat->source(n.source).relation.name;
        case OpType::kFilter:
          return "F" + std::to_string(n.selectivity).substr(0, 4) + "(" +
                 Visit(n.input) + ")";
        case OpType::kHashJoin:
          return "HJ(" + Visit(n.build) + "," + Visit(n.probe) + ")";
      }
      return "?";
    }
  };
  return Render{this, &catalog}.Visit(root_);
}

}  // namespace dqsched::plan

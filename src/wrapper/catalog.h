// The catalog: static description of every participating data source —
// its relation spec (cardinality, key domains) and its delivery behaviour
// (delay model). A (catalog, plan, seed) triple fully determines an
// execution.

#ifndef DQSCHED_WRAPPER_CATALOG_H_
#define DQSCHED_WRAPPER_CATALOG_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "storage/relation.h"
#include "wrapper/delay_model.h"
#include "wrapper/fault_model.h"

namespace dqsched::wrapper {

/// One remote source: data distribution + delivery behaviour.
struct SourceSpec {
  storage::RelationSpec relation;
  DelayConfig delay;
  /// Scheduled misbehaviour (empty = a perfectly reliable source). Any
  /// non-empty schedule makes the mediator arm failure detection.
  FaultSchedule faults;
};

/// All sources of an integration query.
struct Catalog {
  std::vector<SourceSpec> sources;

  int num_sources() const { return static_cast<int>(sources.size()); }

  const SourceSpec& source(SourceId id) const {
    return sources[static_cast<size_t>(id)];
  }
  SourceSpec& source(SourceId id) { return sources[static_cast<size_t>(id)]; }

  /// Looks a source up by relation name; kInvalidId when absent.
  SourceId Find(const std::string& name) const;

  /// Checks ids, cardinalities and delay configs, and that each source's
  /// worst-case total retrieval time fits 64-bit nanoseconds.
  Status Validate() const;
};

}  // namespace dqsched::wrapper

#endif  // DQSCHED_WRAPPER_CATALOG_H_

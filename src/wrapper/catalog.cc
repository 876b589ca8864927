#include "wrapper/catalog.h"

#include "common/sim_time.h"

namespace dqsched::wrapper {

SourceId Catalog::Find(const std::string& name) const {
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].relation.name == name) return static_cast<SourceId>(i);
  }
  return kInvalidId;
}

Status Catalog::Validate() const {
  if (sources.empty()) {
    return Status::InvalidArgument("catalog has no sources");
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    const SourceSpec& s = sources[i];
    if (s.relation.name.empty()) {
      return Status::InvalidArgument("source " + std::to_string(i) +
                                     " has no name");
    }
    if (s.relation.cardinality < 0) {
      return Status::InvalidArgument("source " + s.relation.name +
                                     " has negative cardinality");
    }
    for (int64_t d : s.relation.key_domain) {
      if (d < 1) {
        return Status::InvalidArgument("source " + s.relation.name +
                                       " has key domain < 1");
      }
    }
    Status delay = s.delay.Validate();
    if (!delay.ok()) return delay;
    // Uniform draws reach twice the mean, so twice the expected total
    // bounds the last arrival time, which must fit a nanosecond SimTime
    // (and so must the LWB's retrieval term).
    if (!FitsInt64(2.0 * MakeDelayModel(s.delay)->ExpectedTotalNs(
                             s.relation.cardinality))) {
      return Status::InvalidArgument(
          "source " + s.relation.name +
          ": total retrieval time overflows 64-bit nanoseconds");
    }
    Status faults = s.faults.Validate();
    if (!faults.ok()) {
      return Status::InvalidArgument("source " + s.relation.name + ": " +
                                     faults.message());
    }
    for (size_t j = 0; j < i; ++j) {
      if (sources[j].relation.name == s.relation.name) {
        return Status::InvalidArgument("duplicate source name " +
                                       s.relation.name);
      }
    }
  }
  return Status::Ok();
}

}  // namespace dqsched::wrapper

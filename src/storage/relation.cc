#include "storage/relation.h"

#include "common/macros.h"

namespace dqsched::storage {

Relation GenerateRelation(const RelationSpec& spec, SourceId source, Rng rng) {
  DQS_CHECK_MSG(spec.cardinality >= 0, "negative cardinality for %s",
                spec.name.c_str());
  Relation rel;
  rel.name = spec.name;
  // Append fully formed tuples into reserved space: the array is written
  // once, never zero-filled first.
  rel.tuples.reserve(static_cast<size_t>(spec.cardinality));
  for (int64_t i = 0; i < spec.cardinality; ++i) {
    Tuple t;
    for (int f = 0; f < kTupleKeyFields; ++f) {
      const int64_t domain = spec.key_domain[static_cast<size_t>(f)];
      t.keys[f] = domain > 1
                      ? static_cast<int64_t>(
                            rng.Uniform(static_cast<uint64_t>(domain)))
                      : 0;
    }
    t.rowid = MakeRowid(source, i);
    rel.tuples.push_back(t);
  }
  return rel;
}

}  // namespace dqsched::storage

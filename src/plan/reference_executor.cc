#include "plan/reference_executor.h"

#include "common/macros.h"
#include "exec/hash_index.h"

namespace dqsched::plan {

ReferenceResult ExecuteReference(const CompiledPlan& compiled,
                                 const std::vector<storage::Relation>& data) {
  using storage::Tuple;
  ReferenceResult out;
  out.chains.resize(static_cast<size_t>(compiled.num_chains()));
  out.op_outputs.resize(static_cast<size_t>(compiled.num_chains()));

  // Per join: the key index over its materialized build operand. Its
  // entries carry the build rowids, so the operand itself is not kept.
  std::vector<exec::HashIndex> indexes(
      static_cast<size_t>(compiled.num_joins));

  // The oracle filters tuple at a time and probes with the executor's
  // two-pass count/expand kernel, over whole relations instead of
  // batches, with no charging.
  std::vector<uint64_t> first;
  std::vector<uint32_t> counts;

  for (ChainId id : compiled.IteratorModelOrder()) {
    const ChainInfo& chain = compiled.chain(id);
    DQS_CHECK_MSG(static_cast<size_t>(chain.source) < data.size(),
                  "no data for source %d", chain.source);
    const std::vector<Tuple>& input =
        data[static_cast<size_t>(chain.source)].tuples;
    out.chains[static_cast<size_t>(id)].input_card =
        static_cast<int64_t>(input.size());

    std::vector<Tuple> cur(input);
    for (const ChainOp& op : chain.ops) {
      std::vector<Tuple> next;
      switch (op.kind) {
        case ChainOpKind::kFilter:
          for (const Tuple& t : cur) {
            if (storage::FilterPasses(t.rowid, op.node, op.selectivity)) {
              next.push_back(t);
            }
          }
          break;
        case ChainOpKind::kProbe: {
          const auto& index = indexes[static_cast<size_t>(op.join)];
          const size_t key_field =
              static_cast<size_t>(op.probe_key_field);
          const size_t n = cur.size();
          first.resize(n);
          counts.resize(n);
          // Pass 1: each probe's match count and first match.
          int64_t total = 0;
          for (size_t i = 0; i < n; ++i) {
            const int64_t key = cur[i].keys[key_field];
            counts[i] =
                index.CountMatches(index.BucketOf(key), key, &first[i]);
            total += counts[i];
          }
          // Pass 2: expansion at precomputed size.
          next.resize(static_cast<size_t>(total));
          size_t off = 0;
          for (size_t i = 0; i < n; ++i) {
            if (counts[i] == 0) continue;
            const Tuple& t = cur[i];
            index.ForEachMatchFromN(
                first[i], t.keys[key_field], counts[i],
                [&](const exec::HashIndex::Entry& e) {
                  Tuple r = t;  // probe-side fields carry through
                  r.rowid = storage::CombineRowid(e.rowid, t.rowid);
                  next[off++] = r;
                });
          }
          break;
        }
      }
      cur = std::move(next);
      out.op_outputs[static_cast<size_t>(id)].push_back(
          static_cast<int64_t>(cur.size()));
    }

    out.chains[static_cast<size_t>(id)].output_card =
        static_cast<int64_t>(cur.size());
    if (chain.is_result) {
      for (const Tuple& t : cur) out.checksum.Add(t);
      out.result_card = static_cast<int64_t>(cur.size());
    } else {
      const int field =
          compiled.join_build_field[static_cast<size_t>(chain.sink_join)];
      indexes[static_cast<size_t>(chain.sink_join)].Build(cur, field);
    }
  }
  return out;
}

}  // namespace dqsched::plan

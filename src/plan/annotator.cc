// Cost/cardinality annotation of compiled plans (the "annotated query
// execution plan" of paper Section 3.3: memory requirement of each
// operator and estimated result sizes, plus the per-tuple CPU cost c_p the
// scheduler's critical degree needs).

#include <cmath>

#include "common/macros.h"
#include "plan/compiled_plan.h"

namespace dqsched::plan {

Status Annotate(CompiledPlan* compiled, const wrapper::Catalog& catalog,
                const sim::CostModel& cost) {
  DQS_RETURN_IF_ERROR(cost.Validate());

  // Chains are created result-first; a chain's blockers always have larger
  // ids, so descending id order annotates operands before their consumers.
  for (int i = compiled->num_chains() - 1; i >= 0; --i) {
    ChainInfo& chain = compiled->chains[static_cast<size_t>(i)];
    const auto& src_rel = catalog.source(chain.source).relation;
    chain.est_input_card = static_cast<double>(src_rel.cardinality);

    double multiplier = 1.0;  // expected output tuples per source tuple
    // Receive from the network plus the scan's per-tuple move.
    double cpu_ns = static_cast<double>(cost.ReceiveTupleCpuTime()) +
                    static_cast<double>(cost.InstrTime(cost.instr_move_tuple));
    double open_ns = 0.0;
    double mem = 0.0;

    for (const ChainOp& op : chain.ops) {
      switch (op.kind) {
        case ChainOpKind::kFilter:
          cpu_ns += multiplier *
                    static_cast<double>(cost.InstrTime(cost.instr_move_tuple));
          multiplier *= op.selectivity;
          break;
        case ChainOpKind::kProbe: {
          const ChainId opnd =
              compiled->operand_of_join[static_cast<size_t>(op.join)];
          const double operand_card =
              compiled->chain(opnd).est_output_card;
          const int64_t domain =
              src_rel.key_domain[static_cast<size_t>(op.probe_key_field)];
          const double fanout =
              operand_card / static_cast<double>(domain < 1 ? 1 : domain);
          cpu_ns +=
              multiplier *
              static_cast<double>(cost.InstrTime(cost.instr_hash_probe));
          cpu_ns += multiplier * fanout *
                    static_cast<double>(
                        cost.InstrTime(cost.instr_produce_result));
          multiplier *= fanout;
          open_ns += operand_card *
                     static_cast<double>(cost.InstrTime(cost.instr_hash_insert));
          mem += operand_card * static_cast<double>(cost.OperandEntryBytes());
          break;
        }
      }
    }
    // Sink: move into the operand buffer / result collector.
    cpu_ns += multiplier *
              static_cast<double>(cost.InstrTime(cost.instr_move_tuple));

    chain.est_output_card = chain.est_input_card * multiplier;
    chain.est_cpu_per_tuple_ns = cpu_ns;
    chain.est_open_cpu_ns = open_ns;
    chain.est_mem_bytes = mem;
    chain.est_sink_mem_bytes =
        chain.is_result
            ? 0.0
            : chain.est_output_card *
                  static_cast<double>(cost.tuple_size_bytes);
  }
  return Status::Ok();
}

}  // namespace dqsched::plan

#include "core/dqo.h"

#include <algorithm>
#include <vector>

namespace dqsched::core {

Status Dqo::HandleMemoryOverflow(ExecutionState& state,
                                 exec::ExecContext& ctx, ChainId chain) {
  exec::FragmentRuntime& rt = state.fragment(state.ChainFragment(chain));

  // Step 1: evict resident operands this chain does NOT probe (largest
  // first) until the chain fits the available memory. Their probers reload
  // them later, when this chain's grants are gone.
  std::vector<bool> probed(static_cast<size_t>(state.operands().count()),
                           false);
  for (const plan::ChainOp& op : rt.spec().ops) {
    if (op.kind == plan::ChainOpKind::kProbe) {
      probed[static_cast<size_t>(op.join)] = true;
    }
  }
  auto fits_available = [&] {
    return rt.BytesToOpen(ctx) <= ctx.memory.available();
  };
  while (!fits_available()) {
    exec::Operand* victim = nullptr;
    for (JoinId j = 0; j < state.operands().count(); ++j) {
      if (probed[static_cast<size_t>(j)]) continue;
      exec::Operand& candidate = state.operands().Get(j);
      if (!candidate.sealed() || candidate.loaded() ||
          candidate.resident_bytes() == 0) {
        continue;
      }
      if (victim == nullptr ||
          candidate.resident_bytes() > victim->resident_bytes()) {
        victim = &candidate;
      }
    }
    if (victim == nullptr) break;
    if (state.trace().enabled()) {
      state.trace().Record(ctx.clock.now(), TraceEventKind::kOperandSpill,
                           -1,
                           victim->name() + " evicted (" +
                               std::to_string(victim->cardinality()) +
                               " tuples)");
    }
    victim->SpillToDisk(ctx);
    ++spills_;
  }
  if (fits_available()) return Status::Ok();  // retry without a split

  // Step 2: split the chain so each stage's operands fit against what is
  // available now (later stages run after earlier grants are released).
  if (state.SplitForMemory(chain, ctx, ctx.memory.available()).ok()) {
    return Status::Ok();
  }

  // Step 3: last resort — evict this chain's own unloaded operands too.
  // Each stage then reloads exactly the operands it probes (extra I/O in
  // exchange for feasibility), which shrinks the resident footprint to
  // one stage's worth.
  for (const plan::ChainOp& op : rt.spec().ops) {
    if (op.kind != plan::ChainOpKind::kProbe) continue;
    exec::Operand& operand = state.operands().Get(op.join);
    if (operand.sealed() && !operand.loaded() &&
        operand.resident_bytes() > 0) {
      if (state.trace().enabled()) {
        state.trace().Record(ctx.clock.now(), TraceEventKind::kOperandSpill,
                             -1,
                             operand.name() + " evicted for staged reload");
      }
      operand.SpillToDisk(ctx);
      ++spills_;
    }
  }
  if (fits_available()) return Status::Ok();
  Status split = state.SplitForMemory(chain, ctx, ctx.memory.available());
  if (split.ok()) return split;
  // Only fails when a single operand + index exceeds the whole budget.
  return state.SplitForMemory(chain, ctx, ctx.memory.budget());
}

}  // namespace dqsched::core

#include "core/execution_state.h"

#include "common/macros.h"
#include "core/invariant_auditor.h"

namespace dqsched::core {

using exec::ChainSource;
using exec::ConcatSource;
using exec::FragmentRuntime;
using exec::FragmentSpec;
using exec::QueueSource;
using exec::SinkKind;
using exec::TempSource;

ExecutionState::ExecutionState(const plan::CompiledPlan* compiled,
                               exec::ExecContext* ctx,
                               const ExecutionOptions& options)
    : compiled_(compiled),
      ctx_(ctx),
      options_(options),
      result_(options.result_override != nullptr ? options.result_override
                                                 : &ctx->result),
      operands_(compiled->num_joins) {
  trace_.set_enabled(options.trace);
  // Operands register in join-id order; join ids were assigned in compile
  // order, and operand_of_join names the producing chain.
  for (JoinId j = 0; j < compiled_->num_joins; ++j) {
    const ChainId producer =
        compiled_->operand_of_join[static_cast<size_t>(j)];
    operands_.Register(
        j, "J" + std::to_string(j) + "<-" + compiled_->chain(producer).name,
        compiled_->join_build_field[static_cast<size_t>(j)]);
  }
  chain_states_.resize(static_cast<size_t>(compiled_->num_chains()));
  for (ChainId c = 0; c < compiled_->num_chains(); ++c) {
    ChainState& st = chain_states_[static_cast<size_t>(c)];
    for (const plan::ChainOp& op : compiled_->chain(c).ops) {
      if (op.kind != plan::ChainOpKind::kFilter) break;
      ++st.leading_filters;
    }
    FragmentSlot slot;
    slot.runtime = MakeChainFragment(c);
    slot.chain = c;
    fragments_.push_back(std::move(slot));
  }
}

exec::FragmentSpec ExecutionState::BaseSpecFor(ChainId chain) const {
  const plan::ChainInfo& info = compiled_->chain(chain);
  FragmentSpec spec;
  spec.name = info.name;
  spec.ops = info.ops;
  spec.sink = info.is_result ? SinkKind::kResult : SinkKind::kOperand;
  spec.sink_join = info.sink_join;
  spec.origin_chain = chain;
  spec.async_io = options_.async_io;
  spec.kernels = options_.kernels;
  return spec;
}

std::unique_ptr<FragmentRuntime> ExecutionState::MakeChainFragment(
    ChainId chain) {
  const plan::ChainInfo& info = compiled_->chain(chain);
  return std::make_unique<FragmentRuntime>(
      BaseSpecFor(chain), std::make_unique<QueueSource>(info.source),
      &operands_, result_);
}

exec::FragmentRuntime& ExecutionState::fragment(int id) {
  DQS_CHECK_MSG(id >= 0 && id < num_fragments(), "bad fragment id %d", id);
  return *fragments_[static_cast<size_t>(id)].runtime;
}

const exec::FragmentRuntime& ExecutionState::fragment(int id) const {
  return const_cast<ExecutionState*>(this)->fragment(id);
}

bool ExecutionState::FragmentActive(int id) const {
  const FragmentSlot& slot = fragments_[static_cast<size_t>(id)];
  return slot.active && !slot.runtime->closed();
}

ChainId ExecutionState::FragmentChain(int id) const {
  return fragments_[static_cast<size_t>(id)].chain;
}

bool ExecutionState::IsMf(int id) const {
  return fragments_[static_cast<size_t>(id)].is_mf;
}

bool ExecutionState::ChainDone(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].done;
}

bool ExecutionState::CSchedulable(ChainId chain) const {
  for (ChainId b : compiled_->chain(chain).blockers) {
    if (!ChainDone(b)) return false;
  }
  return true;
}

bool ExecutionState::Degraded(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].degraded;
}

bool ExecutionState::CfActivated(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].cf_activated;
}

int ExecutionState::MfFragment(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].mf_fragment;
}

TempId ExecutionState::MfTemp(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].mf_temp;
}

int ExecutionState::LeadingFilters(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].leading_filters;
}

int64_t ExecutionState::RetiredLiveConsumed(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].retired_live_consumed;
}

int ExecutionState::Degrade(ChainId chain, exec::ExecContext& ctx) {
  ChainState& st = chain_states_[static_cast<size_t>(chain)];
  const plan::ChainInfo& info = compiled_->chain(chain);
  DQS_CHECK_MSG(!st.done && !st.degraded && !CSchedulable(chain),
                "illegal degradation of chain %s", info.name.c_str());
  DQS_CHECK_MSG(fragment(chain).stats().consumed == 0,
                "degradation of started chain %s", info.name.c_str());

  st.degraded = true;
  st.mf_temp = ctx.temps.Create("mf_" + info.name);
  owned_temps_.push_back(st.mf_temp);
  ++degradations_;
  ++structural_version_;

  // MF(p): the wrapper's output through the chain's leading filters ("the
  // first scan operator of p, if any") into the temp.
  FragmentSpec spec;
  spec.name = "MF(" + info.name + ")";
  spec.ops.assign(info.ops.begin(),
                  info.ops.begin() + st.leading_filters);
  spec.sink = SinkKind::kTemp;
  spec.sink_temp = st.mf_temp;
  spec.origin_chain = chain;
  spec.async_io = options_.async_io;
  spec.kernels = options_.kernels;

  FragmentSlot slot;
  slot.runtime = std::make_unique<FragmentRuntime>(
      std::move(spec), std::make_unique<QueueSource>(info.source),
      &operands_, result_);
  slot.chain = chain;
  slot.is_mf = true;
  fragments_.push_back(std::move(slot));
  st.mf_fragment = num_fragments() - 1;
  if (trace_.enabled()) {
    trace_.Record(ctx.clock.now(), TraceEventKind::kDegradation,
                  st.mf_fragment, "MF(" + info.name + ") created");
  }
  return st.mf_fragment;
}

void ExecutionState::ActivateCf(ChainId chain, exec::ExecContext& ctx) {
  ChainState& st = chain_states_[static_cast<size_t>(chain)];
  const plan::ChainInfo& info = compiled_->chain(chain);
  DQS_CHECK_MSG(st.degraded && !st.cf_activated && !st.done,
                "illegal CF activation of chain %s", info.name.c_str());
  st.cf_activated = true;
  ++cf_activations_;
  ++structural_version_;

  FragmentSlot& mf_slot = fragments_[static_cast<size_t>(st.mf_fragment)];
  if (!mf_slot.runtime->closed()) {
    mf_slot.runtime->Stop(ctx);  // seals the materialized prefix
  }
  mf_slot.active = false;

  // CF(p): materialized prefix (leading filters pre-applied) then the live
  // remainder of the wrapper stream, through the full op list.
  FragmentSpec spec = BaseSpecFor(chain);
  spec.name = "CF(" + info.name + ")";
  spec.temp_skip_ops = st.leading_filters;
  auto source = std::make_unique<ConcatSource>(
      std::make_unique<TempSource>(st.mf_temp, options_.async_io),
      std::make_unique<QueueSource>(info.source));

  FragmentSlot& slot = fragments_[static_cast<size_t>(chain)];
  DQS_CHECK_MSG(slot.runtime->stats().consumed == 0,
                "CF activation over a started chain %s", info.name.c_str());
  slot.runtime = std::make_unique<FragmentRuntime>(
      std::move(spec), std::move(source), &operands_, result_);
  if (trace_.enabled()) {
    trace_.Record(ctx.clock.now(), TraceEventKind::kCfActivation, chain,
                  "CF(" + info.name + ") resumes from the materialized "
                  "prefix");
  }
}

Status ExecutionState::SplitForMemory(ChainId chain, exec::ExecContext& ctx,
                                      int64_t budget_bytes) {
  ChainState& st = chain_states_[static_cast<size_t>(chain)];
  const plan::ChainInfo& info = compiled_->chain(chain);
  FragmentSlot& slot = fragments_[static_cast<size_t>(chain)];
  FragmentRuntime& current = *slot.runtime;
  DQS_CHECK_MSG(!st.done, "illegal split of finished chain %s",
                info.name.c_str());
  const FragmentSpec base = current.spec();

  // Cut the op list so each stage's probe-operand memory fits the budget.
  struct StageDraft {
    std::vector<plan::ChainOp> ops;
    int64_t bytes = 0;
    bool has_probe = false;
  };
  std::vector<StageDraft> drafts(1);
  for (const plan::ChainOp& op : base.ops) {
    if (op.kind == plan::ChainOpKind::kProbe) {
      const int64_t need = operands_.Get(op.join).BytesToLoad(ctx);
      if (need > budget_bytes) {
        return Status::ResourceExhausted(
            "operand of join " + std::to_string(op.join) + " needs " +
            std::to_string(need) + " bytes alone; budget " +
            std::to_string(budget_bytes));
      }
      StageDraft& cur = drafts.back();
      if (cur.has_probe && cur.bytes + need > budget_bytes) {
        drafts.emplace_back();
      }
      drafts.back().bytes += need;
      drafts.back().has_probe = true;
    }
    drafts.back().ops.push_back(op);
  }
  if (drafts.size() < 2) {
    return Status::ResourceExhausted(
        "splitting chain " + info.name +
        " cannot relieve the overflow: its probe operands already fit " +
        std::to_string(budget_bytes) + " bytes together");
  }
  ++dqo_splits_;
  ++structural_version_;

  // Materialize drafts into fragment specs chained through temps. New
  // stages go to the FRONT of the pending queue: a re-split of the current
  // stage must run before previously staged work.
  std::unique_ptr<ChainSource> first_source = current.TakeSource();
  std::vector<PendingStage> new_stages;
  TempId prev_temp = kInvalidId;
  for (size_t i = 0; i < drafts.size(); ++i) {
    FragmentSpec spec;
    spec.name = base.name + "/s" + std::to_string(split_serial_++);
    spec.ops = std::move(drafts[i].ops);
    spec.origin_chain = chain;
    spec.async_io = base.async_io;
    spec.kernels = base.kernels;
    if (i + 1 < drafts.size()) {
      spec.sink = SinkKind::kTemp;
      spec.sink_temp = ctx.temps.Create("split_" + spec.name);
      owned_temps_.push_back(spec.sink_temp);
    } else {
      spec.sink = base.sink;
      spec.sink_join = base.sink_join;
      spec.sink_temp = base.sink_temp;
    }
    if (i == 0) {
      spec.temp_skip_ops = base.temp_skip_ops;
      slot.runtime = std::make_unique<FragmentRuntime>(
          std::move(spec), std::move(first_source), &operands_,
          &ctx_->result);
      prev_temp = slot.runtime->spec().sink_temp;
    } else {
      PendingStage stage;
      stage.input_temp = prev_temp;
      prev_temp = spec.sink_temp;
      stage.spec = std::move(spec);
      new_stages.push_back(std::move(stage));
    }
  }
  st.stages.insert(st.stages.begin(),
                   std::make_move_iterator(new_stages.begin()),
                   std::make_move_iterator(new_stages.end()));
  if (trace_.enabled()) {
    trace_.Record(ctx.clock.now(), TraceEventKind::kDqoSplit, chain,
                  info.name + " split into " +
                      std::to_string(new_stages.size() + 1) + " stages");
  }
  return Status::Ok();
}

void ExecutionState::RebindChainToTemp(ChainId chain, TempId temp,
                                       exec::ExecContext& ctx) {
  FragmentSlot& slot = fragments_[static_cast<size_t>(chain)];
  DQS_CHECK_MSG(slot.runtime->stats().consumed == 0,
                "rebind of started chain %d", chain);
  (void)ctx;
  ++structural_version_;
  slot.runtime = std::make_unique<FragmentRuntime>(
      BaseSpecFor(chain),
      std::make_unique<TempSource>(temp, options_.async_io), &operands_,
      &ctx_->result);
}

void ExecutionState::BindChainToCachedSegment(ChainId chain, TempId temp,
                                              exec::ExecContext& ctx) {
  ChainState& st = chain_states_[static_cast<size_t>(chain)];
  const plan::ChainInfo& info = compiled_->chain(chain);
  FragmentSlot& slot = fragments_[static_cast<size_t>(chain)];
  DQS_CHECK_MSG(!st.done && !st.degraded && !st.cache_bound,
                "illegal cache bind of chain %s", info.name.c_str());
  DQS_CHECK_MSG(slot.runtime->stats().consumed == 0,
                "cache bind of started chain %s", info.name.c_str());
  DQS_CHECK_MSG(ctx.temps.IsSealed(temp), "cache bind to unsealed temp %d",
                temp);
  st.cache_bound = true;
  ++cache_bound_;
  ++structural_version_;
  owned_temps_.push_back(temp);

  // Same shape as CF(p) over a finished MF: the segment carries the
  // leading filters pre-applied, so the fragment skips them on temp
  // batches. There is no live remainder — the caller closed the source.
  FragmentSpec spec = BaseSpecFor(chain);
  spec.name = info.name + "/cached";
  spec.temp_skip_ops = st.leading_filters;
  slot.runtime = std::make_unique<FragmentRuntime>(
      std::move(spec), std::make_unique<TempSource>(temp, options_.async_io),
      &operands_, result_);
  if (trace_.enabled()) {
    trace_.Record(ctx.clock.now(), TraceEventKind::kCacheHit, chain,
                  info.name + " rebound to cached segment");
  }
}

bool ExecutionState::CacheBound(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].cache_bound;
}

bool ExecutionState::CacheProbed(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].cache_probed;
}

void ExecutionState::SetCacheProbed(ChainId chain) {
  chain_states_[static_cast<size_t>(chain)].cache_probed = true;
}

bool ExecutionState::MfComplete(ChainId chain) const {
  return chain_states_[static_cast<size_t>(chain)].mf_complete;
}

int ExecutionState::CreateMaterializeAll(SourceId source,
                                         exec::ExecContext& ctx) {
  if (ma_temps_.empty()) {
    ma_temps_.assign(static_cast<size_t>(ctx.comm.num_sources()), kInvalidId);
  }
  DQS_CHECK_MSG(MaTempOf(source) == kInvalidId,
                "source %d materialized twice", source);
  ++structural_version_;
  FragmentSpec spec;
  spec.name = "MA(src" + std::to_string(source) + ")";
  spec.sink = SinkKind::kTemp;
  spec.sink_temp = ctx.temps.Create(spec.name);
  owned_temps_.push_back(spec.sink_temp);
  spec.async_io = options_.async_io;
  spec.kernels = options_.kernels;
  ma_temps_[static_cast<size_t>(source)] = spec.sink_temp;

  FragmentSlot slot;
  slot.runtime = std::make_unique<FragmentRuntime>(
      std::move(spec), std::make_unique<QueueSource>(source), &operands_,
      &ctx_->result);
  slot.chain = kInvalidId;
  slot.is_mf = true;
  fragments_.push_back(std::move(slot));
  return num_fragments() - 1;
}

TempId ExecutionState::MaTempOf(SourceId source) const {
  if (ma_temps_.empty()) return kInvalidId;
  return ma_temps_[static_cast<size_t>(source)];
}

void ExecutionState::OnFragmentFinished(int id, exec::ExecContext& ctx) {
  FragmentSlot& slot = fragments_[static_cast<size_t>(id)];
  DQS_CHECK_MSG(!slot.runtime->closed(), "fragment %d finished twice", id);
  ++structural_version_;
  slot.runtime->Close(ctx);
  slot.active = false;
  if (slot.is_mf && slot.chain != kInvalidId) {
    // A naturally finished MF sealed the chain's full filtered prefix —
    // exactly what the result cache may admit as a reusable segment (an
    // MF stopped by CF activation never reaches this path).
    chain_states_[static_cast<size_t>(slot.chain)].mf_complete = true;
  }
  if (!slot.is_mf && slot.chain != kInvalidId) {
    ChainState& st = chain_states_[static_cast<size_t>(slot.chain)];
    if (!st.stages.empty()) {
      PendingStage stage = std::move(st.stages.front());
      st.stages.pop_front();
      // The retiring stage's live-queue consumption must survive the
      // runtime swap or the conservation audit loses those tuples.
      st.retired_live_consumed += slot.runtime->stats().consumed_live;
      slot.runtime = std::make_unique<FragmentRuntime>(
          std::move(stage.spec),
          std::make_unique<TempSource>(stage.input_temp, options_.async_io),
          &operands_, result_);
      slot.active = true;
    } else {
      st.done = true;
    }
  }
  // Audit point (DQSCHED_AUDIT builds): fragment completion is where chain
  // states flip and operand grants are released — the conservation laws
  // must balance here.
  DQS_AUDIT(AuditExecutionState(*this, ctx));
}

void ExecutionState::Cancel(exec::ExecContext& ctx) {
  if (cancelled_) return;
  cancelled_ = true;
  ++structural_version_;
  // Release every operand grant — build- and probe-side alike. ReleaseAll
  // is idempotent and also drops operand spill temps.
  for (JoinId j = 0; j < compiled_->num_joins; ++j) {
    operands_.Get(j).ReleaseAll(ctx);
  }
  // Close every fragment without sealing its sink; the husks never
  // execute again but their stats stay readable.
  for (FragmentSlot& slot : fragments_) {
    slot.runtime->Abort();
    slot.active = false;
  }
  // Return the temp-store space of everything this query materialized.
  Retire(ctx);
  if (trace_.enabled()) {
    trace_.Record(ctx.clock.now(), TraceEventKind::kCancelled, kInvalidId,
                  "query cancelled; grants released, temps dropped");
  }
  // The conservation laws must still balance on the cancelled husk.
  DQS_AUDIT(AuditExecutionState(*this, ctx));
}

void ExecutionState::Retire(exec::ExecContext& ctx) {
  DQS_CHECK_MSG(cancelled_ || QueryDone(), "retire of a running query");
  for (TempId t : owned_temps_) {
    if (!ctx.temps.IsDropped(t)) ctx.temps.Drop(t);
  }
}

std::vector<std::string> ExecutionState::FragmentNames() const {
  std::vector<std::string> names;
  names.reserve(fragments_.size());
  for (const FragmentSlot& slot : fragments_) {
    names.push_back(slot.runtime->name());
  }
  return names;
}

double ExecutionState::FragmentCpuPerTupleNs(int id) const {
  const FragmentSlot& slot = fragments_[static_cast<size_t>(id)];
  const auto& cost = *ctx_->cost;
  if (slot.is_mf || slot.chain == kInvalidId) {
    // Receive + scan move + sink move + amortized I/O issue cost.
    return static_cast<double>(cost.ReceiveTupleCpuTime()) +
           2.0 * static_cast<double>(cost.InstrTime(cost.instr_move_tuple)) +
           static_cast<double>(cost.InstrTime(cost.instr_per_io)) /
               (static_cast<double>(cost.disk_chunk_pages) *
                cost.TuplesPerPage());
  }
  return compiled_->chain(slot.chain).est_cpu_per_tuple_ns;
}

int64_t ExecutionState::FragmentRemainingLive(
    int id, const exec::ExecContext& ctx) const {
  const FragmentSlot& slot = fragments_[static_cast<size_t>(id)];
  const SourceId src = slot.runtime->source().remote_source();
  if (src == kInvalidId) return 0;
  return ctx.comm.RemainingTuples(src);
}

}  // namespace dqsched::core

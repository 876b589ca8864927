#include "exec/chain_executor.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/macros.h"

namespace dqsched::exec {

int64_t FragmentRuntime::BytesToOpen(const ExecContext& ctx) const {
  if (opened_) return 0;
  int64_t bytes = 0;
  for (const plan::ChainOp& op : spec_.ops) {
    if (op.kind == plan::ChainOpKind::kProbe) {
      bytes += operands_->Get(op.join).BytesToLoad(ctx);
    }
  }
  return bytes;
}

Status FragmentRuntime::Open(ExecContext& ctx) {
  if (opened_) return Status::Ok();
  DQS_CHECK_MSG(!closed_, "open of closed fragment %s", name().c_str());
  for (size_t i = 0; i < spec_.ops.size(); ++i) {
    const plan::ChainOp& op = spec_.ops[i];
    if (op.kind != plan::ChainOpKind::kProbe) continue;
    Operand& operand = operands_->Get(op.join);
    DQS_CHECK_MSG(operand.sealed(),
                  "fragment %s opened before operand %s finished "
                  "(C-schedulability violated)",
                  name().c_str(), operand.name().c_str());
    Status loaded = operand.Load(ctx, spec_.async_io);
    if (!loaded.ok()) {
      // Unwind WITHOUT destroying operand data: a later DQO revision (or a
      // retry once memory frees up) must still be able to probe them.
      for (size_t j = 0; j < i; ++j) {
        if (spec_.ops[j].kind == plan::ChainOpKind::kProbe) {
          operands_->Get(spec_.ops[j].join).Unload(ctx);
        }
      }
      return loaded;
    }
  }
  opened_ = true;
  return Status::Ok();
}

Result<int64_t> FragmentRuntime::ProcessBatch(ExecContext& ctx,
                                              int64_t max_tuples) {
  DQS_CHECK_MSG(!closed_, "batch on closed fragment %s", name().c_str());
  DQS_RETURN_IF_ERROR(Open(ctx));
  if (max_tuples <= 0) return static_cast<int64_t>(0);

  // Live batches and reads of a borrowed temp are spans of the source
  // relation; reads of a paged temp copy into the context's input buffer,
  // which grows once to the batch size. Either way the first operator
  // reads the batch where the pop left it.
  KernelScratch& scratch = ctx.scratch;
  if (scratch.in.size() < static_cast<size_t>(max_tuples)) {
    scratch.in.resize(static_cast<size_t>(max_tuples));
    scratch.work_a.reserve(static_cast<size_t>(max_tuples));
    scratch.work_b.reserve(static_cast<size_t>(max_tuples));
  }
  const ChainSource::PopResult pop =
      source_->Pop(ctx, scratch.in.data(), max_tuples);
  if (pop.count == 0) return static_cast<int64_t>(0);
  stats_.consumed += pop.count;
  if (!pop.from_temp && source_->remote_source() != kInvalidId) {
    stats_.consumed_live += pop.count;
  }
  ++stats_.batches;

  if (spec_.kernels.scalar) return ProcessBatchScalar(ctx, pop);
  return ProcessBatchVectorized(ctx, pop);
}

// The original tuple-at-a-time kernels. Every simulated charge below is
// the contract the vectorized path must reproduce exactly: scan and sink
// moves on the batch boundary counts, a move per filter-input tuple, a
// hash probe per probe-input tuple, a produced-result instruction per
// match — all in canonical op order.
// dqs-analyze: begin-allow(kernel-push) — reference scalar kernels
Result<int64_t> FragmentRuntime::ProcessBatchScalar(
    ExecContext& ctx, const ChainSource::PopResult& pop) {
  int64_t instr = 0;
  // Receive cost: live network batches only (temp batches were received —
  // and charged — when they were first consumed by the materializer).
  if (!pop.from_temp && source_->remote_source() != kInvalidId) {
    ctx.clock.Advance(ctx.net.ChargeReceive(source_->remote_source(),
                                            pop.count));
  }
  // The scan's per-tuple move.
  instr += pop.count * ctx.cost->instr_move_tuple;

  // Operators consume a (data, count) span and emit into the spare work
  // buffer: the popped batch first, then the context's work_a/work_b in
  // turn.
  const storage::Tuple* cur = pop.data;
  size_t cur_n = static_cast<size_t>(pop.count);
  std::vector<storage::Tuple>* out = &ctx.scratch.work_a;
  std::vector<storage::Tuple>* spare = &ctx.scratch.work_b;

  const size_t first_op =
      pop.from_temp ? static_cast<size_t>(spec_.temp_skip_ops) : 0;
  for (size_t oi = first_op; oi < spec_.ops.size(); ++oi) {
    const plan::ChainOp& op = spec_.ops[oi];
    out->clear();
    switch (op.kind) {
      case plan::ChainOpKind::kFilter: {
        instr += static_cast<int64_t>(cur_n) * ctx.cost->instr_move_tuple;
        if (oi + 1 < spec_.ops.size() &&
            spec_.ops[oi + 1].kind == plan::ChainOpKind::kProbe) {
          // Fused filter -> probe: passing tuples go straight into the
          // probe instead of being materialized into an intermediate
          // buffer. Charges are identical to the unfused path.
          const plan::ChainOp& probe = spec_.ops[oi + 1];
          const Operand& operand = operands_->Get(probe.join);
          DQS_CHECK_MSG(operand.loaded(),
                        "probe of unloaded operand %s by %s",
                        operand.name().c_str(), name().c_str());
          const auto& tuples = operand.tuples();
          const HashIndex& index = operand.index();
          const size_t key_field =
              static_cast<size_t>(probe.probe_key_field);
          int64_t passed = 0;
          for (size_t i = 0; i < cur_n; ++i) {
            if (i + 1 < cur_n) index.Prefetch(cur[i + 1].keys[key_field]);
            const storage::Tuple& t = cur[i];
            if (!storage::FilterPasses(t.rowid, op.node, op.selectivity)) {
              continue;
            }
            ++passed;
            index.ForEachMatch(t.keys[key_field], [&](size_t idx) {
              storage::Tuple r = t;  // probe-side fields carry through
              r.rowid = storage::CombineRowid(tuples[idx].rowid, t.rowid);
              out->push_back(r);
            });
          }
          instr += passed * ctx.cost->instr_hash_probe;
          instr += static_cast<int64_t>(out->size()) *
                   ctx.cost->instr_produce_result;
          ++oi;
          break;
        }
        for (size_t i = 0; i < cur_n; ++i) {
          const storage::Tuple& t = cur[i];
          if (storage::FilterPasses(t.rowid, op.node, op.selectivity)) {
            out->push_back(t);
          }
        }
        break;
      }
      case plan::ChainOpKind::kProbe: {
        const Operand& operand = operands_->Get(op.join);
        DQS_CHECK_MSG(operand.loaded(), "probe of unloaded operand %s by %s",
                      operand.name().c_str(), name().c_str());
        instr += static_cast<int64_t>(cur_n) * ctx.cost->instr_hash_probe;
        const auto& tuples = operand.tuples();
        const HashIndex& index = operand.index();
        const size_t key_field = static_cast<size_t>(op.probe_key_field);
        for (size_t i = 0; i < cur_n; ++i) {
          if (i + 1 < cur_n) index.Prefetch(cur[i + 1].keys[key_field]);
          const storage::Tuple& t = cur[i];
          index.ForEachMatch(t.keys[key_field], [&](size_t idx) {
            storage::Tuple r = t;  // probe-side fields carry through
            r.rowid = storage::CombineRowid(tuples[idx].rowid, t.rowid);
            out->push_back(r);
          });
        }
        instr += static_cast<int64_t>(out->size()) *
                 ctx.cost->instr_produce_result;
        break;
      }
    }
    cur = out->data();
    cur_n = out->size();
    std::swap(out, spare);
  }

  // Sink delivery. A batch no operator rewrote is still relation memory
  // when the pop was, and the operand or temp may borrow it.
  const int64_t out_n = static_cast<int64_t>(cur_n);
  const bool in_relation = pop.in_relation && cur == pop.data;
  instr += out_n * ctx.cost->instr_move_tuple;
  ctx.ChargeInstr(instr);
  switch (spec_.sink) {
    case SinkKind::kOperand:
      operands_->Get(spec_.sink_join).Append(ctx, cur, out_n,
                                             spec_.async_io, in_relation);
      break;
    case SinkKind::kTemp:
      ctx.temps.Append(spec_.sink_temp, cur, out_n, spec_.async_io,
                       in_relation);
      break;
    case SinkKind::kResult:
      DQS_CHECK(result_ != nullptr);
      for (size_t i = 0; i < cur_n; ++i) result_->Add(cur[i]);
      break;
  }
  stats_.produced += out_n;
  // Asynchronously read input may land after the CPU work: wait for it.
  ctx.clock.BusyUntil(pop.ready);
  return pop.count;
}
// dqs-analyze: end-allow(kernel-push)

namespace {

/// Grow-only sizing for a scratch tuple buffer: `resize` value-initializes
/// only the new tail, and only when the high-water mark rises; the size at
/// least doubles, so a rising mark reallocates O(log n) times. The logical
/// count is tracked by the caller, so no per-batch zero-fill happens.
void GrowTuples(std::vector<storage::Tuple>* buf, int64_t n) {
  if (static_cast<int64_t>(buf->size()) < n) {
    buf->resize(std::max(static_cast<size_t>(n), 2 * buf->size()));
  }
}

/// Probe software-pipelining distance: hash the whole batch first, then
/// scan buckets with the bounds of the i+kth probe's bucket prefetched
/// while the ith bucket is scanned.
constexpr uint32_t kProbePrefetchDistance = 8;

}  // namespace

// Batch-at-a-time kernels. The selection is a position array: `ids`
// lists the surviving positions of `cur` in ascending order, and a null
// `ids` selects all `n_sel`. Filters compact the positions in place (no
// intermediate materialization); probes run as a vectorized hash+count
// pass followed by an expansion pass into a pre-sized buffer; sinks take
// one contiguous span. Charges are accumulated against the canonical op
// order with the exact counts the scalar kernels produce.
Result<int64_t> FragmentRuntime::ProcessBatchVectorized(
    ExecContext& ctx, const ChainSource::PopResult& pop) {
  int64_t instr = 0;
  // Receive cost: live network batches only (temp batches were received —
  // and charged — when they were first consumed by the materializer).
  if (!pop.from_temp && source_->remote_source() != kInvalidId) {
    ctx.clock.Advance(ctx.net.ChargeReceive(source_->remote_source(),
                                            pop.count));
  }
  // The scan's per-tuple move.
  instr += pop.count * ctx.cost->instr_move_tuple;

  KernelScratch& scratch = ctx.scratch;
  const storage::Tuple* cur = pop.data;
  const uint32_t* ids = nullptr;
  uint32_t n_sel = static_cast<uint32_t>(pop.count);
  std::vector<storage::Tuple>* out = &scratch.work_a;
  std::vector<storage::Tuple>* spare = &scratch.work_b;

  const size_t first_op =
      pop.from_temp ? static_cast<size_t>(spec_.temp_skip_ops) : 0;
  for (size_t oi = first_op; oi < spec_.ops.size(); ++oi) {
    const plan::ChainOp& op = spec_.ops[oi];
    if (op.kind == plan::ChainOpKind::kFilter) {
      // Each filter charges a move per tuple entering it, exactly like the
      // scalar kernels (fused or not), then compacts the passing positions
      // into sel_ids in place (a set `ids` already lives there and fits,
      // so the grow below never moves it). A filter that keeps every
      // position leaves `ids` null.
      instr += static_cast<int64_t>(n_sel) * ctx.cost->instr_move_tuple;
      if (scratch.sel_ids.size() < n_sel) scratch.sel_ids.resize(n_sel);
      uint32_t* kept = scratch.sel_ids.data();
      uint32_t n_kept = 0;
      for (uint32_t i = 0; i < n_sel; ++i) {
        const uint32_t id = ids ? ids[i] : i;
        if (storage::FilterPasses(cur[id].rowid, op.node, op.selectivity)) {
          kept[n_kept++] = id;
        }
      }
      if (ids != nullptr || n_kept < n_sel) ids = kept;
      n_sel = n_kept;
      continue;
    }

    // kProbe. The index entries carry the build rowids, so the probe never
    // reads the operand's tuples.
    const Operand& operand = operands_->Get(op.join);
    DQS_CHECK_MSG(operand.loaded(), "probe of unloaded operand %s by %s",
                  operand.name().c_str(), name().c_str());
    const HashIndex& index = operand.index();
    const size_t key_field = static_cast<size_t>(op.probe_key_field);

    instr += static_cast<int64_t>(n_sel) * ctx.cost->instr_hash_probe;
    if (scratch.probe_keys.size() < n_sel) {
      scratch.probe_keys.resize(n_sel);
      scratch.probe_pos.resize(n_sel);
      scratch.match_counts.resize(n_sel);
    }
    int64_t* keys = scratch.probe_keys.data();
    uint64_t* pos = scratch.probe_pos.data();
    uint32_t* counts = scratch.match_counts.data();

    // Pass 1: gather keys and hash every probe up front, then count each
    // probe's matches in its bucket with the prefetcher running
    // kProbePrefetchDistance probes ahead, keeping the first match's
    // position for pass 2.
    for (uint32_t i = 0; i < n_sel; ++i) {
      const int64_t k = cur[ids ? ids[i] : i].keys[key_field];
      keys[i] = k;
      pos[i] = index.BucketOf(k);
    }
    const uint32_t warm =
        n_sel < kProbePrefetchDistance ? n_sel : kProbePrefetchDistance;
    for (uint32_t i = 0; i < warm; ++i) index.PrefetchBucket(pos[i]);
    int64_t total_matches = 0;
    for (uint32_t i = 0; i < n_sel; ++i) {
      if (i + kProbePrefetchDistance < n_sel) {
        index.PrefetchBucket(pos[i + kProbePrefetchDistance]);
      }
      counts[i] = index.CountMatches(pos[i], keys[i], &pos[i]);
      total_matches += counts[i];
    }
    instr += total_matches * ctx.cost->instr_produce_result;

    // Pass 2: expand matches into a buffer pre-sized from the counts, in
    // ForEachMatch's (insertion) order, stopping after exactly counts[i]
    // hits, so output order is byte-identical to the scalar kernels.
    GrowTuples(out, total_matches);
    storage::Tuple* dst = out->data();
    int64_t off = 0;
    for (uint32_t i = 0; i < n_sel; ++i) {
      if (counts[i] == 0) continue;
      const storage::Tuple& t = cur[ids ? ids[i] : i];
      index.ForEachMatchFromN(pos[i], keys[i], counts[i],
                              [&](const HashIndex::Entry& e) {
                                storage::Tuple r = t;  // probe side carries
                                r.rowid = storage::CombineRowid(e.rowid,
                                                                t.rowid);
                                dst[off++] = r;
                              });
    }
    DQS_CHECK_MSG(off == total_matches, "probe expansion wrote %lld of %lld",
                  static_cast<long long>(off),
                  static_cast<long long>(total_matches));
    cur = dst;
    ids = nullptr;
    n_sel = static_cast<uint32_t>(total_matches);
    std::swap(out, spare);
  }

  // Sink delivery. Filters that dropped positions leave `ids` set; gather
  // once so every sink receives one contiguous span (the common filterless
  // tail is zero-copy). A batch that is still the popped span is relation
  // memory when the pop was, and the operand or temp may borrow it.
  if (ids != nullptr) {
    GrowTuples(out, n_sel);
    storage::Tuple* dst = out->data();
    for (uint32_t i = 0; i < n_sel; ++i) dst[i] = cur[ids[i]];
    cur = dst;
  }
  const int64_t out_n = n_sel;
  const bool in_relation = pop.in_relation && cur == pop.data;
  instr += out_n * ctx.cost->instr_move_tuple;
  ctx.ChargeInstr(instr);
  switch (spec_.sink) {
    case SinkKind::kOperand:
      operands_->Get(spec_.sink_join).Append(ctx, cur, out_n,
                                             spec_.async_io, in_relation);
      break;
    case SinkKind::kTemp:
      ctx.temps.Append(spec_.sink_temp, cur, out_n, spec_.async_io,
                       in_relation);
      break;
    case SinkKind::kResult:
      DQS_CHECK(result_ != nullptr);
      result_->AddBatch(cur, out_n);
      break;
  }
  stats_.produced += out_n;
  // Asynchronously read input may land after the CPU work: wait for it.
  ctx.clock.BusyUntil(pop.ready);
  return pop.count;
}

std::unique_ptr<ChainSource> FragmentRuntime::TakeSource() {
  DQS_CHECK_MSG(stats_.consumed == 0 && !opened_,
                "TakeSource from started fragment %s", name().c_str());
  closed_ = true;  // the husk must never execute
  return std::move(source_);
}

bool FragmentRuntime::Finished(const ExecContext& ctx) const {
  return source_->Exhausted(ctx);
}

void FragmentRuntime::Stop(ExecContext& ctx) {
  if (closed_) return;
  switch (spec_.sink) {
    case SinkKind::kOperand:
      // Operands cannot be partially sealed; only temp sinks stop early.
      DQS_CHECK_MSG(false, "Stop() on operand-sink fragment %s",
                    name().c_str());
      break;
    case SinkKind::kTemp:
      ctx.temps.Seal(spec_.sink_temp);
      break;
    case SinkKind::kResult:
      DQS_CHECK_MSG(false, "Stop() on result fragment %s", name().c_str());
      break;
  }
  closed_ = true;
}

void FragmentRuntime::Close(ExecContext& ctx) {
  if (closed_) return;
  DQS_CHECK_MSG(Finished(ctx), "close of unfinished fragment %s",
                name().c_str());
  switch (spec_.sink) {
    case SinkKind::kOperand:
      operands_->Get(spec_.sink_join).Seal(ctx);
      break;
    case SinkKind::kTemp:
      ctx.temps.Seal(spec_.sink_temp);
      break;
    case SinkKind::kResult:
      break;
  }
  // Release the operands this fragment probed; each join has exactly one
  // probing fragment, so nothing else needs them.
  if (opened_) {
    for (const plan::ChainOp& op : spec_.ops) {
      if (op.kind == plan::ChainOpKind::kProbe) {
        operands_->Get(op.join).ReleaseAll(ctx);
      }
    }
  }
  closed_ = true;
}

}  // namespace dqsched::exec

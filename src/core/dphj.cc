#include "core/dphj.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/macros.h"

namespace dqsched::core {

namespace {

using plan::ChainInfo;
using plan::ChainOp;
using plan::ChainOpKind;
using storage::Tuple;

/// Bytes accounted per resident tuple of a side table (tuple + multimap
/// node overhead).
constexpr int64_t kDphjEntryBytes = 88;

/// One side of a symmetric join: resident tuples plus an insertable index.
struct SideTable {
  int key_field = 0;
  std::vector<Tuple> tuples;
  // Ordered multimap, not unordered: EnterJoin emits one combined tuple
  // per `equal_range` element, so the within-key match order escapes into
  // result rowids. std::multimap inserts equal keys at the upper bound
  // (C++11), making that order exactly insertion order on every standard
  // library (dqs-analyze rule unordered-iter).
  std::multimap<int64_t, size_t> index;

  void Insert(const Tuple& t) {
    index.emplace(t.keys[static_cast<size_t>(key_field)], tuples.size());
    tuples.push_back(t);
  }
};

/// The whole-query symmetric executor.
class DphjRun {
 public:
  DphjRun(const plan::CompiledPlan& compiled, exec::ExecContext& ctx,
          const DphjConfig& config)
      : compiled_(compiled), ctx_(ctx), config_(config) {}

  Result<ExecutionMetrics> Run();

 private:
  struct JoinState {
    SideTable build;
    SideTable probe;
    /// Continuation of a match: the chain owning this join's probe op,
    /// starting at the op after it.
    ChainId chain = kInvalidId;
    size_t next_op = 0;
  };

  /// Charges `bytes` of table growth, amortized through chunked grants.
  Status GrantTableBytes(int64_t bytes) {
    pending_bytes_ += bytes;
    constexpr int64_t kChunk = 256 * 1024;
    while (pending_bytes_ >= kChunk) {
      DQS_RETURN_IF_ERROR(ctx_.memory.Grant(kChunk));
      granted_ += kChunk;
      pending_bytes_ -= kChunk;
    }
    return Status::Ok();
  }

  /// Routes `t` along chain `c` starting at op `from`; accumulates CPU
  /// instructions into instr_.
  Status RouteAlongChain(ChainId c, size_t from, const Tuple& t);

  /// A tuple arrives at join `j` on one side: insert, probe the other
  /// side, and push every match along the join's continuation.
  Status EnterJoin(JoinId j, bool on_build_side, const Tuple& t);

  const plan::CompiledPlan& compiled_;
  exec::ExecContext& ctx_;
  DphjConfig config_;
  std::vector<JoinState> joins_;
  int64_t instr_ = 0;
  int64_t pending_bytes_ = 0;
  int64_t granted_ = 0;
};

Status DphjRun::EnterJoin(JoinId j, bool on_build_side, const Tuple& t) {
  JoinState& join = joins_[static_cast<size_t>(j)];
  SideTable& own = on_build_side ? join.build : join.probe;
  const SideTable& other = on_build_side ? join.probe : join.build;

  DQS_RETURN_IF_ERROR(GrantTableBytes(kDphjEntryBytes));
  own.Insert(t);
  instr_ += ctx_.cost->instr_hash_insert + ctx_.cost->instr_hash_probe;

  const int64_t key = t.keys[static_cast<size_t>(own.key_field)];
  auto [lo, hi] = other.index.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    const Tuple& match = other.tuples[it->second];
    // The combined tuple carries the probe side's attributes and the
    // canonical build-then-probe rowid, whatever the arrival order.
    const Tuple& build_tuple = on_build_side ? t : match;
    const Tuple& probe_tuple = on_build_side ? match : t;
    Tuple combined = probe_tuple;
    combined.rowid =
        storage::CombineRowid(build_tuple.rowid, probe_tuple.rowid);
    instr_ += ctx_.cost->instr_produce_result;
    DQS_RETURN_IF_ERROR(
        RouteAlongChain(join.chain, join.next_op, combined));
  }
  return Status::Ok();
}

Status DphjRun::RouteAlongChain(ChainId c, size_t from, const Tuple& t) {
  const ChainInfo& chain = compiled_.chain(c);
  Tuple cur = t;
  for (size_t i = from; i < chain.ops.size(); ++i) {
    const ChainOp& op = chain.ops[i];
    if (op.kind == ChainOpKind::kFilter) {
      instr_ += ctx_.cost->instr_move_tuple;
      if (!storage::FilterPasses(cur.rowid, op.node, op.selectivity)) {
        return Status::Ok();
      }
    } else {  // probe op: enter that join on the probe side
      return EnterJoin(op.join, /*on_build_side=*/false, cur);
    }
  }
  // Chain end: the operand of the sink join (its build side) or a result.
  instr_ += ctx_.cost->instr_move_tuple;
  if (chain.is_result) {
    ctx_.result.Add(cur);
    return Status::Ok();
  }
  return EnterJoin(chain.sink_join, /*on_build_side=*/true, cur);
}

Result<ExecutionMetrics> DphjRun::Run() {
  // Wire continuations: join j's matches continue after the probe op that
  // references j, in the chain that owns it.
  joins_.resize(static_cast<size_t>(compiled_.num_joins));
  for (const ChainInfo& chain : compiled_.chains) {
    for (size_t i = 0; i < chain.ops.size(); ++i) {
      const ChainOp& op = chain.ops[i];
      if (op.kind != ChainOpKind::kProbe) continue;
      JoinState& join = joins_[static_cast<size_t>(op.join)];
      join.chain = chain.id;
      join.next_op = i + 1;
      join.probe.key_field = op.probe_key_field;
      join.build.key_field =
          compiled_.join_build_field[static_cast<size_t>(op.join)];
    }
  }

  // Source -> (chain, leading filter prefix is part of the chain walk).
  // Vector-indexed (source ids are dense 0..num_sources-1), replacing an
  // unordered_map: O(1) lookups with no hash order anywhere near the
  // tuple path.
  std::vector<ChainId> chain_of_source(
      static_cast<size_t>(ctx_.comm.num_sources()), kInvalidId);
  for (const ChainInfo& chain : compiled_.chains) {
    chain_of_source[static_cast<size_t>(chain.source)] = chain.id;
  }

  const int num_sources = ctx_.comm.num_sources();
  int64_t guard = 0;
  for (;;) {
    DQS_CHECK_MSG(++guard < (1LL << 40), "DPHJ livelock");
    ctx_.Pump();
    bool all_done = true;
    bool worked = false;
    for (SourceId s = 0; s < num_sources; ++s) {
      if (ctx_.comm.SourceExhausted(s)) continue;
      all_done = false;
      // The batch is read in place from the source's relation.
      const comm::TupleSpan batch =
          ctx_.comm.PopSpan(s, ctx_.clock.now(), config_.batch_size);
      const int64_t n = batch.count;
      if (n == 0) continue;
      worked = true;
      instr_ = n * ctx_.cost->instr_move_tuple;  // the scan's moves
      ctx_.clock.Advance(ctx_.net.ChargeReceive(s, n));
      const ChainId c = chain_of_source.at(s);
      for (int64_t i = 0; i < n; ++i) {
        Status routed = RouteAlongChain(c, 0, batch.data[i]);
        if (!routed.ok()) {
          ctx_.memory.Release(granted_);
          return routed;
        }
      }
      ctx_.ChargeInstr(instr_);
    }
    if (all_done) break;
    if (!worked) {
      SimTime next = kSimTimeNever;
      for (SourceId s = 0; s < num_sources; ++s) {
        next = std::min(next, ctx_.comm.NextArrival(s));
      }
      if (next == kSimTimeNever) break;  // everything delivered
      ctx_.clock.StallUntil(next);
    }
  }
  ctx_.memory.Release(granted_);

  ExecutionMetrics m;
  m.response_time = ctx_.clock.now();
  m.busy_time = ctx_.clock.busy_time();
  m.stalled_time = ctx_.clock.stalled_time();
  m.result_count = ctx_.result.count();
  m.result_checksum = ctx_.result.checksum().value();
  m.peak_memory_bytes = ctx_.memory.peak();
  m.disk = ctx_.disk.stats();
  m.network = ctx_.net.stats();
  m.temps = ctx_.temps.stats();
  return m;
}

}  // namespace

Result<ExecutionMetrics> RunDphj(const plan::CompiledPlan& compiled,
                                 exec::ExecContext& ctx,
                                 const DphjConfig& config) {
  if (config.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  return DphjRun(compiled, ctx, config).Run();
}

}  // namespace dqsched::core

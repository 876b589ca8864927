// The shared multi-query event loop, extracted from
// MultiQueryMediator::ExecuteShared so one implementation serves both the
// single-mediator shared mode and the fleet executor's per-shard loops.
//
// N queries share one ExecContext (clock, devices, CM). Each query keeps
// its own DQS/DQP/DQO machinery and result collector; the loop round-robins
// batch slices over the undone queries (a circular ring, so finished
// queries cost nothing to skip) and detects the all-starved condition with
// an epoch-guarded per-query arrival cache plus a lazy min-heap.
//
// The loop itself never mutates the virtual clock: Step() reports the
// stall target (Turn::kAllStarved) and the *caller* owns the
// StallUntil — that keeps the charge-order discipline (DESIGN §10) in the
// two reviewed driver files (core/multi_query.cc, core/fleet_executor.cc)
// and lets the fleet cap a stall at its next query arrival. Likewise the
// loop only reports lifecycle events (source suspicion, death and
// recovery, deadline expiry) as turns and the caller reacts: the fleet
// kills, retries and trips breakers, the multi-query mix fails on a
// dead source.
//
// Queries may join dynamically (AddQuery between Step() calls): the fleet
// admits queries as its memory broker grants them. A joining query is
// spliced into the ring behind the current tail, so the visit order of an
// all-upfront batch is exactly the historical 0, 1, ..., N-1.

#ifndef DQSCHED_CORE_SHARED_LOOP_H_
#define DQSCHED_CORE_SHARED_LOOP_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "core/dqo.h"
#include "core/dqp.h"
#include "core/dqs.h"
#include "core/execution_state.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "exec/exec_context.h"
#include "plan/compiled_plan.h"

namespace dqsched::core {

/// One query's registration in the shared loop. The compiled plan must be
/// annotated, its chain sources remapped into the context's global id
/// space, and it must outlive the loop; [source_lo, source_hi) is the
/// query's contiguous range of global source ids (the arrival cache's
/// epoch and the lifecycle turns' source owner read it).
struct SharedQueryDesc {
  const plan::CompiledPlan* compiled = nullptr;
  SourceId source_lo = 0;
  SourceId source_hi = 0;
  /// Absolute virtual-time deadline forced into the query's DqpConfig
  /// (0 = unlimited). It bounds every all-starved stall while the query
  /// runs; the loop reports the expiry (kQueryDeadline) and the caller
  /// decides cancel vs retry.
  SimTime deadline = 0;
  /// Result-cache whole-query hit (DESIGN.md §14): the query joins
  /// already answered. Its slot is registered done with the cached digest
  /// adopted into its collector; it never enters the rotation and its
  /// sources are never drained. The caller does its own completion
  /// bookkeeping (grants, latencies) on return from AddQuery.
  bool resolved = false;
  int64_t resolved_count = 0;
  uint64_t resolved_checksum = 0;
};

class SharedQueryLoop {
 public:
  struct Options {
    StrategyKind strategy = StrategyKind::kDse;
    /// Per-query DQS/DQP tunables; the loop forces kSliceBatches,
    /// yield_on_starvation and the desc's deadline onto every query's
    /// DqpConfig.
    StrategyConfig config;
    exec::KernelConfig kernels;
    /// The shard's result cache; nullptr = caching off. Wired into every
    /// query's ExecutionOptions so Dqs::ComputePlan probes segments.
    CacheManager* cache = nullptr;
  };

  /// `ctx` must outlive the loop. Every wrapper the registered queries
  /// read must already be added to ctx->comm (held wrappers are fine).
  SharedQueryLoop(exec::ExecContext* ctx, Options options);

  SharedQueryLoop(const SharedQueryLoop&) = delete;
  SharedQueryLoop& operator=(const SharedQueryLoop&) = delete;

  /// Registers a query and splices it into the rotation; returns its slot.
  int AddQuery(const SharedQueryDesc& desc);

  /// The outcome of one round-robin turn.
  struct Turn {
    enum class Kind {
      kProgress,    // a slice ran (or a replan was absorbed)
      kQueryDone,   // `query` finished on this turn
      kAllStarved,  // every active query starves until `stall_until`
      kIdle,        // no active queries registered
      kQueryDeadline,    // `query`'s virtual deadline expired
      kSourceSuspected,  // the detector suspects `source` (owner `query`)
      kSourceDead,       // the detector declared `source` dead
      kSourceRecovered,  // a suspected/dead `source` delivered again
    };
    Kind kind = Kind::kProgress;
    int query = -1;
    /// kSource*: the global source id the detector signalled.
    SourceId source = kInvalidId;
    /// kAllStarved: the earliest of any active query's next arrival, the
    /// failure detector's next threshold and the earliest live deadline;
    /// kSimTimeNever when none exists (the mix is wedged). The caller
    /// stalls the clock (or errors) — the loop does not touch it.
    SimTime stall_until = kSimTimeNever;
  };

  /// Runs one turn of the current query. Never stalls the clock.
  Result<Turn> Step();

  /// Cooperative cancellation (the fleet's kill path): releases the
  /// query's operand grants and temps (ExecutionState::Cancel), closes
  /// its comm sources so their wrappers go quiet, and retires the slot
  /// from the rotation. The slot reads as done (done_at = now) with
  /// cancelled() true; its metrics stay readable.
  void CancelQuery(int query);
  /// Frees a finished query's storage: drops every temp it still owns
  /// (ExecutionState::Retire). Drivers call it on kQueryDone after cache
  /// admission has taken the complete MF prefixes it wants; the slot's
  /// metrics stay readable.
  void RetireQuery(int query);
  bool cancelled(int query) const {
    return runs_[static_cast<size_t>(query)]->state->cancelled();
  }
  const SharedQueryDesc& desc(int query) const {
    return runs_[static_cast<size_t>(query)]->desc;
  }
  /// The slot owning global source `s`; -1 when unowned.
  int SourceOwner(SourceId s) const {
    return s >= 0 && static_cast<size_t>(s) < source_owner_.size()
               ? source_owner_[static_cast<size_t>(s)]
               : -1;
  }

  int num_queries() const { return static_cast<int>(runs_.size()); }
  /// Registered queries not yet finished.
  int active() const { return active_; }
  bool done(int query) const {
    return runs_[static_cast<size_t>(query)]->done;
  }
  /// Virtual completion time (valid once done).
  SimTime done_at(int query) const {
    return runs_[static_cast<size_t>(query)]->done_at;
  }
  const exec::ResultCollector& result(int query) const {
    return *runs_[static_cast<size_t>(query)]->result;
  }
  int64_t degradations(int query) const {
    return runs_[static_cast<size_t>(query)]->state->degradations();
  }
  /// The query's execution state (cache admission walks its completed
  /// MFs; read-only).
  const ExecutionState& state(int query) const {
    return *runs_[static_cast<size_t>(query)]->state;
  }

  /// The per-query-attributable slice of ExecutionMetrics: result,
  /// planning/execution phase counts, degradation/overflow/rate-change
  /// activity (timeouts stay zero: the loop's DQPs never stall).
  /// Shared-device fields (busy/stalled time, disk, network, temps, peak
  /// memory) stay zero — they belong to the owning context and are
  /// aggregated by the caller in its documented merge order.
  ExecutionMetrics QueryMetrics(int query) const;

 private:
  struct QueryRun {
    SharedQueryDesc desc;
    std::unique_ptr<exec::ResultCollector> result;
    std::unique_ptr<ExecutionState> state;
    std::unique_ptr<Dqs> dqs;
    std::unique_ptr<Dqp> dqp;
    std::unique_ptr<Dqo> dqo;
    SchedulingPlan sp;
    bool need_replan = true;
    bool done = false;
    SimTime done_at = 0;
    // kSeq: iterator-model chain order and position.
    std::vector<ChainId> seq_order;
    size_t seq_cursor = 0;
    // Cached minimum NextArrival over this query's active fragments (the
    // all-starved scan). Valid while `arrival_epoch` — the query's
    // structural version plus the sum of its sources' delivery versions —
    // holds and no contributing source answers time-dependently
    // (TimeDependentArrival: temp-backed values drift with the clock).
    SimTime arrival_min = 0;
    uint64_t arrival_epoch = 0;
    bool arrival_valid = false;
    bool arrival_volatile = false;
    // Event counter surfaced through QueryMetrics.
    int64_t rate_change_events = 0;
  };

  uint64_t QueryEpoch(const QueryRun& run) const;
  /// The all-starved stall target: refreshes stale per-query minima and
  /// pops the lazy heap. kSimTimeNever when no active query ever receives
  /// another tuple.
  SimTime EarliestArrival();

  exec::ExecContext* ctx_;
  Options options_;
  std::vector<std::unique_ptr<QueryRun>> runs_;
  /// Global source id -> owning slot; -1 = unowned.
  std::vector<int> source_owner_;
  /// Lazy min-heap over per-query earliest arrivals (same stale-entry
  /// pattern as CommManager's pump heap): `arrival_key_[q]` is the only
  /// live key for slot q; entries whose key differs are skipped on pop.
  std::priority_queue<std::pair<SimTime, int>,
                      std::vector<std::pair<SimTime, int>>, std::greater<>>
      arrival_heap_;
  std::vector<SimTime> arrival_key_;
  /// Round-robin ring over the active queries. ring_next_[tail_] is the
  /// ring head; ring_prev_ is the slot visited last (the next visit is
  /// ring_next_[ring_prev_]).
  std::vector<int> ring_next_;
  int ring_tail_ = -1;
  int ring_prev_ = -1;
  int active_ = 0;
  int starved_streak_ = 0;
  int64_t guard_ = 0;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_SHARED_LOOP_H_

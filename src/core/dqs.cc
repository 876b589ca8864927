#include "core/dqs.h"

#include <algorithm>

#include "common/host_clock.h"
#include "common/macros.h"
#include "core/cache_manager.h"
#include "core/invariant_auditor.h"

namespace dqsched::core {

namespace {

/// Some unfinished ancestor of `chain` reads a source the failure detector
/// suspects: the chain's unblocking is delayed indefinitely, not just by
/// the ancestor's normal drain time.
bool BlockedOnSuspectedSource(const ExecutionState& state,
                              const exec::ExecContext& ctx, ChainId chain) {
  const plan::CompiledPlan& compiled = state.compiled();
  for (ChainId a : compiled.AncestorsOf(chain)) {
    if (state.ChainDone(a)) continue;
    if (ctx.comm.SourceSuspected(compiled.chain(a).source)) return true;
  }
  return false;
}

}  // namespace

double Dqs::ChainCritical(const ExecutionState& state,
                          const exec::ExecContext& ctx, ChainId chain) {
  const plan::ChainInfo& info = state.compiled().chain(chain);
  const int64_t n = ctx.comm.RemainingTuples(info.source);
  if (n <= 0) return 0.0;
  // A suspected-down source's effective wait is unbounded: scheduling its
  // chain early buys no overlap, so it loses critical priority entirely
  // until the detector signals recovery (graceful degradation, §4.4
  // applied to faults).
  if (ctx.comm.SourceSuspected(info.source)) return 0.0;
  const double w = ctx.comm.EstimatedWaitNs(info.source);
  const double c = info.est_cpu_per_tuple_ns;
  return static_cast<double>(n) * (w - c);
}

double Dqs::Bmi(const ExecutionState& state, const exec::ExecContext& ctx,
                ChainId chain) {
  const plan::ChainInfo& info = state.compiled().chain(chain);
  const double w = ctx.comm.EstimatedWaitNs(info.source);
  const double io = static_cast<double>(ctx.cost->TupleIoTime());
  return w / (2.0 * io);
}

Status Dqs::ComputePlan(ExecutionState& state, exec::ExecContext& ctx,
                        Dqo& dqo, SchedulingPlan* plan) {
  const auto host_start = HostClock::Now();
  ++planning_phases_;
  // Step 1: snapshot the delivery-rate estimates; future RateChange
  // signals compare against this plan's view.
  ctx.comm.MarkPlanned(ctx.clock.now());

  const plan::CompiledPlan& compiled = state.compiled();
  const int num_chains = compiled.num_chains();

  // Audit point (DQSCHED_AUDIT builds): the decomposition and the runtime
  // conservation laws must hold before a new plan is derived from them.
  DQS_AUDIT(AuditCompiledPlan(compiled));
  DQS_AUDIT(AuditExecutionState(state, ctx));

  // Step 2: degraded chains whose ancestors finished resume as CF(p).
  for (ChainId c = 0; c < num_chains; ++c) {
    if (!state.ChainDone(c) && state.Degraded(c) && !state.CfActivated(c) &&
        state.CSchedulable(c)) {
      state.ActivateCf(c, ctx);
    }
  }

  // Cache probe (DESIGN.md §14): untouched chains whose (source, leading
  // filters, version) segment is cached are rebound to the cached temp
  // and their sources closed, BEFORE the degradation pass reads critical
  // degrees — a rebound chain has no remaining live tuples, so neither
  // degradation trigger below can fire on it. Runs at most once per chain
  // per run; a no-op (with deterministic miss counters) on a cold cache.
  if (state.options().cache != nullptr) {
    state.options().cache->TrySegmentHits(state, ctx);
  }

  // Step 3: degrade critical, blocked, not-yet-degraded chains when
  // materialization is beneficial (bmi > bmt). Degradation is
  // irreversible, so it waits for an *observed* delivery rate: until a
  // source's estimator warms up, its w is just the compile-time prior (the
  // CM signals a RateChange the moment initial observations land, so the
  // decision is only deferred by a fraction of a millisecond).
  for (ChainId c = 0; c < num_chains; ++c) {
    if (state.ChainDone(c) || state.Degraded(c) || state.CSchedulable(c)) {
      continue;
    }
    const SourceId src = compiled.chain(c).source;
    // Fault-driven degradation: a chain gated by a suspected-down source
    // waits unboundedly, so materializing its own live stream pays off
    // regardless of bmi — provided its own source is up and delivering.
    // (SourceSuspected is constant-false without failure detection.)
    if (ctx.comm.failure_detection() &&
        BlockedOnSuspectedSource(state, ctx, c)) {
      if (!ctx.comm.SourceSuspected(src) &&
          ctx.comm.RemainingTuples(src) > 0) {
        state.Degrade(c, ctx);
      }
      continue;
    }
    if (!ctx.comm.EstimateWarm(src)) continue;
    if (ChainCritical(state, ctx, c) > 0.0 &&
        Bmi(state, ctx, c) > config_.bmt) {
      state.Degrade(c, ctx);
    }
  }

  // Memory-overflow revision (M-schedulability of the chain in isolation,
  // Section 4.2; exact operand sizes are known because ancestors
  // finished): a C-schedulable chain that cannot open within the whole
  // budget is split by the DQO before candidates are collected.
  for (ChainId c = 0; c < num_chains; ++c) {
    if (state.ChainDone(c) || !state.CSchedulable(c)) continue;
    const int frag = state.ChainFragment(c);
    if (!state.FragmentActive(frag)) continue;
    exec::FragmentRuntime& rt = state.fragment(frag);
    if (!rt.opened() && rt.BytesToOpen(ctx) > ctx.memory.budget()) {
      DQS_RETURN_IF_ERROR(dqo.HandleMemoryOverflow(state, ctx, c));
      // The slot now holds the first split stage.
    }
  }

  // All structural mutation of this phase is behind us; everything below
  // is a pure function of (state, comm estimates) and cacheable.
  const uint64_t structural = state.structural_version();
  const bool fresh = !cache_.valid || cache_.state != &state ||
                     cache_.structural_version != structural;

  // Step 4: recursive priorities (the heuristic of the paper's companion
  // report [6]: "recursively computes the QFs' priorities, beginning with
  // the most critical PC"). A chain's *subtree criticality* is its own
  // critical degree plus that of every chain it transitively blocks:
  // starving a gating chain delays all of its dependents' scheduling, so
  // its urgency accumulates theirs. On a warm cache only chains whose
  // source version drifted recompute; the subtree sums they feed re-sum
  // their descendant span in the same ascending order the full rebuild
  // uses, so warm and cold results are bit-identical.
  auto resum_subtree = [&](ChainId c) {
    double acc = cache_.critical[static_cast<size_t>(c)];
    for (ChainId d : compiled.TransitiveDependentsOf(c)) {
      acc += cache_.critical[static_cast<size_t>(d)];
    }
    cache_.subtree[static_cast<size_t>(c)] = acc;
  };
  dirty_chains_.clear();
  if (fresh) {
    ++full_replans_;
    cache_.critical.resize(static_cast<size_t>(num_chains));
    cache_.subtree.resize(static_cast<size_t>(num_chains));
    cache_.source_version.resize(static_cast<size_t>(num_chains));
    dirty_mark_.assign(static_cast<size_t>(num_chains), 0);
    for (ChainId c = 0; c < num_chains; ++c) {
      cache_.source_version[static_cast<size_t>(c)] =
          ctx.comm.SourceVersion(compiled.chain(c).source);
      cache_.critical[static_cast<size_t>(c)] =
          state.ChainDone(c) ? 0.0 : ChainCritical(state, ctx, c);
    }
    for (ChainId c = 0; c < num_chains; ++c) resum_subtree(c);
  } else {
    ++incremental_replans_;
    for (ChainId c = 0; c < num_chains; ++c) {
      const uint64_t v = ctx.comm.SourceVersion(compiled.chain(c).source);
      if (v == cache_.source_version[static_cast<size_t>(c)]) continue;
      cache_.source_version[static_cast<size_t>(c)] = v;
      const double crit =
          state.ChainDone(c) ? 0.0 : ChainCritical(state, ctx, c);
      if (crit == cache_.critical[static_cast<size_t>(c)]) continue;
      cache_.critical[static_cast<size_t>(c)] = crit;
      // The chain's own subtree and every ancestor's sum include this
      // term: mark them all for re-summation and order repair.
      if (dirty_mark_[static_cast<size_t>(c)] == 0) {
        dirty_mark_[static_cast<size_t>(c)] = 1;
        dirty_chains_.push_back(c);
      }
      for (ChainId a : compiled.AncestorsOf(c)) {
        if (dirty_mark_[static_cast<size_t>(a)] == 0) {
          dirty_mark_[static_cast<size_t>(a)] = 1;
          dirty_chains_.push_back(a);
        }
      }
    }
    for (ChainId c : dirty_chains_) resum_subtree(c);
  }

  // Step 5: collect candidates — C-schedulable chain fragments and live
  // materialization fragments — and order them by subtree criticality,
  // then unblocking power. Ties beyond those two keys resolve by the
  // canonical construction order (what a stable sort preserves), making
  // the order a strict total order: the warm path merely repositions the
  // candidates whose priority drifted and lands on the same sequence a
  // cold sort produces.
  auto candidate_before = [this](int i, int j) {
    const Candidate& a = cache_.candidates[static_cast<size_t>(i)];
    const Candidate& b = cache_.candidates[static_cast<size_t>(j)];
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.dependents != b.dependents) return a.dependents > b.dependents;
    return i < j;
  };
  if (fresh) {
    cache_.candidates.clear();
    for (ChainId c = 0; c < num_chains; ++c) {
      if (state.ChainDone(c) || !state.CSchedulable(c)) continue;
      const int frag = state.ChainFragment(c);
      if (!state.FragmentActive(frag)) continue;
      cache_.candidates.push_back(
          {frag, c, compiled.NumTransitiveDependents(c),
           cache_.subtree[static_cast<size_t>(c)]});
    }
    for (int f = num_chains; f < state.num_fragments(); ++f) {
      if (!state.FragmentActive(f)) continue;
      const ChainId origin = state.FragmentChain(f);
      Candidate cand;
      cand.fragment = f;
      cand.origin = origin;
      cand.dependents =
          origin == kInvalidId ? 0 : compiled.NumTransitiveDependents(origin);
      cand.priority = origin == kInvalidId
                          ? 0.0
                          : cache_.subtree[static_cast<size_t>(origin)];
      cache_.candidates.push_back(cand);
    }
    cache_.order.resize(cache_.candidates.size());
    for (size_t i = 0; i < cache_.order.size(); ++i) {
      cache_.order[i] = static_cast<int>(i);
    }
    std::sort(cache_.order.begin(), cache_.order.end(), candidate_before);
  } else if (!dirty_chains_.empty()) {
    changed_order_.clear();
    kept_order_.clear();
    for (Candidate& cand : cache_.candidates) {
      if (cand.origin != kInvalidId &&
          dirty_mark_[static_cast<size_t>(cand.origin)] != 0) {
        cand.priority = cache_.subtree[static_cast<size_t>(cand.origin)];
      }
    }
    for (int idx : cache_.order) {
      const ChainId origin =
          cache_.candidates[static_cast<size_t>(idx)].origin;
      if (origin != kInvalidId &&
          dirty_mark_[static_cast<size_t>(origin)] != 0) {
        changed_order_.push_back(idx);
      } else {
        kept_order_.push_back(idx);
      }
    }
    std::sort(changed_order_.begin(), changed_order_.end(),
              candidate_before);
    std::merge(kept_order_.begin(), kept_order_.end(),
               changed_order_.begin(), changed_order_.end(),
               cache_.order.begin(), candidate_before);
  }
  for (ChainId c : dirty_chains_) dirty_mark_[static_cast<size_t>(c)] = 0;
  cache_.valid = true;
  cache_.state = &state;
  cache_.structural_version = structural;

  // Step 6: greedy memory admission. Fragments already holding grants are
  // free; unopened ones reserve their open cost against what is left.
  SchedulingPlan& sp = *plan;
  sp.fragments.clear();
  sp.critical_ns.clear();
  int64_t remaining = ctx.memory.available();
  for (int idx : cache_.order) {
    const Candidate& cand = cache_.candidates[static_cast<size_t>(idx)];
    exec::FragmentRuntime& rt = state.fragment(cand.fragment);
    const int64_t need = rt.opened() ? 0 : rt.BytesToOpen(ctx);
    if (need <= remaining) {
      remaining -= need;
      sp.fragments.push_back(cand.fragment);
      sp.critical_ns.push_back(cand.priority);
    }
  }
  // Progress guarantee: never return an empty plan while work exists. The
  // top candidate runs alone; if its Open still fails, the DQP raises
  // MemoryOverflow and the DQO revises the plan.
  if (sp.fragments.empty() && !cache_.order.empty()) {
    const Candidate& top =
        cache_.candidates[static_cast<size_t>(cache_.order.front())];
    sp.fragments.push_back(top.fragment);
    sp.critical_ns.push_back(top.priority);
  }

  planning_host_seconds_ += HostClock::SecondsSince(host_start);

  if (sp.fragments.empty() && !state.QueryDone()) {
    return Status::Internal(
        "scheduler produced an empty plan with the query unfinished");
  }
  if (state.trace().enabled()) {
    state.trace().Record(ctx.clock.now(), TraceEventKind::kPlanningPhase, -1,
                         std::to_string(sp.fragments.size()) +
                             " fragments scheduled");
  }
  // Audit point: the plan just derived must itself be C-/M-schedulable.
  DQS_AUDIT(AuditSchedulingPlan(state, sp, ctx));
  return Status::Ok();
}

}  // namespace dqsched::core

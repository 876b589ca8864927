#include "core/fleet_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/parallel_runner.h"
#include "common/random.h"
#include "core/shared_loop.h"
#include "exec/exec_context.h"

namespace dqsched::core {

namespace {

/// Salt of the retry-backoff jitter stream: dedicated, so arming retries
/// perturbs no data/delay/fault draw anywhere else (DESIGN.md §13).
constexpr uint64_t kFleetRetrySalt = 0x8bb84b93962eacc9ULL;
/// A requeue's backoff is scaled by a jitter drawn uniformly from
/// [1 - kFleetRetryJitter, 1 + kFleetRetryJitter].
constexpr double kFleetRetryJitter = 0.25;

/// Admission estimate of one compiled template: the annotated hard +
/// spillable memory of every chain, never below one byte (the broker
/// rejects zero-weight admissions).
int64_t EstimateBytes(const plan::CompiledPlan& compiled) {
  double est = 0.0;
  for (const plan::ChainInfo& chain : compiled.chains) {
    est += std::ceil(chain.est_mem_bytes + chain.est_sink_mem_bytes);
  }
  return std::max<int64_t>(1, static_cast<int64_t>(est));
}

bool GrantBefore(const MemoryBroker::Grant& a, const MemoryBroker::Grant& b) {
  return a.granted_at != b.granted_at ? a.granted_at < b.granted_at
                                      : a.uid < b.uid;
}

}  // namespace

Result<FleetExecutor> FleetExecutor::Create(
    std::vector<plan::QuerySetup> templates,
    std::vector<FleetQuerySpec> workload, FleetConfig config) {
  DQS_RETURN_IF_ERROR(config.Validate());
  if (templates.empty()) {
    return Status::InvalidArgument("no query templates");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("empty fleet workload");
  }
  if (config.num_shards <= 0 || config.sync_turns <= 0) {
    return Status::InvalidArgument("shards and sync turns must be > 0");
  }
  DQS_RETURN_IF_ERROR(config.storm.Validate());
  if (config.max_attempts < 1) {
    return Status::InvalidArgument("fleet max_attempts must be >= 1");
  }
  if (config.deadline_budget < 0 || config.retry_backoff_initial <= 0) {
    return Status::InvalidArgument(
        "fleet lifecycle: deadline budget >= 0, backoff > 0");
  }

  std::vector<PreparedTemplate> prepared;
  prepared.reserve(templates.size());
  for (size_t t = 0; t < templates.size(); ++t) {
    Result<PreparedQuery> query = PrepareQuery(
        std::move(templates[t].catalog), templates[t].plan, config.cost,
        SeedPolicy::Fleet(config.seed, static_cast<int>(t)));
    if (!query.ok()) return query.status();
    PreparedTemplate tpl;
    tpl.est_bytes = EstimateBytes(query->compiled);
    tpl.query = std::move(query.value());
    prepared.push_back(std::move(tpl));
  }

  std::vector<PreparedInstance> instances;
  instances.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const FleetQuerySpec& spec = workload[i];
    if (spec.template_idx < 0 ||
        spec.template_idx >= static_cast<int>(prepared.size())) {
      return Status::InvalidArgument("fleet spec names an unknown template");
    }
    if (spec.arrival < 0) {
      return Status::InvalidArgument("fleet arrival times must be >= 0");
    }
    PreparedInstance inst;
    inst.spec = spec;
    inst.uid = static_cast<int64_t>(i);
    // Stable hash placement: depends only on (seed, uid), never on load.
    inst.shard = static_cast<int>(
        MixSeed(config.seed, static_cast<uint64_t>(i), 0xF1EE7) %
        static_cast<uint64_t>(config.num_shards));
    instances.push_back(std::move(inst));
  }

  // Shard-local source id spaces: each shard's instances get contiguous
  // ranges in admission order (arrival, uid), and each instance runs a
  // template copy remapped into its range.
  std::vector<std::vector<int>> shard_instances(
      static_cast<size_t>(config.num_shards));
  for (const PreparedInstance& inst : instances) {
    shard_instances[static_cast<size_t>(inst.shard)].push_back(
        static_cast<int>(inst.uid));
  }
  for (std::vector<int>& order : shard_instances) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const SimTime aa = instances[static_cast<size_t>(a)].spec.arrival;
      const SimTime bb = instances[static_cast<size_t>(b)].spec.arrival;
      return aa != bb ? aa < bb : a < b;
    });
    SourceId offset = 0;
    for (int idx : order) {
      PreparedInstance& inst = instances[static_cast<size_t>(idx)];
      const PreparedTemplate& tpl =
          prepared[static_cast<size_t>(inst.spec.template_idx)];
      inst.compiled = tpl.query.compiled;
      for (plan::ChainInfo& chain : inst.compiled.chains) {
        chain.source += offset;
      }
      inst.source_lo = offset;
      inst.source_hi = offset + tpl.query.catalog.num_sources();
      offset = inst.source_hi;
    }
  }

  return FleetExecutor(std::move(prepared), std::move(instances),
                       std::move(shard_instances), std::move(config));
}

Result<FleetMetrics> FleetExecutor::Execute(StrategyKind strategy,
                                            int jobs) const {
  if (strategy == StrategyKind::kMa) {
    return Status::InvalidArgument(
        "fleet execution supports SEQ and DSE per-query strategies");
  }
  const int num_shards = config_.num_shards;
  const int total = num_queries();

  comm::CommConfig comm_config = config_.comm;
  // A storm is pointless without the detector watching for it.
  if (config_.storm.active()) comm_config.failure_detection = true;

  // Logical source keys: breakers, storm regions and result-cache entries
  // are per *logical* source (template-relative relation), shared by every
  // query instance reading it, and identically laid out on every shard.
  std::vector<int> tpl_key_offset(templates_.size(), 0);
  int total_keys = 0;
  for (size_t t = 0; t < templates_.size(); ++t) {
    tpl_key_offset[t] = total_keys;
    total_keys += templates_[t].query.catalog.num_sources();
  }

  // Result cache (DESIGN.md §14): one CacheManager per shard, created on
  // the first cache-enabled Execute and kept across Execute calls — the
  // warmth is the whole point. Epoch gating inside the cache keeps every
  // entry admitted *this* run invisible until the next one, so run 1 is
  // always cold.
  const bool caching = config_.cache.enabled;
  if (caching && caches_.empty()) {
    caches_.resize(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      caches_[static_cast<size_t>(s)] =
          std::make_unique<CacheManager>(config_.cache);
    }
  }
  // Per-query lifecycle state. Each entry is touched by its owning
  // shard's advance task mid-round and by the coordinator at barriers
  // (shed marking); ParallelRunner::Run joining its workers orders the
  // two, exactly like the shards' own state.
  struct LifeState {
    int attempts = 0;  // attempts that joined a shard loop
    bool terminal = false;
    SimTime deadline = 0;  // current attempt's absolute deadline (0=none)
    bool partial = false;  // current attempt degraded (breaker-closed src)
  };
  std::vector<LifeState> life(static_cast<size_t>(total));
  // Fault activity per query, accumulated over its attempts: injection
  // counters harvested from each attempt's wrappers at attempt end,
  // detection/resolution counters counted from lifecycle turns.
  std::vector<FaultStats> fault_acc(static_cast<size_t>(total));

  // Per-shard run state. The ExecContext/loop/mailbox of shard s are
  // touched only by the coordinator (between rounds) and by whichever
  // worker runs s's advance task (during a round); ParallelRunner::Run
  // joining its workers is the barrier that orders the two.
  struct ShardRun {
    std::unique_ptr<exec::ExecContext> ctx;
    std::unique_ptr<SharedQueryLoop> loop;
    /// Granted-but-not-joined queries, sorted by (granted_at, uid).
    std::deque<MemoryBroker::Grant> mailbox;
    /// Loop slot -> query uid (retried queries own several slots).
    std::vector<int64_t> slot_uid;
    /// Sum of joined-but-not-released admission estimates.
    int64_t outstanding_est = 0;
    /// Queries retired in a terminal status on this shard.
    int retired = 0;
    Status status = Status::Ok();
    /// Lifecycle: per-logical-source breakers, the shard-local source ->
    /// logical key map, and which uid holds each key's half-open probe.
    std::unique_ptr<BreakerPanel> breakers;
    std::vector<int> source_key;
    std::vector<int64_t> probe_owner;
    /// Shard-remapped plan copies of retry attempts (deque: AddQuery
    /// keeps pointers into elements, so no reallocation is allowed).
    std::deque<plan::CompiledPlan> retry_plans;
    /// The shard cache's run. Declared last so it is destroyed first: the
    /// accountant it returns the reclaimable grant to lives inside `ctx`.
    /// Entries stay resident across runs.
    std::optional<CacheRunScope> cache_run;
  };
  std::vector<ShardRun> shards(static_cast<size_t>(num_shards));

  // Registers one attempt's wrappers, held, at the end of the shard's
  // source space, and maps each to its logical key. Instances of a
  // template hash to the same cache entries: the fingerprint sees the
  // logical key, not the shard-local id.
  auto add_attempt_sources = [&](ShardRun& sr, const PreparedInstance& inst,
                                 int attempt, CacheManager* cache) {
    const int t = inst.spec.template_idx;
    const PreparedQuery& q = templates_[static_cast<size_t>(t)].query;
    const SourceId lo =
        AddWrappers(*sr.ctx, q, SeedPolicy::Fleet(config_.seed, t, inst.uid,
                                                  attempt),
                    /*hold=*/true);
    for (SourceId src = 0; src < q.catalog.num_sources(); ++src) {
      const int key = tpl_key_offset[static_cast<size_t>(t)] +
                      static_cast<int>(src);
      sr.source_key.push_back(key);
      if (cache != nullptr) cache->MapSource(lo + src, key);
    }
    return lo;
  };

  for (int s = 0; s < num_shards; ++s) {
    ShardRun& sr = shards[static_cast<size_t>(s)];
    sr.ctx = std::make_unique<exec::ExecContext>(
        &config_.cost, comm_config, config_.memory_budget_bytes);
    sr.breakers = std::make_unique<BreakerPanel>(total_keys, config_.breaker);
    sr.probe_owner.assign(static_cast<size_t>(total_keys), -1);
    // Register every wrapper of every query this shard will ever run, in
    // shard-local source id order, held: a held wrapper delivers nothing
    // and reports no arrival until its query is admitted and StartSource
    // releases it at the join time.
    CacheManager* const shard_cache =
        caching ? caches_[static_cast<size_t>(s)].get() : nullptr;
    for (int idx : shard_instances_[static_cast<size_t>(s)]) {
      const PreparedInstance& inst = instances_[static_cast<size_t>(idx)];
      const SourceId lo =
          add_attempt_sources(sr, inst, /*attempt=*/1, shard_cache);
      DQS_CHECK(lo == inst.source_lo);
    }
    SharedQueryLoop::Options loop_options;
    loop_options.strategy = strategy;
    loop_options.config = config_.strategy;
    loop_options.kernels = config_.kernels;
    loop_options.cache = shard_cache;
    sr.loop = std::make_unique<SharedQueryLoop>(sr.ctx.get(), loop_options);
    sr.cache_run.emplace(shard_cache, &sr.ctx->memory, /*begin_run=*/true);
  }

  MemoryBroker broker(MemoryBroker::Config{config_.memory_budget_bytes});
  // The whole open-loop stream is known upfront, so every admission
  // request is submitted before the first round; arrival times ride along
  // and the broker's virtual grant stamps never precede them.
  for (const PreparedInstance& inst : instances_) {
    MemoryBroker::Request req;
    req.uid = inst.uid;
    req.shard = inst.shard;
    req.est_bytes =
        templates_[static_cast<size_t>(inst.spec.template_idx)].est_bytes;
    req.fairness = inst.spec.fairness;
    req.arrival = inst.spec.arrival;
    if (config_.deadline_budget > 0) {
      req.deadline = req.arrival + config_.deadline_budget;
      life[static_cast<size_t>(inst.uid)].deadline = req.deadline;
    }
    broker.Submit(req);
  }

  std::vector<FleetQueryOutcome> outcomes(static_cast<size_t>(total));
  for (const PreparedInstance& inst : instances_) {
    FleetQueryOutcome& oc = outcomes[static_cast<size_t>(inst.uid)];
    oc.uid = inst.uid;
    oc.shard = inst.shard;
    oc.template_idx = inst.spec.template_idx;
    oc.fairness = inst.spec.fairness;
    oc.est_bytes =
        templates_[static_cast<size_t>(inst.spec.template_idx)].est_bytes;
    oc.arrival = inst.spec.arrival;
  }

  // One shard advance: deliver due grants, run up to sync_turns loop
  // turns, stall only the shard's own clock. Completion releases go to
  // the broker mid-round (append only); new grants arrive at the barrier.
  auto advance = [&](int s) {
    ShardRun& sr = shards[static_cast<size_t>(s)];
    exec::ExecContext& ctx = *sr.ctx;
    CacheManager* const cache =
        caching ? caches_[static_cast<size_t>(s)].get() : nullptr;

    // Fold the injection-side fault counters of one attempt's sources
    // into the query's accumulator (called exactly once per attempt, at
    // its end — each attempt owns fresh wrappers, so nothing double
    // counts).
    auto harvest = [&](int slot) {
      const SharedQueryDesc& d = sr.loop->desc(slot);
      FoldSourceFaults(
          ctx.comm, d.source_lo, d.source_hi,
          &fault_acc[static_cast<size_t>(
              sr.slot_uid[static_cast<size_t>(slot)])]);
    };

    // A cancelled query abandons any half-open probe it held: the probe
    // proved nothing, so the breaker reopens (with its cooldown backed
    // off) instead of wedging with a probe slot nobody will ever clear.
    auto abort_probes = [&](int slot, int64_t uid) {
      const SharedQueryDesc& d = sr.loop->desc(slot);
      for (SourceId src = d.source_lo; src < d.source_hi; ++src) {
        const int key = sr.source_key[static_cast<size_t>(src)];
        if (sr.probe_owner[static_cast<size_t>(key)] == uid) {
          sr.breakers->Of(key).OnProbeAborted(ctx.clock.now());
          sr.probe_owner[static_cast<size_t>(key)] = -1;
        }
      }
    };

    // Kill the attempt in `slot` (source death or deadline expiry):
    // cancel cooperatively — ExecutionState::Cancel releases every
    // operand grant and temp, CancelQuery closes the comm sources — give
    // the broker its memory back, then either requeue with exponential
    // backoff or retire in a terminal status.
    auto kill_attempt = [&](int slot, bool deadline_kill) {
      const int64_t uid = sr.slot_uid[static_cast<size_t>(slot)];
      LifeState& ls = life[static_cast<size_t>(uid)];
      FleetQueryOutcome& oc = outcomes[static_cast<size_t>(uid)];
      const SimTime now = ctx.clock.now();
      harvest(slot);
      abort_probes(slot, uid);
      sr.loop->CancelQuery(slot);
      MemoryBroker::Release rel;
      rel.uid = uid;
      rel.bytes = oc.est_bytes;
      rel.completed_at = now;
      broker.Submit(rel);
      sr.outstanding_est -= oc.est_bytes;
      if (deadline_kill) fault_acc[static_cast<size_t>(uid)].deadline_hit = true;
      if (ls.attempts < config_.max_attempts) {
        // Requeue through the broker. The jitter comes off a dedicated
        // salted stream keyed by (uid, attempt): deterministic across
        // --jobs, and arming retries perturbs no other draw.
        Rng rng(MixSeed(config_.seed ^ kFleetRetrySalt,
                        static_cast<uint64_t>(uid),
                        static_cast<uint64_t>(ls.attempts)));
        const double scale =
            1.0 + kFleetRetryJitter * (2.0 * rng.NextDouble() - 1.0);
        const SimDuration backoff = static_cast<SimDuration>(std::ceil(
            static_cast<double>(config_.retry_backoff_initial) *
            std::ldexp(1.0, ls.attempts - 1) * scale));
        MemoryBroker::Request req;
        req.uid = uid;
        req.shard = s;
        req.est_bytes = oc.est_bytes;
        req.fairness = oc.fairness;
        req.arrival = now + backoff;
        if (config_.deadline_budget > 0) {
          req.deadline = req.arrival + config_.deadline_budget;
          ls.deadline = req.deadline;
        }
        ls.partial = false;
        broker.Submit(req);
      } else {
        ls.terminal = true;
        oc.status = deadline_kill ? QueryStatus::kDeadlineCancelled
                                  : QueryStatus::kRetriesExhausted;
        oc.completed = now;
        oc.completion_latency = now - oc.arrival;
        ++sr.retired;
      }
    };

    auto join_front = [&] {
      const MemoryBroker::Grant grant = sr.mailbox.front();
      sr.mailbox.pop_front();
      const int64_t uid = grant.uid;
      const PreparedInstance& inst = instances_[static_cast<size_t>(uid)];
      const PreparedTemplate& tpl =
          templates_[static_cast<size_t>(inst.spec.template_idx)];
      LifeState& ls = life[static_cast<size_t>(uid)];
      FleetQueryOutcome& oc = outcomes[static_cast<size_t>(uid)];
      const SimTime now = ctx.clock.now();
      if (ls.deadline > 0 && now >= ls.deadline) {
        // The grant outlived its usefulness while it sat in the mailbox
        // (the shard's clock outran the deadline): shed at join — the
        // grant is returned unused, the query never runs.
        MemoryBroker::Release rel;
        rel.uid = uid;
        rel.bytes = grant.est_bytes;
        rel.completed_at = now;
        broker.Submit(rel);
        ls.terminal = true;
        oc.status = QueryStatus::kShed;
        ++sr.retired;
        return;
      }
      if (cache != nullptr) {
        // Whole-query result hit (DESIGN.md §14): the fingerprint sees
        // logical keys, so the first attempt's plan stands in for any
        // attempt. The query joins already answered — its sources are
        // never started (they stay held, like a shed query's), no storm
        // schedule is compiled, no breaker is consulted — and the grant
        // goes straight back to the broker.
        int64_t hit_count = 0;
        uint64_t hit_checksum = 0;
        if (cache->LookupResult(inst.compiled, &hit_count, &hit_checksum)) {
          ++ls.attempts;
          SharedQueryDesc desc;
          desc.compiled = &inst.compiled;
          desc.source_lo = inst.source_lo;
          desc.source_hi = inst.source_hi;
          desc.deadline = ls.deadline;
          desc.resolved = true;
          desc.resolved_count = hit_count;
          desc.resolved_checksum = hit_checksum;
          const int slot = sr.loop->AddQuery(desc);
          DQS_CHECK(slot == static_cast<int>(sr.slot_uid.size()));
          sr.slot_uid.push_back(uid);
          oc.joined = now;
          oc.completed = now;
          oc.completion_latency = now - oc.arrival;
          oc.status = QueryStatus::kOk;
          ls.terminal = true;
          MemoryBroker::Release rel;
          rel.uid = uid;
          rel.bytes = grant.est_bytes;
          rel.completed_at = now;
          broker.Submit(rel);
          ++sr.retired;
          return;
        }
      }
      ++ls.attempts;
      SourceId lo = inst.source_lo;
      SourceId hi = inst.source_hi;
      const plan::CompiledPlan* compiled = &inst.compiled;
      if (ls.attempts > 1) {
        // A retry runs fresh wrappers in a fresh shard-local source
        // range; the first attempt's closed range stays retired. The
        // wrapper seed folds the attempt in, so retries replay the same
        // *data* through new delay/fault draws.
        lo = add_attempt_sources(sr, inst, ls.attempts, cache);
        hi = lo + tpl.query.catalog.num_sources();
        sr.retry_plans.push_back(tpl.query.compiled);
        plan::CompiledPlan& copy = sr.retry_plans.back();
        for (plan::ChainInfo& chain : copy.chains) chain.source += lo;
        compiled = &copy;
      }
      for (SourceId src = lo; src < hi; ++src) {
        const int key = sr.source_key[static_cast<size_t>(src)];
        if (config_.storm.active()) {
          // Compile the absolute-time storm spec into this attempt's
          // tuple-index schedule: an attempt starting after the storm
          // passed gets an empty schedule, which is what makes
          // retry-after-recovery succeed.
          Rng rng(MixSeed(config_.seed ^ kFaultSalt,
                          static_cast<uint64_t>(uid) * 64 +
                              static_cast<uint64_t>(ls.attempts),
                          static_cast<uint64_t>(key)));
          wrapper::FaultSchedule schedule = wrapper::BuildStormSchedule(
              config_.storm, key, total_keys, now,
              ctx.comm.wrapper(src).MeanDelayNs(),
              (*tpl.query.data)[static_cast<size_t>(src - lo)].cardinality(),
              &rng);
          ctx.comm.InstallFaultSchedule(
              src, std::move(schedule),
              MixSeed(config_.seed ^ kFaultSalt,
                      static_cast<uint64_t>(uid) * 64 +
                          static_cast<uint64_t>(ls.attempts),
                      static_cast<uint64_t>(key) + 0x5151));
        }
        CircuitBreaker& breaker = sr.breakers->Of(key);
        const bool probing = breaker.state(now) == BreakerState::kHalfOpen;
        if (breaker.Allow(now)) {
          if (probing) sr.probe_owner[static_cast<size_t>(key)] = uid;
          ctx.comm.StartSource(src, now);
        } else {
          // Open breaker: degrade immediately instead of burning the
          // deadline budget rediscovering a known outage. The source
          // contributes nothing; the query finishes partial.
          ctx.comm.CloseSource(src);
          ls.partial = true;
          ++fault_acc[static_cast<size_t>(uid)].sources_abandoned;
        }
      }
      SharedQueryDesc desc;
      desc.compiled = compiled;
      // First attempts and retries read the template's data: one set.
      desc.indexes = tpl.query.indexes.get();
      desc.source_lo = lo;
      desc.source_hi = hi;
      desc.deadline = ls.deadline;
      const int slot = sr.loop->AddQuery(desc);
      DQS_CHECK(slot == static_cast<int>(sr.slot_uid.size()));
      sr.slot_uid.push_back(uid);
      oc.joined = now;
      sr.outstanding_est += grant.est_bytes;
    };

    for (int64_t turns = 0; turns < config_.sync_turns;) {
      while (!sr.mailbox.empty() &&
             sr.mailbox.front().granted_at <= ctx.clock.now()) {
        join_front();
      }
      if (sr.loop->active() == 0) {
        // Nothing running: jump the idle shard's clock to its next
        // admission, or yield to the barrier (waiting or finished).
        if (sr.mailbox.empty()) return;
        ctx.clock.StallUntil(sr.mailbox.front().granted_at);
        continue;
      }
      Result<SharedQueryLoop::Turn> turn = sr.loop->Step();
      ++turns;
      if (!turn.ok()) {
        sr.status = turn.status();
        return;
      }
      switch (turn->kind) {
        case SharedQueryLoop::Turn::Kind::kQueryDone: {
          const int slot = turn->query;
          const int64_t uid = sr.slot_uid[static_cast<size_t>(slot)];
          LifeState& ls = life[static_cast<size_t>(uid)];
          FleetQueryOutcome& oc = outcomes[static_cast<size_t>(uid)];
          oc.completed = sr.loop->done_at(slot);
          oc.completion_latency = oc.completed - oc.arrival;
          harvest(slot);
          // Completion is the probe-success signal: every source the
          // query actually read to the end is demonstrably alive, so a
          // non-closed breaker guarding one resets.
          const SharedQueryDesc& d = sr.loop->desc(slot);
          for (SourceId src = d.source_lo; src < d.source_hi; ++src) {
            if (ctx.comm.SourceClosed(src)) continue;
            const int key = sr.source_key[static_cast<size_t>(src)];
            CircuitBreaker& breaker = sr.breakers->Of(key);
            if (breaker.state(ctx.clock.now()) != BreakerState::kClosed) {
              breaker.OnRecovered(ctx.clock.now());
            }
            if (sr.probe_owner[static_cast<size_t>(key)] == uid) {
              sr.probe_owner[static_cast<size_t>(key)] = -1;
            }
          }
          if (ls.partial) {
            fault_acc[static_cast<size_t>(uid)].partial_result = true;
          }
          oc.status =
              ls.partial ? QueryStatus::kPartial : QueryStatus::kOk;
          if (cache != nullptr) {
            // Harvest the clean completion: finished MFs whose sources
            // were never closed become cached segments; a full (non-
            // partial) answer also caches its result digest. Visible only
            // from the next run on (epoch gating).
            cache->AdmitQuery(sr.loop->state(slot), ctx,
                              oc.status == QueryStatus::kOk);
          }
          // The shard outlives the query: free the temps admission left.
          sr.loop->RetireQuery(slot);
          ls.terminal = true;
          MemoryBroker::Release rel;
          rel.uid = uid;
          rel.bytes = oc.est_bytes;
          rel.completed_at = oc.completed;
          broker.Submit(rel);
          sr.outstanding_est -= oc.est_bytes;
          ++sr.retired;
          break;
        }
        case SharedQueryLoop::Turn::Kind::kQueryDeadline: {
          kill_attempt(turn->query, /*deadline_kill=*/true);
          break;
        }
        case SharedQueryLoop::Turn::Kind::kSourceSuspected: {
          const int key = sr.source_key[static_cast<size_t>(turn->source)];
          sr.breakers->Of(key).OnSuspected(ctx.clock.now());
          if (turn->query >= 0) {
            FaultStats& f = fault_acc[static_cast<size_t>(
                sr.slot_uid[static_cast<size_t>(turn->query)])];
            ++f.sources_suspected;
            ++f.source_down_events;
          }
          break;
        }
        case SharedQueryLoop::Turn::Kind::kSourceDead: {
          const int key = sr.source_key[static_cast<size_t>(turn->source)];
          sr.breakers->Of(key).OnDead(ctx.clock.now());  // also clears probe
          sr.probe_owner[static_cast<size_t>(key)] = -1;
          const int owner = turn->query;
          if (owner >= 0 && !sr.loop->done(owner)) {
            FaultStats& f = fault_acc[static_cast<size_t>(
                sr.slot_uid[static_cast<size_t>(owner)])];
            ++f.sources_dead;
            ++f.source_down_events;
            kill_attempt(owner, /*deadline_kill=*/false);
          }
          break;
        }
        case SharedQueryLoop::Turn::Kind::kSourceRecovered: {
          const int key = sr.source_key[static_cast<size_t>(turn->source)];
          sr.breakers->Of(key).OnRecovered(ctx.clock.now());
          sr.probe_owner[static_cast<size_t>(key)] = -1;
          if (turn->query >= 0) {
            FaultStats& f = fault_acc[static_cast<size_t>(
                sr.slot_uid[static_cast<size_t>(turn->query)])];
            ++f.recoveries;
            ++f.source_recovered_events;
          }
          break;
        }
        case SharedQueryLoop::Turn::Kind::kAllStarved: {
          // The loop's target already folds in the detector's next
          // threshold and the live deadlines; the shard adds its next
          // admission.
          SimTime next = turn->stall_until;
          if (!sr.mailbox.empty()) {
            next = std::min(next, sr.mailbox.front().granted_at);
          }
          if (next == kSimTimeNever) {
            sr.status = Status::Internal("fleet shard cannot make progress");
            return;
          }
          ctx.clock.StallUntil(next);
          break;
        }
        default:
          break;  // kProgress / kIdle
      }
    }
  };

  auto deliver = [&](const std::vector<std::vector<MemoryBroker::Grant>>&
                         grants) {
    size_t delivered = 0;
    for (int s = 0; s < num_shards; ++s) {
      ShardRun& sr = shards[static_cast<size_t>(s)];
      for (const MemoryBroker::Grant& grant : grants[static_cast<size_t>(s)]) {
        outcomes[static_cast<size_t>(grant.uid)].admitted = grant.granted_at;
        sr.mailbox.push_back(grant);
        ++delivered;
      }
      std::sort(sr.mailbox.begin(), sr.mailbox.end(), GrantBefore);
    }
    return delivered;
  };

  // Conservation audit (barrier-side): everything the broker thinks is
  // admitted must sit in exactly one place — running in a shard, waiting
  // in a shard's mailbox. Anything else is a leaked or double-counted
  // grant.
  auto audit = [&] {
    int64_t accounted = 0;
    for (const ShardRun& sr : shards) {
      accounted += sr.outstanding_est;
      for (const MemoryBroker::Grant& grant : sr.mailbox) {
        accounted += grant.est_bytes;
      }
    }
    DQS_CHECK_MSG(broker.outstanding_bytes() == accounted,
                  "fleet memory accounting mismatch: broker=%lld shards=%lld",
                  static_cast<long long>(broker.outstanding_bytes()),
                  static_cast<long long>(accounted));
  };

  // Barrier-side cache arbitration: report every shard's cached bytes,
  // then trim where firm grants plus the fleet's caches overflow the
  // global budget. Fits() never saw the cached bytes, so admission —
  // and with it the grant sequence — is untouched (work conservation).
  auto reclaim = [&] {
    if (!caching) return;
    for (int s = 0; s < num_shards; ++s) {
      broker.ReportReclaimable(
          s, caches_[static_cast<size_t>(s)]->resident_bytes());
    }
    const std::vector<int64_t> trims = broker.ReclaimTargets(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      if (trims[static_cast<size_t>(s)] > 0) {
        CacheManager& c = *caches_[static_cast<size_t>(s)];
        c.TrimTo(c.resident_bytes() - trims[static_cast<size_t>(s)]);
      }
    }
  };

  ParallelRunner runner(jobs);
  int64_t rounds = 0;
  int shed_total = 0;  // terminals the broker retired (never joined)
  std::vector<MemoryBroker::Request> shed;
  while (true) {
    int terminal_total = shed_total;
    for (const ShardRun& sr : shards) terminal_total += sr.retired;
    if (terminal_total == total) break;
    DQS_CHECK_MSG(++rounds < (1LL << 32), "fleet livelock");

    std::vector<std::function<void()>> tasks;
    for (int s = 0; s < num_shards; ++s) {
      const ShardRun& sr = shards[static_cast<size_t>(s)];
      if (sr.loop->active() > 0 || !sr.mailbox.empty()) {
        tasks.push_back([&advance, s] { advance(s); });
      }
    }
    runner.Run(tasks);
    for (const ShardRun& sr : shards) {
      if (!sr.status.ok()) return sr.status;
    }

    shed.clear();
    const size_t delivered = deliver(broker.Arbitrate(num_shards, &shed));
    // Deadline-aware admission: a queued request whose earliest possible
    // grant stamp reached its deadline was dropped by the broker. It was
    // never granted, so the only bookkeeping is its terminal status.
    for (const MemoryBroker::Request& req : shed) {
      LifeState& ls = life[static_cast<size_t>(req.uid)];
      DQS_CHECK(!ls.terminal);
      ls.terminal = true;
      outcomes[static_cast<size_t>(req.uid)].status = QueryStatus::kShed;
      ++shed_total;
    }
    audit();
    reclaim();
    // Progress: a round with no runnable shard has nothing outstanding
    // (every grant runs in a loop or waits in a mailbox — the audit
    // above), and with nothing outstanding the broker admits any queue
    // head, however large. So such a round admits or sheds a request
    // unless no query is waiting at all, which the terminal count at the
    // top of the loop rules out.
    DQS_CHECK_MSG(!tasks.empty() || delivered > 0 || !shed.empty(),
                  "fleet round made no progress");
  }
  DQS_CHECK_MSG(broker.outstanding_bytes() == 0 && !broker.HasQueued(),
                "fleet ended with outstanding grants");

  FleetMetrics out;
  out.rounds = rounds;
  out.broker = broker.stats();
  out.queries = std::move(outcomes);
  out.shards.resize(static_cast<size_t>(num_shards));
  // Aggregation order is part of the determinism contract: shards in
  // ascending id, and within a shard the loop's slot order (= admission
  // order).
  for (int s = 0; s < num_shards; ++s) {
    const ShardRun& sr = shards[static_cast<size_t>(s)];
    for (int slot = 0; slot < sr.loop->num_queries(); ++slot) {
      const int64_t uid = sr.slot_uid[static_cast<size_t>(slot)];
      FleetQueryOutcome& oc = out.queries[static_cast<size_t>(uid)];
      // Slot order is join order, so a retried query's later attempts
      // overwrite the earlier ones: the final attempt's metrics win.
      oc.metrics = sr.loop->QueryMetrics(slot);
      if (oc.completed > 0 && oc.joined > 0) {
        oc.metrics.response_time = oc.completed - oc.joined;
      }
      // Only a clean completion promises the reference answer: partial
      // results dropped sources by design, cancelled attempts never
      // sealed their sinks.
      if (config_.verify_results && oc.status == QueryStatus::kOk &&
          !sr.loop->cancelled(slot)) {
        const exec::ResultCollector& result = sr.loop->result(slot);
        DQS_RETURN_IF_ERROR(templates_[static_cast<size_t>(oc.template_idx)]
                                .query.CheckAnswer(
                                    result.count(), result.checksum().value(),
                                    "fleet query " + std::to_string(uid)));
      }
    }
    FleetShardOutcome& so = out.shards[static_cast<size_t>(s)];
    so.queries = sr.loop->num_queries();
    so.makespan = sr.loop->num_queries() > 0 ? sr.ctx->clock.now() : 0;
    so.busy_time = sr.ctx->clock.busy_time();
    so.stalled_time = sr.ctx->clock.stalled_time();
    so.peak_memory_bytes = sr.ctx->memory.peak();
    so.disk = sr.ctx->disk.stats();
    so.network = sr.ctx->net.stats();
    so.temps = sr.ctx->temps.stats();
    out.makespan = std::max(out.makespan, so.makespan);
    out.breakers += sr.breakers->TotalStats();
    if (caching) {
      out.cache += caches_[static_cast<size_t>(s)]->stats();
    }
  }
  for (int64_t uid = 0; uid < total; ++uid) {
    FleetQueryOutcome& oc = out.queries[static_cast<size_t>(uid)];
    const LifeState& ls = life[static_cast<size_t>(uid)];
    oc.attempts = ls.attempts;
    oc.deadline = ls.deadline;
    oc.metrics.fault = fault_acc[static_cast<size_t>(uid)];
    out.fault += fault_acc[static_cast<size_t>(uid)];
    ++out.status_counts[static_cast<size_t>(oc.status)];
  }
  return out;
}

void FleetExecutor::ResetCache() const {
  for (const std::unique_ptr<CacheManager>& c : caches_) {
    if (c != nullptr) c->Clear();
  }
}

void FleetExecutor::BumpCacheVersion(int64_t logical_key) const {
  for (const std::unique_ptr<CacheManager>& c : caches_) {
    if (c != nullptr) c->BumpVersion(logical_key);
  }
}

int64_t FleetExecutor::BorrowedCacheSegments() const {
  int64_t n = 0;
  for (const std::unique_ptr<CacheManager>& c : caches_) {
    if (c != nullptr) n += c->borrowed_segments();
  }
  return n;
}

}  // namespace dqsched::core

#include "core/multi_query.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "core/execution_state.h"
#include "core/shared_loop.h"
#include "exec/exec_context.h"

namespace dqsched::core {

const char* MultiModeName(MultiMode mode) {
  switch (mode) {
    case MultiMode::kSerial:
      return "serial";
    case MultiMode::kShared:
      return "shared";
  }
  return "unknown";
}

Result<MultiQueryMediator> MultiQueryMediator::Create(
    std::vector<plan::QuerySetup> setups, MultiQueryConfig config) {
  DQS_RETURN_IF_ERROR(config.Validate());
  if (setups.empty()) {
    return Status::InvalidArgument("no queries in the mix");
  }
  if (config.slice_batches <= 0) {
    return Status::InvalidArgument("slice must be > 0");
  }

  std::vector<PreparedQuery> prepared;
  SourceId offset = 0;
  for (size_t qi = 0; qi < setups.size(); ++qi) {
    Result<PreparedQuery> q = PrepareQuery(
        std::move(setups[qi].catalog), setups[qi].plan, config.cost,
        SeedPolicy::MixQuery(config.seed, static_cast<int>(qi), offset));
    if (!q.ok()) return q.status();
    // Remap chain sources into the shared mediator's global id space.
    for (plan::ChainInfo& chain : q->compiled.chains) chain.source += offset;
    offset += q->catalog.num_sources();
    prepared.push_back(std::move(q.value()));
  }
  return MultiQueryMediator(std::move(prepared), std::move(config));
}

CacheManager* MultiQueryMediator::BeginCacheRun() const {
  if (!config_.cache.enabled) return nullptr;
  if (cache_ == nullptr) cache_ = std::make_unique<CacheManager>(config_.cache);
  cache_->BeginRun();
  return cache_.get();
}

void MultiQueryMediator::AddAllWrappers(exec::ExecContext& ctx) const {
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    AddWrappers(ctx, queries_[qi],
                SeedPolicy::MixQuery(config_.seed, static_cast<int>(qi),
                                     ctx.comm.num_sources()),
                /*hold=*/false);
  }
}

Result<MultiQueryMetrics> MultiQueryMediator::Execute(StrategyKind strategy,
                                                      MultiMode mode) const {
  if (strategy == StrategyKind::kMa) {
    return Status::InvalidArgument(
        "multi-query execution supports SEQ and DSE per-query strategies");
  }
  return mode == MultiMode::kShared ? ExecuteShared(strategy)
                                    : ExecuteSerial(strategy);
}

Result<MultiQueryMetrics> MultiQueryMediator::ExecuteSerial(
    StrategyKind strategy) const {
  CacheManager* const cache = BeginCacheRun();
  MultiQueryMetrics out;
  SimDuration offset = 0;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const PreparedQuery& q = queries_[qi];
    const std::string what =
        "query " + std::to_string(qi) + " of the serial mix";
    if (cache != nullptr) {
      // Whole-query result hit: the answer is served instantly, no
      // context is even built — the query's user waits zero virtual time
      // beyond the mix's current offset.
      int64_t hit_count = 0;
      uint64_t hit_checksum = 0;
      if (cache->LookupResult(q.compiled, &hit_count, &hit_checksum)) {
        if (config_.verify_results) {
          DQS_RETURN_IF_ERROR(
              q.CheckAnswer(hit_count, hit_checksum, "cached " + what));
        }
        out.response_times.push_back(offset);
        out.statuses.push_back(QueryStatus::kOk);
        out.total_result_tuples += hit_count;
        continue;
      }
    }
    exec::ExecContext ctx(&config_.cost, config_.comm,
                          config_.memory_budget_bytes);
    AddAllWrappers(ctx);
    ExecutionOptions options = OptionsFor(strategy);
    options.kernels = config_.kernels;
    options.cache = cache;
    CacheRunScope cache_run(cache, &ctx.memory, /*begin_run=*/false);
    ExecutionState state(&q.compiled, &ctx, options);
    Result<ExecutionMetrics> metrics =
        RunStrategy(strategy, state, ctx, config_.strategy);
    if (!metrics.ok()) return metrics.status();
    if (config_.verify_results) {
      DQS_RETURN_IF_ERROR(q.CheckAnswer(metrics->result_count,
                                        metrics->result_checksum, what));
    }
    if (cache != nullptr) {
      cache->AdmitQuery(state, ctx, !metrics->fault.partial_result);
    }
    offset += metrics->response_time;
    out.response_times.push_back(offset);
    out.statuses.push_back(metrics->fault.partial_result
                               ? QueryStatus::kPartial
                               : QueryStatus::kOk);
    out.total_degradations += metrics->degradations;
    out.total_result_tuples += metrics->result_count;
    out.peak_memory_bytes =
        std::max(out.peak_memory_bytes, metrics->peak_memory_bytes);
    // Stable merge order: ascending query index (this loop).
    out.disk += metrics->disk;
    out.network += metrics->network;
    out.temps += metrics->temps;
    out.fault += metrics->fault;
  }
  out.makespan = offset;
  SimDuration sum = 0;
  for (SimDuration r : out.response_times) sum += r;
  out.mean_response = sum / static_cast<SimDuration>(queries_.size());
  if (cache != nullptr) out.cache = cache->stats();
  return out;
}

Result<MultiQueryMetrics> MultiQueryMediator::ExecuteShared(
    StrategyKind strategy) const {
  CacheManager* const cache = BeginCacheRun();
  const int nq = num_queries();
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  CacheRunScope cache_run(cache, &ctx.memory, /*begin_run=*/false);
  AddAllWrappers(ctx);

  SharedQueryLoop::Options loop_options;
  loop_options.strategy = strategy;
  loop_options.config = config_.strategy;
  loop_options.slice_batches = config_.slice_batches;
  loop_options.targeted_replans = config_.targeted_replans;
  loop_options.kernels = config_.kernels;
  loop_options.cache = cache;
  SharedQueryLoop loop(&ctx, loop_options);
  SourceId lo = 0;
  for (int qi = 0; qi < nq; ++qi) {
    const PreparedQuery& q = queries_[static_cast<size_t>(qi)];
    SharedQueryDesc desc;
    desc.compiled = &q.compiled;
    desc.source_lo = lo;
    lo += q.catalog.num_sources();
    desc.source_hi = lo;
    if (cache != nullptr) {
      // Whole-query result hit: the slot joins already answered and never
      // enters the rotation; its wrappers are never drained.
      int64_t hit_count = 0;
      uint64_t hit_checksum = 0;
      if (cache->LookupResult(q.compiled, &hit_count, &hit_checksum)) {
        desc.resolved = true;
        desc.resolved_count = hit_count;
        desc.resolved_checksum = hit_checksum;
      }
    }
    loop.AddQuery(desc);
  }

  while (loop.active() > 0) {
    Result<SharedQueryLoop::Turn> turn = loop.Step();
    if (!turn.ok()) return turn.status();
    if (turn->kind == SharedQueryLoop::Turn::Kind::kQueryDone) {
      // The shared mode has no partial completions (no lifecycle layer):
      // every finished query carries the full answer.
      if (cache != nullptr) {
        cache->AdmitQuery(loop.state(turn->query), ctx,
                          /*result_complete=*/true);
      }
      continue;
    }
    if (turn->kind != SharedQueryLoop::Turn::Kind::kAllStarved) continue;
    // Every unfinished query starves: advance the shared clock to the
    // earliest arrival any of them waits for. The loop never touches the
    // clock — the stall (and the charge-order discipline around it) lives
    // here in the driver.
    if (turn->stall_until == kSimTimeNever) {
      return Status::Internal("multi-query mix cannot make progress");
    }
    ctx.clock.StallUntil(turn->stall_until);
  }

  MultiQueryMetrics out;
  out.makespan = ctx.clock.now();
  SimDuration sum = 0;
  for (int qi = 0; qi < nq; ++qi) {
    const exec::ResultCollector& result = loop.result(qi);
    if (config_.verify_results) {
      DQS_RETURN_IF_ERROR(queries_[static_cast<size_t>(qi)].CheckAnswer(
          result.count(), result.checksum().value(),
          "query " + std::to_string(qi) + " of the shared mix"));
    }
    out.response_times.push_back(loop.done_at(qi));
    out.statuses.push_back(QueryStatus::kOk);
    sum += loop.done_at(qi);
    out.total_degradations += loop.degradations(qi);
    out.total_result_tuples += result.count();
  }
  out.mean_response = sum / static_cast<SimDuration>(nq);
  out.peak_memory_bytes = ctx.memory.peak();
  // Shared-device aggregates come from the one shared context; the
  // per-wrapper injection counters fold in ascending source id.
  out.disk = ctx.disk.stats();
  out.network = ctx.net.stats();
  out.temps = ctx.temps.stats();
  out.fault = ContextFaults(ctx.comm);
  if (cache != nullptr) out.cache = cache->stats();
  return out;
}

void MultiQueryMediator::ResetCache() const {
  if (cache_ != nullptr) cache_->Clear();
}

void MultiQueryMediator::BumpCacheVersion(int64_t logical_key) const {
  if (cache_ != nullptr) cache_->BumpVersion(logical_key);
}

}  // namespace dqsched::core

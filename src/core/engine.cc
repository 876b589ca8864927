#include "core/engine.h"

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {

namespace {

constexpr uint64_t kDataSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kDelaySalt = 0xc2b2ae3d27d4eb4fULL;

uint64_t SourceSeed(uint64_t base, SourceId source, uint64_t salt) {
  return storage::Mix64(base ^ (static_cast<uint64_t>(source) + 1) * salt);
}

/// Serializes everything GenerateRelation and ExecuteReference read: each
/// source's relation spec, data seed and rowid tag, and the compiled chain
/// structure (annotations excluded — the oracle never reads estimates).
/// The checksum folds rowids in, so a key missing any input would hand
/// back a wrong answer.
std::string ReferenceKey(const PreparedQuery& q, const SeedPolicy& seeds) {
  std::string key;
  key.reserve(512);
  auto raw = [&key](const void* p, size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  auto i64 = [&raw](int64_t v) { raw(&v, sizeof v); };
  auto f64 = [&raw](double v) { raw(&v, sizeof v); };
  i64(q.catalog.num_sources());
  for (SourceId s = 0; s < q.catalog.num_sources(); ++s) {
    const storage::RelationSpec& spec = q.catalog.source(s).relation;
    i64(static_cast<int64_t>(spec.name.size()));
    raw(spec.name.data(), spec.name.size());
    i64(spec.cardinality);
    for (int64_t d : spec.key_domain) i64(d);
    i64(static_cast<int64_t>(seeds.DataSeed(s)));
    i64(seeds.RowidTag(s));
  }
  const plan::CompiledPlan& compiled = q.compiled;
  i64(compiled.result_chain);
  i64(compiled.num_joins);
  for (ChainId c : compiled.operand_of_join) i64(c);
  for (int f : compiled.join_build_field) i64(f);
  for (const plan::ChainInfo& c : compiled.chains) {
    i64(c.source);
    i64(c.is_result ? 1 : 0);
    i64(c.sink_join);
    i64(c.build_key_field);
    i64(static_cast<int64_t>(c.ops.size()));
    for (const plan::ChainOp& op : c.ops) {
      i64(static_cast<int64_t>(op.kind));
      i64(op.node);
      f64(op.selectivity);
      i64(op.join);
      i64(op.probe_key_field);
    }
  }
  return key;
}

/// Bench grids and fleet streams prepare the same query many times, and
/// its oracle answer is identical across all of them. Memoized
/// process-wide: the reference executor is host-side verification with no
/// simulated cost, so this changes no metric. The miss path runs outside
/// the lock; a losing racer discards its duplicate. Entries are never
/// erased.
const plan::ReferenceResult& CachedReference(const PreparedQuery& q,
                                             const SeedPolicy& seeds) {
  static std::mutex mu;
  // Sorted keys (std::map): no unordered container sits near result state
  // (dqs-analyze rule unordered-iter).
  static std::map<std::string, std::unique_ptr<plan::ReferenceResult>> memo;
  std::string key = ReferenceKey(q, seeds);
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return *it->second;
  }
  auto computed = std::make_unique<plan::ReferenceResult>(
      plan::ExecuteReference(q.compiled, q.data));
  std::lock_guard<std::mutex> lock(mu);
  return *memo.emplace(std::move(key), std::move(computed)).first->second;
}

}  // namespace

Status EngineConfig::Validate() const {
  DQS_RETURN_IF_ERROR(cost.Validate());
  if (memory_budget_bytes <= 0) {
    return Status::InvalidArgument("memory budget must be > 0");
  }
  if (strategy.dqp.batch_size <= 0) {
    return Status::InvalidArgument("batch size must be > 0");
  }
  // Below 1 a fresh planning snapshot could already signal a change.
  if (!(comm.rate_change_ratio >= 1.0)) {
    return Status::InvalidArgument("rate change ratio must be >= 1");
  }
  return Status::Ok();
}

uint64_t MixSeed(uint64_t base, uint64_t a, uint64_t b) {
  return storage::Mix64(base ^ (a + 1) * kDataSalt ^ (b + 1) * kDelaySalt);
}

uint64_t SeedPolicy::DataSeed(SourceId s) const {
  return salted ? SourceSeed(seed, s, kDataSalt)
                : MixSeed(seed, data_key, static_cast<uint64_t>(s));
}

uint64_t SeedPolicy::DelaySeed(SourceId s) const {
  return salted ? SourceSeed(seed, s, kDelaySalt)
                : MixSeed(seed, delay_key,
                          static_cast<uint64_t>(s) + delay_bias);
}

uint64_t SeedPolicy::FaultSeed(SourceId s) const {
  DQS_CHECK_MSG(salted, "this seed policy has no catalog fault stream");
  return SourceSeed(seed, s, kFaultSalt);
}

Status PreparedQuery::CheckAnswer(int64_t count, uint64_t checksum,
                                  const std::string& what) const {
  if (count == reference.result_card &&
      checksum == reference.checksum.value()) {
    return Status::Ok();
  }
  return Status::Internal("result mismatch in " + what + ": got " +
                          std::to_string(count) + " tuples, expected " +
                          std::to_string(reference.result_card));
}

Result<PreparedQuery> PrepareQuery(wrapper::Catalog catalog,
                                   const plan::Plan& plan,
                                   const sim::CostModel& cost,
                                   const SeedPolicy& seeds) {
  DQS_RETURN_IF_ERROR(catalog.Validate());
  for (const wrapper::SourceSpec& s : catalog.sources) {
    // Refused rather than run fault-free: the fleet injects faults only
    // through FleetConfig::storm, the multi-query modes not at all.
    if (!seeds.salted && !s.faults.empty()) {
      return Status::InvalidArgument(
          "source " + s.relation.name +
          " has a fault schedule; only the single-query mediator installs "
          "catalog faults");
    }
  }
  Result<plan::CompiledPlan> compiled = plan::Compile(plan, catalog);
  if (!compiled.ok()) return compiled.status();
  PreparedQuery q;
  q.compiled = std::move(compiled.value());
  DQS_RETURN_IF_ERROR(plan::Annotate(&q.compiled, catalog, cost));
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    q.data.push_back(storage::GenerateRelation(catalog.source(s).relation,
                                               seeds.RowidTag(s),
                                               Rng(seeds.DataSeed(s))));
  }
  q.catalog = std::move(catalog);
  q.reference = CachedReference(q, seeds);
  return q;
}

SourceId AddWrappers(exec::ExecContext& ctx, const PreparedQuery& query,
                     const SeedPolicy& seeds, bool hold) {
  const SourceId lo = ctx.comm.num_sources();
  for (SourceId s = 0; s < query.catalog.num_sources(); ++s) {
    const wrapper::SourceSpec& spec = query.catalog.source(s);
    auto w = std::make_unique<wrapper::SimWrapper>(
        lo + s, &query.data[static_cast<size_t>(s)], spec.delay,
        seeds.DelaySeed(s));
    if (!spec.faults.empty()) {
      w->SetFaultSchedule(spec.faults, seeds.FaultSeed(s));
    }
    if (hold) w->Hold();
    ctx.comm.AddSource(std::move(w),
                       static_cast<double>(ctx.cost->MinWaitingTime()));
  }
  return lo;
}

void FoldSourceFaults(const comm::CommManager& comm, SourceId lo, SourceId hi,
                      FaultStats* f) {
  for (SourceId s = lo; s < hi; ++s) {
    const wrapper::FaultInjectionStats* fs = comm.wrapper(s).fault_stats();
    if (fs != nullptr) {
      f->stalls_injected += fs->stalls;
      f->disconnects_injected += fs->disconnects;
      f->reconnects += fs->reconnects;
      if (fs->died) ++f->sources_killed;
    }
    f->replays_discarded += comm.ReplayDiscarded(s);
  }
}

FaultStats ContextFaults(const comm::CommManager& comm) {
  FaultStats f;
  f.sources_suspected = comm.fault_suspicions();
  f.sources_dead = comm.fault_declared_dead();
  f.recoveries = comm.fault_recoveries();
  FoldSourceFaults(comm, 0, comm.num_sources(), &f);
  return f;
}

}  // namespace dqsched::core

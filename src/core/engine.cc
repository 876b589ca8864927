#include "core/engine.h"

#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "wrapper/delay_model.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {

namespace {

constexpr uint64_t kDataSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kDelaySalt = 0xc2b2ae3d27d4eb4fULL;

uint64_t SourceSeed(uint64_t base, SourceId source, uint64_t salt) {
  return storage::Mix64(base ^ (static_cast<uint64_t>(source) + 1) * salt);
}

// Memo keys are the raw bytes of every input, appended in a fixed order.
void AppendBytes(std::string* key, const void* p, size_t n) {
  key->append(static_cast<const char*>(p), n);
}
template <typename T>
void Append(std::string* key, T v) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
  AppendBytes(key, &v, sizeof v);
}

// The fields DataKey serializes. A field added to RelationSpec changes its
// size and fails the build here until the key covers it.
struct RelationSpecFields {
  std::string name;
  int64_t cardinality;
  std::array<int64_t, storage::kTupleKeyFields> key_domain;
};
static_assert(sizeof(storage::RelationSpec) == sizeof(RelationSpecFields),
              "DataKey must serialize every RelationSpec field");

/// Everything GenerateRelation reads: each source's relation spec, data
/// seed and rowid tag. Delays are not part of it, so a grid that varies
/// only delays shares one data set.
std::string DataKey(const wrapper::Catalog& catalog,
                    const SeedPolicy& seeds) {
  std::string key;
  key.reserve(96 * static_cast<size_t>(catalog.num_sources()));
  Append(&key, catalog.num_sources());
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    const storage::RelationSpec& spec = catalog.source(s).relation;
    Append(&key, spec.name.size());
    AppendBytes(&key, spec.name.data(), spec.name.size());
    Append(&key, spec.cardinality);
    for (int64_t d : spec.key_domain) Append(&key, d);
    Append(&key, seeds.DataSeed(s));
    Append(&key, seeds.RowidTag(s));
  }
  return key;
}

/// Everything ExecuteReference reads: the data (by its key) and the
/// compiled chain structure (annotations excluded — the oracle never reads
/// estimates). The checksum folds rowids in, so a key missing any input
/// would hand back a wrong answer.
std::string ReferenceKey(std::string data_key,
                         const plan::CompiledPlan& compiled) {
  std::string key = std::move(data_key);
  Append(&key, compiled.result_chain);
  Append(&key, compiled.num_joins);
  for (ChainId c : compiled.operand_of_join) Append(&key, c);
  for (int f : compiled.join_build_field) Append(&key, f);
  for (const plan::ChainInfo& c : compiled.chains) {
    Append(&key, c.source);
    Append(&key, c.is_result);
    Append(&key, c.sink_join);
    Append(&key, c.build_key_field);
    Append(&key, c.ops.size());
    for (const plan::ChainOp& op : c.ops) {
      Append(&key, op.kind);
      Append(&key, op.node);
      Append(&key, op.selectivity);
      Append(&key, op.join);
      Append(&key, op.probe_key_field);
    }
  }
  return key;
}

// The fields DelayTotalKey serializes; see RelationSpecFields.
struct DelayConfigFields {
  wrapper::DelayKind kind;
  double mean_us;
  double initial_delay_ms;
  int64_t burst_length;
  double burst_gap_ms;
  double slow_factor;
};
static_assert(sizeof(wrapper::DelayConfig) == sizeof(DelayConfigFields),
              "DelayTotalKey must serialize every DelayConfig field");

/// Everything a delay replay reads: the delay config, seed and draw count.
std::string DelayTotalKey(const wrapper::DelayConfig& delay, uint64_t seed,
                          int64_t cardinality) {
  std::string key;
  Append(&key, delay.kind);
  Append(&key, delay.mean_us);
  Append(&key, delay.initial_delay_ms);
  Append(&key, delay.burst_length);
  Append(&key, delay.burst_gap_ms);
  Append(&key, delay.slow_factor);
  Append(&key, seed);
  Append(&key, cardinality);
  return key;
}

using SharedData = std::shared_ptr<const std::vector<storage::Relation>>;

/// Bench grids and fleet streams prepare the same workload instance many
/// times; its data is identical across all of them and nobody writes it.
/// Memoized process-wide with weak entries, so a set lives while some
/// PreparedQuery holds it, plus one strong slot for the most recently
/// prepared set: a Create that follows a Create of the same instance (the
/// next grid query, the next suite cell) reuses it, and the memo pins at
/// most one set beyond what live drivers hold. The miss path generates
/// outside the lock; a losing racer discards its duplicate.
SharedData CachedData(const wrapper::Catalog& catalog,
                      const SeedPolicy& seeds, const std::string& key) {
  static std::mutex mu;
  // Sorted keys (std::map): no unordered container sits near result state
  // (dqs-analyze rule unordered-iter).
  static std::map<std::string, std::weak_ptr<SharedData::element_type>> memo;
  static SharedData recent;
  // Declared before the locks, so the sets they release are freed unlocked.
  SharedData released;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    SharedData hit = it == memo.end() ? nullptr : it->second.lock();
    if (hit != nullptr) {
      released = std::exchange(recent, hit);
      return hit;
    }
    // A miss empties the slot first, so a set only the slot held is freed
    // before the new one is generated.
    released = std::move(recent);
  }
  released.reset();
  auto generated = std::make_shared<std::vector<storage::Relation>>();
  generated->reserve(static_cast<size_t>(catalog.num_sources()));
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    generated->push_back(storage::GenerateRelation(
        catalog.source(s).relation, seeds.RowidTag(s),
        Rng(seeds.DataSeed(s))));
  }
  SharedData data = std::move(generated);
  SharedData duplicate;
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<SharedData::element_type>& entry = memo[key];
  if (SharedData winner = entry.lock()) {
    duplicate = std::exchange(data, std::move(winner));
  } else {
    entry = data;
  }
  released = std::exchange(recent, data);
  for (auto e = memo.begin(); e != memo.end();) {
    e = e->second.expired() ? memo.erase(e) : std::next(e);
  }
  return data;
}

/// The oracle answer is identical across every preparation of one
/// instance. Memoized process-wide: the reference executor is host-side
/// verification with no simulated cost, so this changes no metric. The
/// miss path runs outside the lock; a losing racer discards its
/// duplicate. Entries are never erased.
const plan::ReferenceResult& CachedReference(const PreparedQuery& q,
                                             std::string key) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<plan::ReferenceResult>> memo;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return *it->second;
  }
  auto computed = std::make_unique<plan::ReferenceResult>(
      plan::ExecuteReference(q.compiled, *q.data));
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
  if (comm.queue_capacity <= 0) {
    return Status::InvalidArgument("queue capacity must be > 0");
  }
  // Below 1 a fresh planning snapshot could already signal a change.
  if (!(comm.rate_change_ratio >= 1.0)) {
    return Status::InvalidArgument("rate change ratio must be >= 1");
  }
  // A NaN threshold would silently disable degradation (bmi > NaN never
  // holds).
  if (std::isnan(strategy.dqs.bmt)) {
    return Status::InvalidArgument("bmt must be a number");
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
  std::string data_key = DataKey(catalog, seeds);
  q.data = CachedData(catalog, seeds, data_key);
  q.catalog = std::move(catalog);
  q.reference = CachedReference(q, ReferenceKey(std::move(data_key),
                                                q.compiled));
  return q;
}

double RealizedDelayTotalNs(const wrapper::DelayConfig& delay,
                            uint64_t delay_seed, int64_t cardinality) {
  static std::mutex mu;
  static std::map<std::string, double> memo;
  std::string key = DelayTotalKey(delay, delay_seed, cardinality);
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }
  Rng rng(delay_seed);
  auto model = wrapper::MakeDelayModel(delay);
  double total = 0.0;
  for (int64_t i = 0; i < cardinality; ++i) {
    total += static_cast<double>(model->NextDelay(i, rng));
  }
  std::lock_guard<std::mutex> lock(mu);
  return memo.emplace(std::move(key), total).first->second;
}

SourceId AddWrappers(exec::ExecContext& ctx, const PreparedQuery& query,
                     const SeedPolicy& seeds, bool hold) {
  const SourceId lo = ctx.comm.num_sources();
  for (SourceId s = 0; s < query.catalog.num_sources(); ++s) {
    const wrapper::SourceSpec& spec = query.catalog.source(s);
    auto w = std::make_unique<wrapper::SimWrapper>(
        lo + s, &(*query.data)[static_cast<size_t>(s)], spec.delay,
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

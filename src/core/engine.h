// The engine core the three drivers (Mediator, MultiQueryMediator,
// FleetExecutor) share: config, seed policies, workload preparation,
// wrapper registration, the answer check and the fault-counter fold
// (DESIGN.md §15), so a run differs between drivers only where they do.

#ifndef DQSCHED_CORE_ENGINE_H_
#define DQSCHED_CORE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm_manager.h"
#include "common/status.h"
#include "core/cache_manager.h"
#include "core/strategy.h"
#include "plan/plan_node.h"
#include "plan/reference_executor.h"
#include "sim/cost_model.h"
#include "wrapper/catalog.h"

namespace dqsched::core {

/// The configuration every driver shares; MediatorConfig, MultiQueryConfig
/// and FleetConfig derive from it and add only their own fields.
struct EngineConfig {
  /// Simulation cost parameters (paper Table 1 defaults).
  sim::CostModel cost;
  /// Memory of one execution context, bytes (the fleet's broker also
  /// admits against it globally).
  int64_t memory_budget_bytes = 256LL * 1024 * 1024;
  /// Communication layer (queue capacity, rate-change detection).
  comm::CommConfig comm;
  /// Scheduler (bmt) and processor (batch size, stall timeout) tunables.
  StrategyConfig strategy;
  /// Root of every random stream; one seed = one workload.
  uint64_t seed = 42;
  /// Check every complete answer against the reference executor.
  bool verify_results = true;
  /// Operator kernels (vectorized by default; scalar for A/B runs).
  exec::KernelConfig kernels;
  /// Result cache (DESIGN.md §14). The mediator wires a fresh cache per
  /// run; the multi-query and fleet drivers (one per shard) keep theirs
  /// across Execute calls, and epoch gating keeps every single run
  /// byte-identical to cache=off on all non-wall metrics but CacheStats.
  CacheConfig cache;

  /// The checks every driver's Create runs first.
  Status Validate() const;
};

/// Mix64(base ^ (a+1)·kDataSalt ^ (b+1)·kDelaySalt): the multi-query and
/// fleet seed mixer.
uint64_t MixSeed(uint64_t base, uint64_t a, uint64_t b);
/// Salt of every fault stream (catalog fault models, fleet storms), so
/// arming faults shifts no data or delay draw.
inline constexpr uint64_t kFaultSalt = 0xa0761d6478bd642fULL;

/// How one driver derives a query's per-source seeds from
/// EngineConfig::seed (DESIGN.md §15.1). Each driver keeps the scheme it
/// was built with: changing one changes the generated workload, every
/// baseline, and perfbench's copies of the mediator and fleet rows.
struct SeedPolicy {
  /// Single-query mediator: one salted stream per source and purpose.
  static SeedPolicy Mediator(uint64_t seed) { return {seed, true}; }
  /// Multi-query mix: query `q`, its sources at global ids from `offset`.
  static SeedPolicy MixQuery(uint64_t seed, int q, SourceId offset) {
    const auto key = static_cast<uint64_t>(q);
    return {seed, false, key, key, 977, offset};
  }
  /// Fleet: template `t`'s data, read by attempt `attempt` (1-based) of
  /// stream query `uid`; a retry replays the data through fresh delays.
  static SeedPolicy Fleet(uint64_t seed, int t, int64_t uid = 0,
                          int attempt = 1) {
    const auto k = static_cast<uint64_t>(attempt);
    return {seed, false, 0x7E3D + static_cast<uint64_t>(t),
            static_cast<uint64_t>(uid), 977 + (k > 1 ? k * 7919 : 0)};
  }

  uint64_t DataSeed(SourceId s) const;
  uint64_t DelaySeed(SourceId s) const;
  /// Catalog fault models; only the mediator (`salted`) has this stream.
  uint64_t FaultSeed(SourceId s) const;
  SourceId RowidTag(SourceId s) const { return rowid_offset + s; }

  uint64_t seed = 0;
  bool salted = false;  // Mediator; the others mix through MixSeed
  uint64_t data_key = 0;
  uint64_t delay_key = 0;
  uint64_t delay_bias = 0;
  SourceId rowid_offset = 0;
};

/// One query ready to run on any driver. `compiled` reads catalog-local
/// source ids (the multi-query driver remaps its copy); `data` is indexed
/// by them.
struct PreparedQuery {
  wrapper::Catalog catalog;
  plan::CompiledPlan compiled;
  std::vector<storage::Relation> data;
  plan::ReferenceResult reference;

  /// The one answer check: `count` and `checksum` must equal the
  /// reference's. `what` names the run in the error.
  Status CheckAnswer(int64_t count, uint64_t checksum,
                     const std::string& what) const;
};

/// Validates the catalog, compiles and annotates `plan`, generates the
/// data under `seeds`, and takes the reference answer from the
/// process-wide memo. A catalog fault schedule needs the mediator's fault
/// stream; under any other policy it is rejected.
Result<PreparedQuery> PrepareQuery(wrapper::Catalog catalog,
                                   const plan::Plan& plan,
                                   const sim::CostModel& cost,
                                   const SeedPolicy& seeds);

/// Registers one SimWrapper per source of `query` at the end of `ctx`'s
/// source space, seeded by `seeds`, with the static optimizer's w_min
/// prior; `hold` keeps them silent until StartSource. Returns the first
/// source id.
SourceId AddWrappers(exec::ExecContext& ctx, const PreparedQuery& query,
                     const SeedPolicy& seeds, bool hold);

/// Adds the per-source fault counters of sources [lo, hi) to `f`, in
/// ascending id: injected stalls, disconnects, reconnects and deaths, and
/// discarded replays.
void FoldSourceFaults(const comm::CommManager& comm, SourceId lo, SourceId hi,
                      FaultStats* f);
/// A whole context's fault counters: the failure detector's totals plus
/// FoldSourceFaults over every source.
FaultStats ContextFaults(const comm::CommManager& comm);

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_ENGINE_H_

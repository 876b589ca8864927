// Micro-benchmarks (google-benchmark) of the dynamic machinery's host-side
// cost. Paper Section 3.3: "the challenge is to produce a reasonable
// schedule in a short time interval compared to the average processing
// time of one execution phase" — BM_ComputePlan quantifies that interval
// for growing plan sizes; the hash-index benchmarks cover the hot probe
// path every tuple takes, BM_OperandLoad an operand's load that builds
// its index against one that adopts a shared one, and BM_TuplePagesAppend
// the operand and temp appends every batch's output takes.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/dqo.h"
#include "core/dqs.h"
#include "core/mediator.h"
#include "exec/hash_index.h"
#include "exec/operand.h"
#include "common/parallel_runner.h"
#include "plan/canonical_plans.h"
#include "plan/query_generator.h"
#include "storage/tuple_pages.h"
#include "wrapper/wrapper.h"

namespace dqsched {
namespace {

/// --jobs=N (parsed before google-benchmark sees argv): thread count for
/// BM_ParallelMediators, the scaling check of the bench-suite runner.
int g_jobs = 0;  // 0 = hardware concurrency

/// Fixture state for a random query of `num_sources` relations.
struct PlanningFixture {
  explicit PlanningFixture(int num_sources) {
    plan::GeneratorConfig gen;
    gen.num_sources = num_sources;
    gen.min_cardinality = 1000;
    gen.max_cardinality = 2000;
    gen.seed = static_cast<uint64_t>(num_sources);
    auto generated = plan::GenerateBushyQuery(gen, /*use_optimizer=*/false);
    DQS_CHECK(generated.ok());
    setup = std::move(generated.value());
    auto c = plan::Compile(setup.plan, setup.catalog);
    DQS_CHECK(c.ok());
    compiled = std::move(c.value());
    DQS_CHECK(plan::Annotate(&compiled, setup.catalog, cost).ok());
    ctx = std::make_unique<exec::ExecContext>(&cost, comm::CommConfig{},
                                              int64_t{1} << 30);
    data.reserve(static_cast<size_t>(setup.catalog.num_sources()));
    for (SourceId s = 0; s < setup.catalog.num_sources(); ++s) {
      data.push_back(storage::GenerateRelation(
          setup.catalog.source(s).relation, s, Rng(s + 1)));
      ctx->comm.AddSource(std::make_unique<wrapper::SimWrapper>(
                              s, &data.back(),
                              setup.catalog.source(s).delay, s + 3),
                          static_cast<double>(cost.MinWaitingTime()));
    }
  }

  sim::CostModel cost;
  plan::QuerySetup setup;
  plan::CompiledPlan compiled;
  std::vector<storage::Relation> data;
  std::unique_ptr<exec::ExecContext> ctx;
};

void BM_ComputePlan(benchmark::State& state) {
  PlanningFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // A fresh ExecutionState per iteration: the first (most expensive)
    // planning phase, including degradation decisions over every chain.
    state.PauseTiming();
    core::ExecutionState exec_state(&fixture.compiled, fixture.ctx.get(),
                                    core::ExecutionOptions{});
    core::Dqs dqs(core::DqsConfig{});
    core::Dqo dqo;
    core::SchedulingPlan sp;
    state.ResumeTiming();
    const Status planned = dqs.ComputePlan(exec_state, *fixture.ctx, dqo, &sp);
    benchmark::DoNotOptimize(planned);
    benchmark::DoNotOptimize(sp);
  }
  state.SetLabel(std::to_string(fixture.compiled.num_chains()) + " chains");
}
BENCHMARK(BM_ComputePlan)
    ->Arg(3)
    ->Arg(6)
    ->Arg(12)
    ->Arg(24)
    ->Arg(48)
    ->Arg(96)
    ->Arg(192);

/// `n` tuples with keys[0] drawn uniformly from [0, keys), by default
/// [0, n).
std::vector<storage::Tuple> RandomKeyTuples(int64_t n, int64_t keys = 0) {
  std::vector<storage::Tuple> tuples(static_cast<size_t>(n));
  Rng rng(7);
  const uint64_t domain = static_cast<uint64_t>(keys > 0 ? keys : n);
  for (auto& t : tuples) {
    t.keys[0] = static_cast<int64_t>(rng.Uniform(domain));
  }
  return tuples;
}

/// Build sizes: uniform keys at 1000 and 100 000 rows, and 50 000 rows over
/// 1000 keys (50 duplicates a key), where a build that walks a key's
/// earlier duplicates per insert turns quadratic.
void HashIndexBuildArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "keys"})
      ->Args({1000, 1000})
      ->Args({100000, 100000})
      ->Args({50000, 1000});
}

void BM_HashIndexBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<storage::Tuple> tuples =
      RandomKeyTuples(n, state.range(1));
  for (auto _ : state) {
    exec::HashIndex index;
    index.Build(tuples, 0);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashIndexBuild)->Apply(HashIndexBuildArgs);

/// The same build over a paged operand; it should stay within a few
/// percent of BM_HashIndexBuild.
void BM_HashIndexBuildPaged(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<storage::Tuple> tuples =
      RandomKeyTuples(n, state.range(1));
  storage::TuplePages pages;
  pages.Append(tuples.data(), n);
  for (auto _ : state) {
    exec::HashIndex index;
    index.Build(pages, 0);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashIndexBuildPaged)->Apply(HashIndexBuildArgs);

/// One Operand::Load over `rows` borrowed tuples, then an Unload: with
/// adopt=0 it builds a private index, as an operand that is not exact
/// does; with adopt=1 it adopts the index its set published before the
/// loop, as every exact operand after the first does. Both take the same
/// grants and charge the same build. 6 000, 30 000 and 45 000 rows are
/// paper_grid's operand sizes.
void BM_OperandLoad(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool adopt = state.range(1) != 0;
  const std::vector<storage::Tuple> tuples = RandomKeyTuples(n);
  const sim::CostModel cost;
  exec::ExecContext ctx(&cost, comm::CommConfig{}, int64_t{1} << 30);
  exec::IndexSet set({n});
  exec::Operand operand(0, "bench", 0);
  if (adopt) {
    operand.ShareIndexes(&set, {});
    exec::Operand publisher(0, "publisher", 0);
    publisher.ShareIndexes(&set, {});
    publisher.Append(ctx, tuples.data(), n, true, /*in_relation=*/true);
    publisher.Seal(ctx);
    DQS_CHECK(publisher.Load(ctx, true).ok());
    publisher.ReleaseAll(ctx);
  }
  operand.Append(ctx, tuples.data(), n, true, /*in_relation=*/true);
  operand.Seal(ctx);
  for (auto _ : state) {
    DQS_CHECK(operand.Load(ctx, true).ok());
    benchmark::DoNotOptimize(&operand.index());
    operand.Unload(ctx);
  }
  DQS_CHECK(set.adoptions() == (adopt ? state.iterations() : 0));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OperandLoad)
    ->ArgNames({"rows", "adopt"})
    ->ArgsProduct({{6000, 30000, 45000}, {0, 1}});

/// Appends of `range(0)` tuples per call (1 is the median batch of the
/// batch log); the store is cleared every 64 pages, so page turnover
/// through the pool is part of the cost.
void BM_TuplePagesAppend(benchmark::State& state) {
  const int64_t per_call = state.range(0);
  const std::vector<storage::Tuple> batch = RandomKeyTuples(per_call);
  storage::TuplePages pages;
  for (auto _ : state) {
    pages.Append(batch.data(), per_call);
    benchmark::DoNotOptimize(&pages[static_cast<size_t>(pages.size() - 1)]);
    benchmark::ClobberMemory();
    if (pages.size() >= 64 * storage::TuplePages::kPageTuples) pages.Clear();
  }
  state.SetItemsProcessed(state.iterations() * per_call);
}
BENCHMARK(BM_TuplePagesAppend)->Arg(1)->Arg(16)->Arg(128);

void BM_HashIndexProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<storage::Tuple> tuples = RandomKeyTuples(n);
  exec::HashIndex index;
  index.Build(tuples, 0);
  int64_t probe_key = 0;
  size_t sink = 0;
  for (auto _ : state) {
    index.ForEachMatch(probe_key, [&](size_t i) { sink += i; });
    probe_key = (probe_key + 1) % n;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexProbe)->Arg(1000)->Arg(100000);

/// End-to-end execution of the paper's Figure 5 query at toy scale: the
/// simulator's data plane (ProcessBatch's batch pipeline) dominates, so
/// this tracks the per-simulated-second host cost across PRs.
void BM_ExecuteStrategy(benchmark::State& state,
                        core::StrategyKind kind) {
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  core::MediatorConfig config;
  Result<core::Mediator> mediator =
      core::Mediator::Create(setup.catalog, setup.plan, config);
  DQS_CHECK(mediator.ok());
  for (auto _ : state) {
    auto metrics = mediator->Execute(kind);
    DQS_CHECK(metrics.ok());
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK_CAPTURE(BM_ExecuteStrategy, SEQ, core::StrategyKind::kSeq);
BENCHMARK_CAPTURE(BM_ExecuteStrategy, DSE, core::StrategyKind::kDse);

/// One iteration = `--jobs` independent mediator executions spread over
/// the work-stealing runner; items/sec should scale with cores under the
/// one-Mediator-per-thread contract.
void BM_ParallelMediators(benchmark::State& state) {
  const ParallelRunner runner(g_jobs);
  const int n = runner.jobs();
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  core::MediatorConfig config;
  std::vector<core::Mediator> mediators;
  for (int i = 0; i < n; ++i) {
    config.seed = 42 + static_cast<uint64_t>(i);
    auto m = core::Mediator::Create(setup.catalog, setup.plan, config);
    DQS_CHECK(m.ok());
    mediators.push_back(std::move(m.value()));
  }
  for (auto _ : state) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(mediators.size());
    for (core::Mediator& m : mediators) {
      tasks.push_back([&m] {
        auto metrics = m.Execute(core::StrategyKind::kDse);
        DQS_CHECK(metrics.ok());
        benchmark::DoNotOptimize(metrics);
      });
    }
    runner.Run(tasks);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(std::to_string(n) + " jobs");
}
BENCHMARK(BM_ParallelMediators)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dqsched

int main(int argc, char** argv) {
  // Strip --jobs=N (bench-suite-wide flag) before google-benchmark's own
  // argv parsing, which rejects flags it does not know.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      dqsched::g_jobs = std::atoi(argv[i] + 7);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

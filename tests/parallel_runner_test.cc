// Determinism-under-parallelism and stress coverage for the bench-suite's
// work-stealing runner (src/common/parallel_runner.h). Enforces the
// one-Mediator-per-thread threading contract: the same cells run serially
// and on many threads must produce identical checksums and identical
// simulated seconds. Built under -fsanitize=thread by the `tsan` CMake
// preset, this is also the data-race gate for the runner itself.

#include "common/parallel_runner.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "core/mediator.h"
#include "plan/canonical_plans.h"

namespace dqsched::bench {
namespace {

TEST(ParallelRunnerTest, RunsEveryTaskExactlyOnce) {
  const ParallelRunner runner(4);
  constexpr size_t kTasks = 257;  // not a multiple of the worker count
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  runner.Run(tasks);
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelRunnerTest, RunIndexedPreservesOrder) {
  const ParallelRunner runner(8);
  const std::vector<int> results = RunIndexed<int>(
      runner, 100, [](size_t i) { return static_cast<int>(i) * 3; });
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelRunnerTest, StealsFromLoadedWorker) {
  // All heavy tasks land on worker 0's queue (round-robin with 2 workers
  // and even indices heavy); the run finishing at all on 8 workers with a
  // skewed load exercises the stealing path. Verified by the sum.
  const ParallelRunner runner(8);
  std::atomic<int64_t> sum(0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&sum, i] {
      int64_t local = 0;
      const int spin = (i % 8 == 0) ? 200000 : 10;
      for (int k = 0; k < spin; ++k) local += k % 7;
      sum.fetch_add(local >= 0 ? i : 0);
    });
  }
  runner.Run(tasks);
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ParallelRunnerTest, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).jobs(), 1);
  EXPECT_EQ(ParallelRunner(3).jobs(), 3);
  EXPECT_GE(ParallelRunner::DefaultJobs(), 1);
}

/// The determinism contract behind --jobs: per-cell results of a strategy
/// grid are identical whether the cells run serially or on 4 threads.
TEST(ParallelRunnerTest, ParallelExecutionMatchesSerialExactly) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  struct CellSpec {
    core::StrategyKind kind;
    uint64_t seed;
  };
  std::vector<CellSpec> grid;
  for (uint64_t seed : {42ULL, 1234ULL}) {
    for (core::StrategyKind kind :
         {core::StrategyKind::kSeq, core::StrategyKind::kDse,
          core::StrategyKind::kMa}) {
      grid.push_back({kind, seed});
    }
  }
  auto run_all = [&](int jobs) {
    const ParallelRunner runner(jobs);
    return RunIndexed<core::ExecutionMetrics>(
        runner, grid.size(), [&](size_t i) {
          core::MediatorConfig config;
          config.seed = grid[i].seed;
          auto mediator =
              core::Mediator::Create(setup.catalog, setup.plan, config);
          EXPECT_TRUE(mediator.ok());
          auto metrics = mediator->Execute(grid[i].kind);
          EXPECT_TRUE(metrics.ok());
          return *metrics;
        });
  };
  const auto serial = run_all(1);
  const auto parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result_checksum, parallel[i].result_checksum) << i;
    EXPECT_EQ(serial[i].result_count, parallel[i].result_count) << i;
    EXPECT_EQ(serial[i].response_time, parallel[i].response_time) << i;
    EXPECT_EQ(serial[i].busy_time, parallel[i].busy_time) << i;
  }
}

/// TSan stress: many mediators executing concurrently. RNG streams,
/// clocks, metrics and trace sinks are per-Mediator; the one mutable state
/// they share is each workload's index set, whose first exact operand per
/// join publishes under the set's mutex while the others adopt, so this
/// drives the publish path from up to eight threads at once.
TEST(ParallelRunnerTest, ConcurrentMediatorsStress) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(0.03);
  const ParallelRunner runner(8);
  const auto checksums = RunIndexed<uint64_t>(runner, 24, [&](size_t i) {
    core::MediatorConfig config;
    config.seed = 42 + (i % 3);  // several threads share each workload
    auto mediator =
        core::Mediator::Create(setup.catalog, setup.plan, config);
    EXPECT_TRUE(mediator.ok());
    auto metrics = mediator->Execute(
        i % 2 == 0 ? core::StrategyKind::kDse : core::StrategyKind::kSeq);
    EXPECT_TRUE(metrics.ok());
    return metrics->result_checksum;
  });
  // Same seed -> same workload -> same checksum, regardless of thread.
  for (size_t i = 0; i < checksums.size(); ++i) {
    EXPECT_EQ(checksums[i], checksums[i % 3]) << i;
  }
}

}  // namespace
}  // namespace dqsched::bench

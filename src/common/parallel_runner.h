// Work-stealing thread pool shared by the bench suite and the fleet
// executor.
//
// Callers hand over a grid of independent tasks — bench cells are one
// (QuerySetup, MediatorConfig, StrategyKind, seed) point each; fleet
// rounds are one shard advance each. The runner executes them across
// threads while the caller keeps deterministic output order by writing
// each task's result into a caller-owned slot indexed by task position.
//
// Threading contract (see DESIGN.md "Threading"): a Mediator / shard and
// its ExecContext are confined to the task that created them — one
// simulation per thread at a time, nothing shared between tasks. RNG,
// clocks, metrics and trace sinks all live inside the Mediator /
// ExecContext; the only process-wide state (the preparation memos, which
// hand out immutable values, and the page pool) guards itself (DESIGN.md
// §7), so tasks need no synchronization beyond the runner's own queues.
// tests/parallel_runner_test.cc enforces this with a TSan-clean stress
// test.

#ifndef DQSCHED_COMMON_PARALLEL_RUNNER_H_
#define DQSCHED_COMMON_PARALLEL_RUNNER_H_

#include <functional>
#include <vector>

namespace dqsched {

class ParallelRunner {
 public:
  /// `jobs` <= 0 selects DefaultJobs().
  explicit ParallelRunner(int jobs);

  /// Executes every task and returns once all have finished. Tasks are
  /// dealt round-robin to per-worker deques; idle workers steal from the
  /// busiest victim, so one long cell cannot serialize the grid. With one
  /// job the tasks run inline on the calling thread, in order.
  void Run(const std::vector<std::function<void()>>& tasks) const;

  int jobs() const { return jobs_; }

  /// Hardware concurrency (at least 1).
  static int DefaultJobs();

 private:
  int jobs_;
};

/// Runs fn(0..n-1) and returns the results indexed by call position —
/// parallel execution, deterministic order.
template <typename R>
std::vector<R> RunIndexed(const ParallelRunner& runner, size_t n,
                          const std::function<R(size_t)>& fn) {
  std::vector<R> results(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tasks.push_back([&results, &fn, i] { results[i] = fn(i); });
  }
  runner.Run(tasks);
  return results;
}

}  // namespace dqsched

#endif  // DQSCHED_COMMON_PARALLEL_RUNNER_H_

// Shared harness for the table/figure reproduction benchmarks. Each bench
// binary builds query setups, runs the strategies through this helper, and
// prints one table matching a paper artifact (see DESIGN.md's experiment
// index and EXPERIMENTS.md for paper-vs-measured notes).

#ifndef DQSCHED_BENCH_BENCH_COMMON_H_
#define DQSCHED_BENCH_BENCH_COMMON_H_

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel_runner.h"
#include "core/mediator.h"
#include "plan/canonical_plans.h"

namespace dqsched::bench {

/// Command-line options shared by every bench binary.
///   --scale=<f>    cardinality multiplier (default per bench)
///   --repeats=<n>  measurements averaged per point, distinct seeds
///                  (the paper averaged 3; the simulator is deterministic
///                  per seed, so 1 is representative)
///   --seed=<n>     base seed
///   --jobs=<n>     worker threads for the cell grid (0 = hardware
///                  concurrency); results are identical for every value
///   --csv          machine-readable output
///   --walls        append per-cell host wall-time columns where the bench
///                  supports them; off by default because wall time is the
///                  one column that is NOT byte-identical across runs or
///                  --jobs values
struct BenchOptions {
  double scale = 1.0;
  int repeats = 1;
  uint64_t seed = 42;
  int jobs = 0;  // 0 = hardware concurrency
  bool csv = false;
  bool walls = false;
};

/// Parses argv strictly (malformed numbers are rejected, not coerced to
/// zero). On failure returns the offending diagnostic in `error`.
std::optional<BenchOptions> TryParseOptions(int argc, char** argv,
                                            double default_scale,
                                            std::string* error);

/// Parses argv; unknown flags abort with usage.
BenchOptions ParseOptions(int argc, char** argv, double default_scale = 1.0);

/// For benches that run each cell once: a usage error (exit 2) unless
/// `options.repeats` is 1, so a repeat count is never silently ignored.
void RequireOneRepeat(const BenchOptions& options, const char* argv0);

/// Average response time of one strategy over `repeats` seeds, seconds.
/// Creation or execution failures surface as an error string.
struct StrategyOutcome {
  bool ok = false;
  double seconds = 0.0;
  std::string error;
  /// Metrics of the last repeat (diagnostics).
  core::ExecutionMetrics metrics;
};

StrategyOutcome MeasureStrategy(const plan::QuerySetup& setup,
                                const core::MediatorConfig& config,
                                core::StrategyKind kind, int repeats);

/// Like MeasureStrategy, for query scrambling with the given timeout.
StrategyOutcome MeasureScrambling(const plan::QuerySetup& setup,
                                  const core::MediatorConfig& config,
                                  SimDuration timeout, int repeats);

/// Like MeasureStrategy, for double-pipelined hash joins.
StrategyOutcome MeasureDphj(const plan::QuerySetup& setup,
                            const core::MediatorConfig& config, int repeats);

/// One deferred measurement of a bench grid.
using MeasureCell = std::function<StrategyOutcome()>;

/// Executes the cells on options.jobs workers (work stealing, see
/// common/parallel_runner.h) and returns the outcomes in input order — the
/// printed tables are byte-identical for every --jobs value.
std::vector<StrategyOutcome> RunCells(const BenchOptions& options,
                                      const std::vector<MeasureCell>& cells);

/// The analytic lower bound for the setup, seconds (first seed's data).
double LwbSeconds(const plan::QuerySetup& setup,
                  const core::MediatorConfig& config);

/// "1.234" or "FAIL(<reason>)".
std::string Cell(const StrategyOutcome& outcome);

/// Percentage gain of dse over seq, as "37.5" (empty on failure).
std::string GainCell(const StrategyOutcome& seq, const StrategyOutcome& dse);

/// Percentile summary of per-query completion latencies (nearest-rank on
/// a sorted copy, so the summary is deterministic and allocation-cheap).
/// Used by bench_multi_query and bench_fleet.
struct LatencySummary {
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

LatencySummary SummarizeLatencies(const std::vector<SimDuration>& latencies);

/// "ok=7 partial=1" — the non-zero per-status counts in enum order, or
/// "ok=0" when every count is zero. Used by the bench_fleet and
/// bench_multi_query status columns (§13 lifecycle taxonomy).
std::string FormatStatusCounts(
    const std::array<int64_t, core::kNumQueryStatuses>& counts);

/// Prints the standard bench preamble.
void PrintPreamble(const char* title, const char* paper_artifact,
                   const BenchOptions& options);

/// A MediatorConfig with the paper's defaults and the options' seed.
core::MediatorConfig DefaultConfig(const BenchOptions& options);

/// The full Figure 6/7 experiment: slow down `relation` of the paper's
/// query so that its total retrieval time sweeps from the w_min baseline
/// up to ~10 s (scaled), and compare SEQ / DSE / MA / LWB at every point.
void RunSlowOneRelationBench(const char* relation,
                             const char* paper_artifact,
                             const BenchOptions& options);

}  // namespace dqsched::bench

#endif  // DQSCHED_BENCH_BENCH_COMMON_H_

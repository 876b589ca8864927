// Shared harness for the table/figure reproduction benchmarks: the one
// command-line parser, the one single-query measure loop, and the table
// helpers. The experiments themselves are declared once, in
// experiments.cc, and read both by their own binaries and by bench_suite
// (see DESIGN.md's experiment index and EXPERIMENTS.md for
// paper-vs-measured notes).

#ifndef DQSCHED_BENCH_BENCH_COMMON_H_
#define DQSCHED_BENCH_BENCH_COMMON_H_

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel_runner.h"
#include "common/table_printer.h"
#include "core/fleet_executor.h"
#include "core/mediator.h"
#include "core/multi_query.h"
#include "plan/canonical_plans.h"
#include "wrapper/fault_model.h"

namespace dqsched::bench {

/// The result cache of the multi-query and fleet cells: off; cold
/// (enabled on a fresh cache, byte-identical to off on every non-wall
/// column); or warm (one unmeasured run, then the measured repeat).
enum class CacheMode { kOff, kCold, kWarm };

const char* CacheModeName(CacheMode mode);

/// Everything a bench command line can set. A binary accepts the flags
/// it declares (see Flag); the rest keep these defaults.
struct BenchOptions {
  double scale = 1.0;
  int repeats = 1;
  uint64_t seed = 42;
  int jobs = 0;  // 0 = hardware concurrency
  bool csv = false;
  bool walls = false;
  wrapper::StormKind storm = wrapper::StormKind::kNone;
  double deadline_s = 0.0;  // scale-1 virtual seconds; 0 = no deadlines
  CacheMode cache = CacheMode::kCold;
  std::string out = "BENCH_suite.json";
};

/// One command-line flag: `--name=VALUE`, or `--name` for a switch.
struct Flag {
  const char* name;   // "--jobs"
  const char* value;  // usage placeholder ("N", "off|cold|warm"), or
                      // nullptr for a switch
  const char* help;
  /// Stores the text after '=' (empty for a switch) in `options`, or
  /// rejects it: numbers must convert whole, be finite and fit their field.
  bool (*set)(const std::string& text, BenchOptions* options);
};

// The flags the bench binaries declare (help texts in bench_common.cc).
extern const Flag kScaleFlag;
extern const Flag kRepeatsFlag;
extern const Flag kSeedFlag;
extern const Flag kJobsFlag;
extern const Flag kCsvFlag;
extern const Flag kWallsFlag;
extern const Flag kStormFlag;
extern const Flag kDeadlineFlag;
extern const Flag kCacheFlag;

/// The flags of every binary that prints a table, then `own`.
std::vector<Flag> TableFlags(const std::vector<Flag>& own = {});

/// Parses argv strictly against `flags`: an unknown flag or a malformed
/// value fails with the offending argument in `error`.
std::optional<BenchOptions> TryParseOptions(int argc, char** argv,
                                            double default_scale,
                                            const std::vector<Flag>& flags,
                                            std::string* error);

/// TryParseOptions, or exit 2 with the error and a usage line that lists
/// `flags` with their help text.
BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          const std::vector<Flag>& flags);

/// For runs whose cells run once: a usage error (exit 2) unless
/// `options.repeats` is 1, so a repeat count is never silently ignored.
void RequireOneRepeat(const BenchOptions& options, const char* argv0,
                      const std::vector<Flag>& flags);

/// What one cell measured. `seconds` is the simulated figure bench_suite
/// tracks: a query's mean response time over the repeats, or a mix's or a
/// fleet's makespan.
struct Outcome {
  bool ok = false;
  double seconds = 0.0;
  std::string error;
  /// Host time of the measured run(s): the --walls columns.
  double wall_ms = 0.0;
  /// The driver's metrics: the last repeat of a single-query cell, the
  /// measured run of a mix or a fleet.
  core::ExecutionMetrics metrics;
  core::MultiQueryMetrics mix;
  core::FleetMetrics fleet;
};

/// How a single-query cell runs its mediator.
using SingleRun =
    std::function<Result<core::ExecutionMetrics>(const core::Mediator&)>;

/// The single-query measure loop: `run` on a fresh Mediator for each of
/// `repeats` seeds (seed + r * 7919); `seconds` is the mean response time.
Outcome Measure(const plan::QuerySetup& setup,
                const core::MediatorConfig& config, int repeats,
                const SingleRun& run);

/// The analytic lower bound for the setup (first seed's data).
Outcome LowerBound(const plan::QuerySetup& setup,
                   const core::MediatorConfig& config);

/// "1.234" or "FAIL(<reason>)".
std::string SecondsCell(const Outcome& outcome);

/// Percentage gain of dse over seq, as "37.5" (empty on failure).
std::string GainCell(const Outcome& seq, const Outcome& dse);

/// Percentile summary of per-query completion latencies (nearest-rank on
/// a sorted copy, so the summary is deterministic and allocation-cheap).
/// Used by the multi-query and fleet tables.
struct LatencySummary {
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

LatencySummary SummarizeLatencies(const std::vector<SimDuration>& latencies);

/// "ok=7 partial=1" — the non-zero per-status counts in enum order, or
/// "ok=0" when every count is zero. Used by the fleet and multi-query
/// status columns (§13 lifecycle taxonomy).
std::string FormatStatusCounts(
    const std::array<int64_t, core::kNumQueryStatuses>& counts);

/// Prints the standard bench preamble.
void PrintPreamble(const std::string& title, const std::string& paper_artifact,
                   const BenchOptions& options);

/// Prints `table` as CSV under --csv, aligned otherwise.
void PrintTable(const TablePrinter& table, const BenchOptions& options);

/// A MediatorConfig with the paper's defaults and the options' seed.
core::MediatorConfig DefaultConfig(const BenchOptions& options);

}  // namespace dqsched::bench

#endif  // DQSCHED_BENCH_BENCH_COMMON_H_

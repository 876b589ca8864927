// The experiment list: every grid of cells behind a reproduced figure,
// ablation or comparison, declared once (Table 1 and the google-benchmark
// micro-benchmarks have no cells). Each entry's binary (bench_fig6_slow_a,
// ...) runs its cells and prints its table; bench_suite runs every entry's
// cells, the suite-only ones included, and writes them to one JSON report.
//
// To add an experiment, add one entry to Experiments() (experiments.cc)
// and, for a binary, a bench_<name>.cc whose main calls RunExperiment.

#ifndef DQSCHED_BENCH_EXPERIMENTS_H_
#define DQSCHED_BENCH_EXPERIMENTS_H_

#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"

namespace dqsched::bench {

/// One independent measurement. (experiment, label) is its key in the
/// suite's JSON report.
struct Cell {
  std::string experiment;
  std::string label;
  std::function<Outcome()> measure;
};

/// An experiment's cells for one set of options, and the table its binary
/// prints from their outcomes.
struct Grid {
  std::vector<Cell> cells;
  /// Prints the table from the outcomes (in cell order) and returns the
  /// binary's exit code.
  std::function<int(const std::vector<Outcome>&)> print;
};

struct Experiment {
  /// "bench_fig6_slow_a"; nullptr for a workload only bench_suite runs.
  const char* binary = nullptr;
  std::string title{};
  std::string artifact{};  // the paper artifact it reproduces
  /// The binary's --scale default; bench_suite runs the entry at this
  /// times its own --scale.
  double default_scale = 1.0;
  /// The binary's flags beyond TableFlags(). bench_suite runs every
  /// entry with its own --cache value and the others at their defaults.
  std::vector<Flag> flags{};
  /// Its cells ignore --repeats, so the binary rejects any value but 1.
  bool runs_once = false;
  /// Each cell runs on all --jobs host threads itself (a fleet's shard
  /// threads), so the binary runs the cells one at a time.
  bool cells_take_jobs = false;
  std::function<Grid(const BenchOptions&)> build{};
};

/// Every experiment, in the order bench_suite runs them.
std::vector<Experiment> Experiments();

/// The main of the binary named `binary`: parses TableFlags() plus the
/// entry's flags, runs its cells on --jobs workers and prints its table.
int RunExperiment(const std::string& binary, int argc, char** argv);

}  // namespace dqsched::bench

#endif  // DQSCHED_BENCH_EXPERIMENTS_H_

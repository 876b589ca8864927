#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/table_printer.h"

namespace dqsched::bench {

namespace {

/// Strict numeric parsers: the whole value must convert, so "--jobs=two"
/// is a usage error instead of a silent zero.
bool ParseDoubleArg(const char* text, double* out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseIntArg(const char* text, long long* out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

[[noreturn]] void UsageError(const std::string& error, const char* argv0) {
  std::fprintf(stderr,
               "%s\nusage: %s [--scale=F] [--repeats=N] [--seed=N] "
               "[--jobs=N] [--csv] [--walls]\n",
               error.c_str(), argv0);
  std::exit(2);
}

}  // namespace

std::optional<BenchOptions> TryParseOptions(int argc, char** argv,
                                            double default_scale,
                                            std::string* error) {
  BenchOptions options;
  options.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long long n = 0;
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      if (!ParseDoubleArg(arg + 8, &options.scale)) {
        *error = std::string("bad value in ") + arg;
        return std::nullopt;
      }
    } else if (std::strncmp(arg, "--repeats=", 10) == 0) {
      if (!ParseIntArg(arg + 10, &n)) {
        *error = std::string("bad value in ") + arg;
        return std::nullopt;
      }
      options.repeats = static_cast<int>(n);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseIntArg(arg + 7, &n) || n < 0) {
        *error = std::string("bad value in ") + arg;
        return std::nullopt;
      }
      options.seed = static_cast<uint64_t>(n);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!ParseIntArg(arg + 7, &n) || n < 0) {
        *error = std::string("bad value in ") + arg;
        return std::nullopt;
      }
      options.jobs = static_cast<int>(n);
    } else if (std::strcmp(arg, "--csv") == 0) {
      options.csv = true;
    } else if (std::strcmp(arg, "--walls") == 0) {
      options.walls = true;
    } else {
      *error = std::string("unknown flag ") + arg;
      return std::nullopt;
    }
  }
  if (options.scale <= 0) {
    *error = "scale must be > 0";
    return std::nullopt;
  }
  if (options.repeats < 1) {
    *error = "repeats must be >= 1";
    return std::nullopt;
  }
  return options;
}

BenchOptions ParseOptions(int argc, char** argv, double default_scale) {
  std::string error;
  std::optional<BenchOptions> options =
      TryParseOptions(argc, argv, default_scale, &error);
  if (!options) UsageError(error, argv[0]);
  return *options;
}

void RequireOneRepeat(const BenchOptions& options, const char* argv0) {
  if (options.repeats == 1) return;
  UsageError("--repeats=" + std::to_string(options.repeats) +
                 " is not supported: each cell runs once",
             argv0);
}

core::MediatorConfig DefaultConfig(const BenchOptions& options) {
  core::MediatorConfig config;
  config.seed = options.seed;
  return config;
}

StrategyOutcome MeasureStrategy(const plan::QuerySetup& setup,
                                const core::MediatorConfig& config,
                                core::StrategyKind kind, int repeats) {
  StrategyOutcome outcome;
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    core::MediatorConfig run_config = config;
    run_config.seed = config.seed + static_cast<uint64_t>(r) * 7919;
    Result<core::Mediator> mediator =
        core::Mediator::Create(setup.catalog, setup.plan, run_config);
    if (!mediator.ok()) {
      outcome.error = mediator.status().ToString();
      return outcome;
    }
    Result<core::ExecutionMetrics> metrics = mediator->Execute(kind);
    if (!metrics.ok()) {
      outcome.error = metrics.status().ToString();
      return outcome;
    }
    total += ToSecondsF(metrics->response_time);
    outcome.metrics = *metrics;
  }
  outcome.ok = true;
  outcome.seconds = total / repeats;
  return outcome;
}

StrategyOutcome MeasureScrambling(const plan::QuerySetup& setup,
                                  const core::MediatorConfig& config,
                                  SimDuration timeout, int repeats) {
  StrategyOutcome outcome;
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    core::MediatorConfig run_config = config;
    run_config.seed = config.seed + static_cast<uint64_t>(r) * 7919;
    Result<core::Mediator> mediator =
        core::Mediator::Create(setup.catalog, setup.plan, run_config);
    if (!mediator.ok()) {
      outcome.error = mediator.status().ToString();
      return outcome;
    }
    Result<core::ExecutionMetrics> metrics =
        mediator->ExecuteScrambling(timeout);
    if (!metrics.ok()) {
      outcome.error = metrics.status().ToString();
      return outcome;
    }
    total += ToSecondsF(metrics->response_time);
    outcome.metrics = *metrics;
  }
  outcome.ok = true;
  outcome.seconds = total / repeats;
  return outcome;
}

StrategyOutcome MeasureDphj(const plan::QuerySetup& setup,
                            const core::MediatorConfig& config,
                            int repeats) {
  StrategyOutcome outcome;
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    core::MediatorConfig run_config = config;
    run_config.seed = config.seed + static_cast<uint64_t>(r) * 7919;
    Result<core::Mediator> mediator =
        core::Mediator::Create(setup.catalog, setup.plan, run_config);
    if (!mediator.ok()) {
      outcome.error = mediator.status().ToString();
      return outcome;
    }
    Result<core::ExecutionMetrics> metrics = mediator->ExecuteDphj();
    if (!metrics.ok()) {
      outcome.error = metrics.status().ToString();
      return outcome;
    }
    total += ToSecondsF(metrics->response_time);
    outcome.metrics = *metrics;
  }
  outcome.ok = true;
  outcome.seconds = total / repeats;
  return outcome;
}

std::vector<StrategyOutcome> RunCells(const BenchOptions& options,
                                      const std::vector<MeasureCell>& cells) {
  const ParallelRunner runner(options.jobs);
  return RunIndexed<StrategyOutcome>(
      runner, cells.size(), [&cells](size_t i) { return cells[i](); });
}

double LwbSeconds(const plan::QuerySetup& setup,
                  const core::MediatorConfig& config) {
  Result<core::Mediator> mediator =
      core::Mediator::Create(setup.catalog, setup.plan, config);
  if (!mediator.ok()) return -1.0;
  return ToSecondsF(mediator->LowerBound().bound());
}

std::string Cell(const StrategyOutcome& outcome) {
  if (!outcome.ok) return "FAIL(" + outcome.error + ")";
  return TablePrinter::Num(outcome.seconds);
}

std::string GainCell(const StrategyOutcome& seq, const StrategyOutcome& dse) {
  if (!seq.ok || !dse.ok || seq.seconds <= 0) return "";
  return TablePrinter::Num(100.0 * (seq.seconds - dse.seconds) / seq.seconds,
                           1);
}

LatencySummary SummarizeLatencies(const std::vector<SimDuration>& latencies) {
  LatencySummary summary;
  if (latencies.empty()) return summary;
  std::vector<SimDuration> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest value with at least p% of the sample at or
  // below it — ceil(p * n) in 1-based ranks.
  auto rank = [&](double p) {
    const size_t n = sorted.size();
    size_t r = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    if (r < 1) r = 1;
    if (r > n) r = n;
    return ToSecondsF(sorted[r - 1]);
  };
  summary.p50_s = rank(0.50);
  summary.p95_s = rank(0.95);
  summary.p99_s = rank(0.99);
  return summary;
}

std::string FormatStatusCounts(
    const std::array<int64_t, core::kNumQueryStatuses>& counts) {
  std::string out;
  for (int i = 0; i < core::kNumQueryStatuses; ++i) {
    if (counts[static_cast<size_t>(i)] == 0) continue;
    if (!out.empty()) out += ' ';
    out += core::QueryStatusName(static_cast<core::QueryStatus>(i));
    out += '=';
    out += std::to_string(counts[static_cast<size_t>(i)]);
  }
  if (out.empty()) out = "ok=0";
  return out;
}

void PrintPreamble(const char* title, const char* paper_artifact,
                   const BenchOptions& options) {
  std::printf("== %s ==\n", title);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("scale=%.2f repeats=%d seed=%llu jobs=%d\n\n", options.scale,
              options.repeats,
              static_cast<unsigned long long>(options.seed),
              options.jobs > 0 ? options.jobs : ParallelRunner::DefaultJobs());
}

void RunSlowOneRelationBench(const char* relation,
                             const char* paper_artifact,
                             const BenchOptions& options) {
  PrintPreamble(
      (std::string("One slowed-down input relation: ") + relation).c_str(),
      paper_artifact, options);
  const core::MediatorConfig config = DefaultConfig(options);

  plan::QuerySetup base = plan::PaperFigure5Query(options.scale);
  const SourceId slowed = base.catalog.Find(relation);
  if (slowed == kInvalidId) {
    std::fprintf(stderr, "unknown relation %s\n", relation);
    std::exit(2);
  }
  const int64_t n = base.catalog.source(slowed).relation.cardinality;
  const double base_total_s =
      static_cast<double>(n) * base.catalog.source(slowed).delay.mean_us /
      1e6;

  // X axis: total time to retrieve the slowed relation (paper's axis),
  // from the unslowed baseline up to ~10 s at scale 1.
  std::vector<double> targets_s = {base_total_s};
  for (double t = 2.0; t <= 10.01; t += 2.0) {
    const double scaled = t * options.scale;
    if (scaled > base_total_s * 1.01) targets_s.push_back(scaled);
  }

  // Every (target, strategy) point and every LWB is an independent cell.
  std::vector<plan::QuerySetup> setups;
  std::vector<MeasureCell> cells;
  std::vector<double> w_values;
  for (double target : targets_s) {
    plan::QuerySetup setup = base;
    const double w_us = target * 1e6 / static_cast<double>(n);
    setup.catalog.source(slowed).delay.mean_us = w_us;
    w_values.push_back(w_us);
    setups.push_back(std::move(setup));
  }
  for (const plan::QuerySetup& setup : setups) {
    for (core::StrategyKind kind :
         {core::StrategyKind::kSeq, core::StrategyKind::kDse,
          core::StrategyKind::kMa}) {
      cells.push_back([&setup, &config, kind, &options] {
        return MeasureStrategy(setup, config, kind, options.repeats);
      });
    }
    cells.push_back([&setup, &config] {
      StrategyOutcome lwb;
      lwb.ok = true;
      lwb.seconds = LwbSeconds(setup, config);
      return lwb;
    });
  }
  const std::vector<StrategyOutcome> results = RunCells(options, cells);

  TablePrinter table({"retrieval of " + std::string(relation) + " (s)",
                      "w (us)", "SEQ (s)", "DSE (s)", "MA (s)", "LWB (s)",
                      "DSE gain over SEQ (%)"});
  for (size_t i = 0; i < targets_s.size(); ++i) {
    const StrategyOutcome& seq = results[4 * i];
    const StrategyOutcome& dse = results[4 * i + 1];
    const StrategyOutcome& ma = results[4 * i + 2];
    const StrategyOutcome& lwb = results[4 * i + 3];
    table.AddRow({TablePrinter::Num(targets_s[i], 2),
                  TablePrinter::Num(w_values[i], 1), Cell(seq), Cell(dse),
                  Cell(ma), TablePrinter::Num(lwb.seconds),
                  GainCell(seq, dse)});
  }
  if (options.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }
  std::printf(
      "\nExpected shape (paper Section 5.2): SEQ grows linearly with the\n"
      "slowdown; MA is roughly flat and worst until SEQ crosses it; DSE\n"
      "stays well below SEQ and tracks LWB.\n");
}

}  // namespace dqsched::bench

#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dqsched::bench {

namespace {

/// Strict numeric parsers: the whole value must convert, be finite and
/// fit, so "--jobs=two", "--scale=nan" and "--jobs=4294967296" are usage
/// errors instead of silent zeros, NaNs or truncations.
bool ParseFinite(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& text, long long lo, long long hi,
              long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool SetScale(const std::string& text, BenchOptions* options) {
  double v = 0;
  if (!ParseFinite(text, &v) || v <= 0) return false;
  options->scale = v;
  return true;
}

bool SetRepeats(const std::string& text, BenchOptions* options) {
  long long n = 0;
  if (!ParseInt(text, 1, INT_MAX, &n)) return false;
  options->repeats = static_cast<int>(n);
  return true;
}

bool SetSeed(const std::string& text, BenchOptions* options) {
  long long n = 0;
  if (!ParseInt(text, 0, LLONG_MAX, &n)) return false;
  options->seed = static_cast<uint64_t>(n);
  return true;
}

bool SetJobs(const std::string& text, BenchOptions* options) {
  long long n = 0;
  if (!ParseInt(text, 0, INT_MAX, &n)) return false;
  options->jobs = static_cast<int>(n);
  return true;
}

bool SetCsv(const std::string&, BenchOptions* options) {
  options->csv = true;
  return true;
}

bool SetWalls(const std::string&, BenchOptions* options) {
  options->walls = true;
  return true;
}

bool SetStorm(const std::string& text, BenchOptions* options) {
  return wrapper::ParseStormKind(text, &options->storm);
}

bool SetDeadline(const std::string& text, BenchOptions* options) {
  // At most 1e9 s, so the budget's nanoseconds fit the virtual clock.
  double v = 0;
  if (!ParseFinite(text, &v) || v < 0 || v > 1e9) return false;
  options->deadline_s = v;
  return true;
}

bool SetCache(const std::string& text, BenchOptions* options) {
  for (CacheMode mode : {CacheMode::kOff, CacheMode::kCold, CacheMode::kWarm}) {
    if (text == CacheModeName(mode)) {
      options->cache = mode;
      return true;
    }
  }
  return false;
}

[[noreturn]] void UsageError(const std::string& error, const char* argv0,
                             const std::vector<Flag>& flags) {
  std::vector<std::string> forms;
  size_t width = 0;
  std::string usage = std::string("usage: ") + argv0;
  for (const Flag& flag : flags) {
    forms.push_back(flag.name +
                    (flag.value ? "=" + std::string(flag.value) : ""));
    width = std::max(width, forms.back().size());
    usage += " [" + forms.back() + "]";
  }
  std::fprintf(stderr, "%s\n%s\n", error.c_str(), usage.c_str());
  for (size_t i = 0; i < flags.size(); ++i) {
    std::fprintf(stderr, "  %-*s  %s\n", static_cast<int>(width),
                 forms[i].c_str(), flags[i].help);
  }
  std::exit(2);
}

}  // namespace

const Flag kScaleFlag = {"--scale", "F",
                         "cardinality multiplier (default per bench)",
                         SetScale};
const Flag kRepeatsFlag = {
    "--repeats", "N",
    "measurements averaged per point, on distinct seeds (the simulator is "
    "deterministic per seed, so 1 is representative)",
    SetRepeats};
const Flag kSeedFlag = {"--seed", "N", "base seed (default 42)", SetSeed};
const Flag kJobsFlag = {"--jobs", "N",
                        "worker threads (0 = one per core); every result is "
                        "identical for every value",
                        SetJobs};
const Flag kCsvFlag = {"--csv", nullptr, "machine-readable output", SetCsv};
const Flag kWallsFlag = {
    "--walls", nullptr,
    "append host wall-time columns, the one column that differs between "
    "runs and --jobs values",
    SetWalls};
const Flag kStormFlag = {"--storm", "none|region-outage|cascade|flapping",
                         "correlated fault storm (default none)", SetStorm};
const Flag kDeadlineFlag = {
    "--deadline", "SEC",
    "per-attempt deadline budget in scale-1 virtual seconds, multiplied by "
    "--scale like the query durations (default 0 = none)",
    SetDeadline};
const Flag kCacheFlag = {
    "--cache", "off|cold|warm",
    "result cache: cold (the default) starts every cell on an empty cache, "
    "identical to off on every non-wall column; warm measures a repeat "
    "after one unmeasured run",
    SetCache};

const char* CacheModeName(CacheMode mode) {
  switch (mode) {
    case CacheMode::kOff:
      return "off";
    case CacheMode::kCold:
      return "cold";
    case CacheMode::kWarm:
      return "warm";
  }
  return "unknown";
}

std::vector<Flag> TableFlags(const std::vector<Flag>& own) {
  std::vector<Flag> flags = {kScaleFlag, kRepeatsFlag, kSeedFlag,
                             kJobsFlag,  kCsvFlag,     kWallsFlag};
  flags.insert(flags.end(), own.begin(), own.end());
  return flags;
}

std::optional<BenchOptions> TryParseOptions(int argc, char** argv,
                                            double default_scale,
                                            const std::vector<Flag>& flags,
                                            std::string* error) {
  BenchOptions options;
  options.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&name](const Flag& f) {
                                     return name == f.name;
                                   });
    if (flag == flags.end() ||
        (flag->value == nullptr) != (eq == std::string::npos)) {
      *error = "unknown flag " + arg;
      return std::nullopt;
    }
    if (!flag->set(eq == std::string::npos ? "" : arg.substr(eq + 1),
                   &options)) {
      *error = "bad value in " + arg;
      return std::nullopt;
    }
  }
  return options;
}

BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          const std::vector<Flag>& flags) {
  std::string error;
  std::optional<BenchOptions> options =
      TryParseOptions(argc, argv, default_scale, flags, &error);
  if (!options) UsageError(error, argv[0], flags);
  return *options;
}

void RequireOneRepeat(const BenchOptions& options, const char* argv0,
                      const std::vector<Flag>& flags) {
  if (options.repeats == 1) return;
  UsageError("--repeats=" + std::to_string(options.repeats) +
                 " is not supported: each cell runs once",
             argv0, flags);
}

core::MediatorConfig DefaultConfig(const BenchOptions& options) {
  core::MediatorConfig config;
  config.seed = options.seed;
  return config;
}

Outcome Measure(const plan::QuerySetup& setup,
                const core::MediatorConfig& config, int repeats,
                const SingleRun& run) {
  Outcome outcome;
  const auto start = std::chrono::steady_clock::now();
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
    Result<core::ExecutionMetrics> metrics = run(*mediator);
    if (!metrics.ok()) {
      outcome.error = metrics.status().ToString();
      return outcome;
    }
    total += ToSecondsF(metrics->response_time);
    outcome.metrics = *metrics;
  }
  outcome.ok = true;
  outcome.seconds = total / repeats;
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return outcome;
}

Outcome LowerBound(const plan::QuerySetup& setup,
                   const core::MediatorConfig& config) {
  Outcome outcome;
  Result<core::Mediator> mediator =
      core::Mediator::Create(setup.catalog, setup.plan, config);
  if (!mediator.ok()) {
    outcome.error = mediator.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.seconds = ToSecondsF(mediator->LowerBound().bound());
  return outcome;
}

std::string SecondsCell(const Outcome& outcome) {
  if (!outcome.ok) return "FAIL(" + outcome.error + ")";
  return TablePrinter::Num(outcome.seconds);
}

std::string GainCell(const Outcome& seq, const Outcome& dse) {
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

void PrintPreamble(const std::string& title, const std::string& paper_artifact,
                   const BenchOptions& options) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_artifact.c_str());
  std::printf("scale=%.2f repeats=%d seed=%llu jobs=%d\n\n", options.scale,
              options.repeats,
              static_cast<unsigned long long>(options.seed),
              options.jobs > 0 ? options.jobs : ParallelRunner::DefaultJobs());
}

void PrintTable(const TablePrinter& table, const BenchOptions& options) {
  if (options.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }
}

}  // namespace dqsched::bench

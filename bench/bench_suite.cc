// Runs every experiment of the list in experiments.cc — Figs 6-8, the
// Section 5.2 position sweep, the delay/scrambling/DPHJ/fault
// comparisons, the ablations, the multi-query and fleet outlook, and the
// suite-only fleet, storm and warm-cache workloads — as one flat set of
// independent cells on the work-stealing parallel runner, and writes
// BENCH_suite.json — per-cell wall-clock and simulated seconds — so the
// perf trajectory of the engine is tracked across PRs. Simulated results
// are byte-identical for every --jobs value; only the wall-clock changes.
//
//   bench_suite [--scale=F] [--repeats=1] [--seed=N] [--jobs=N]
//               [--out=PATH] [--cache=off|cold]
//
// Each experiment runs at its binary's default scale times --scale
// (e.g. --scale=0.05 is the tier-1 smoke grid), and each cell once: the
// suite rejects any other --repeats.
//
// --cache picks the result-cache mode of the multi-query and fleet cells
// (single-query cells use per-run caches and are inherently cold).
// "cold" (the default) enables the cache on fresh executors, so every
// tracked cell is byte-identical to "off" on all non-wall fields — the
// CI perf-smoke step diffs exactly that. Cold mode additionally runs two
// warm-cache cells (experiment "cache_warm", a repeated multi-query mix
// and a repeated fleet stream) that are skipped under --cache=off; diff
// tooling must exclude that experiment.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "experiments.h"

namespace dqsched::bench {
namespace {

bool SetOut(const std::string& text, BenchOptions* options) {
  if (text.empty()) return false;
  options->out = text;
  return true;
}

// The suite has no warm mode: its warm cells are the cache_warm entry.
bool SetSuiteCache(const std::string& text, BenchOptions* options) {
  return kCacheFlag.set(text, options) && options->cache != CacheMode::kWarm;
}

const Flag kOutFlag = {"--out", "PATH",
                       "where the JSON report goes (default BENCH_suite.json)",
                       SetOut};
const Flag kSuiteCacheFlag = {
    "--cache", "off|cold",
    "result cache of the multi-query and fleet cells; cold (the default) "
    "also runs the cache_warm cells",
    SetSuiteCache};

struct SuiteResult {
  Outcome outcome;
  double wall_seconds = 0.0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::vector<Flag> flags = {kScaleFlag, kRepeatsFlag, kSeedFlag,
                                   kJobsFlag,  kOutFlag,     kSuiteCacheFlag};
  const BenchOptions options = ParseOptions(argc, argv, 1.0, flags);
  RequireOneRepeat(options, argv[0], flags);
  const ParallelRunner runner(options.jobs);

  // Open the output up front: a bad --out path must not cost a full run.
  FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
    return 1;
  }

  // Every entry at its own default scale times --scale, with the suite's
  // seed and cache mode; each cell runs on one host thread, since the
  // suite's runner spreads the cells themselves.
  std::vector<Cell> cells;
  for (const Experiment& e : Experiments()) {
    BenchOptions entry = options;
    entry.scale = e.default_scale * options.scale;
    entry.jobs = 1;
    Grid grid = e.build(entry);
    for (Cell& cell : grid.cells) cells.push_back(std::move(cell));
  }
  std::printf("bench_suite: %zu cells, scale=%.3g, jobs=%d, cache=%s\n",
              cells.size(), options.scale, runner.jobs(),
              CacheModeName(options.cache));

  const auto suite_start = std::chrono::steady_clock::now();
  const std::vector<SuiteResult> results = RunIndexed<SuiteResult>(
      runner, cells.size(), [&cells](size_t i) {
        const auto start = std::chrono::steady_clock::now();
        SuiteResult r;
        r.outcome = cells[i].measure();
        r.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return r;
      });
  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    suite_start)
          .count();

  double simulated_total = 0.0;
  size_t failed = 0;
  for (const SuiteResult& r : results) {
    if (r.outcome.ok) {
      simulated_total += r.outcome.seconds;
    } else {
      ++failed;
    }
  }

  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"dqsched-bench-suite-v1\",\n");
  std::fprintf(out, "  \"scale\": %.9g,\n", options.scale);
  std::fprintf(out, "  \"repeats\": %d,\n", options.repeats);
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  std::fprintf(out, "  \"jobs\": %d,\n", runner.jobs());
  std::fprintf(out, "  \"cache\": \"%s\",\n", CacheModeName(options.cache));
  std::fprintf(out, "  \"cell_count\": %zu,\n", results.size());
  std::fprintf(out, "  \"failed_cells\": %zu,\n", failed);
  std::fprintf(out, "  \"simulated_seconds_total\": %.9g,\n",
               simulated_total);
  std::fprintf(out, "  \"wall_seconds_total\": %.6f,\n", total_wall);
  std::fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Cell& cell = cells[i];
    const SuiteResult& r = results[i];
    std::fprintf(out,
                 "    {\"experiment\": \"%s\", \"label\": \"%s\", "
                 "\"ok\": %s, \"simulated_seconds\": %.9g, "
                 "\"wall_seconds\": %.6f%s%s%s}%s\n",
                 JsonEscape(cell.experiment).c_str(),
                 JsonEscape(cell.label).c_str(),
                 r.outcome.ok ? "true" : "false",
                 r.outcome.ok ? r.outcome.seconds : -1.0, r.wall_seconds,
                 r.outcome.ok ? "" : ", \"error\": \"",
                 r.outcome.ok ? "" : JsonEscape(r.outcome.error).c_str(),
                 r.outcome.ok ? "" : "\"",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  std::printf(
      "bench_suite: %zu cells (%zu FAIL), "
      "%.1f simulated s, %.2f wall s -> %s\n",
      results.size(), failed, simulated_total, total_wall,
      options.out.c_str());
  return 0;
}

}  // namespace
}  // namespace dqsched::bench

int main(int argc, char** argv) { return dqsched::bench::Main(argc, argv); }

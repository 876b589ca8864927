// The paper's Section 6 outlook, measured: multi-query execution and the
// "classical tradeoff between throughput and response time". A mix of N
// paper-shaped queries runs serial vs shared, with SEQ vs DSE per query;
// the table reports the makespan (throughput side) and the mean response
// time (latency side).

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "core/multi_query.h"

int main(int argc, char** argv) {
  using namespace dqsched;
  // Peeled before the shared parser:
  //   --cache=<mode>  result cache: off | cold (enabled, every cell runs
  //                   on a fresh cache — byte-identical to off on every
  //                   non-wall column) | warm (one unmeasured run per
  //                   cell, then measure the repeat)
  enum class CacheMode { kOff, kCold, kWarm };
  CacheMode cache_mode = CacheMode::kCold;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cache=", 0) == 0) {
      const std::string mode = arg.substr(8);
      if (mode == "off") {
        cache_mode = CacheMode::kOff;
      } else if (mode == "cold") {
        cache_mode = CacheMode::kCold;
      } else if (mode == "warm") {
        cache_mode = CacheMode::kWarm;
      } else {
        std::fprintf(stderr, "unknown --cache mode: %s\n", mode.c_str());
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto options = bench::ParseOptions(static_cast<int>(rest.size()),
                                           rest.data(), /*default_scale=*/0.1);
  bench::RequireOneRepeat(options, argv[0]);
  bench::PrintPreamble("Multi-query execution (throughput vs response time)",
                       "Section 6 (future work: multi-query execution)",
                       options);
  std::printf("cache: %s\n\n",
              cache_mode == CacheMode::kOff
                  ? "off"
                  : (cache_mode == CacheMode::kCold ? "cold" : "warm"));

  // One cell per (n, mode, strategy); each builds its own mix + mediator
  // so cells stay independent across worker threads.
  struct MultiCell {
    int n;
    core::MultiMode mode;
    core::StrategyKind kind;
  };
  std::vector<MultiCell> grid;
  for (int n : {1, 2, 4, 8}) {
    for (core::MultiMode mode :
         {core::MultiMode::kSerial, core::MultiMode::kShared}) {
      for (core::StrategyKind kind :
           {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
        grid.push_back({n, mode, kind});
      }
    }
  }
  // Large mixes stress the shared mediator's event loop (done-query
  // skipping, the all-starved arrival heap, incremental replans); serial
  // mode scales trivially in n and would dominate the wall clock, so the
  // wide axis is shared-only.
  for (int n : {16, 32, 64}) {
    for (core::StrategyKind kind :
         {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
      grid.push_back({n, core::MultiMode::kShared, kind});
    }
  }
  struct MultiOutcome {
    bool ok = false;
    std::string error;
    core::MultiQueryMetrics metrics;
    /// Host wall time of Execute — the only column that varies run to run
    /// (and with --jobs); every simulated metric is deterministic.
    double wall_ms = 0.0;
  };
  const ParallelRunner runner(options.jobs);
  const auto results = RunIndexed<MultiOutcome>(
      runner, grid.size(), [&grid, &options, cache_mode](size_t i) {
        const MultiCell& cell = grid[i];
        MultiOutcome out;
        std::vector<plan::QuerySetup> mix;
        for (int q = 0; q < cell.n; ++q) {
          // Stagger seeds so the queries are distinct workload instances.
          mix.push_back(plan::PaperFigure5Query(options.scale));
        }
        core::MultiQueryConfig config;
        config.seed = options.seed;
        config.cache.enabled = cache_mode != CacheMode::kOff;
        Result<core::MultiQueryMediator> mediator =
            core::MultiQueryMediator::Create(std::move(mix), config);
        if (!mediator.ok()) {
          out.error = mediator.status().ToString();
          return out;
        }
        // Each cell's mediator is fresh, so its first run is always cold;
        // warm mode repeats the identical mix once unmeasured so the
        // measured run serves hits.
        if (cache_mode == CacheMode::kWarm) {
          Result<core::MultiQueryMetrics> warmup =
              mediator->Execute(cell.kind, cell.mode);
          if (!warmup.ok()) {
            out.error = warmup.status().ToString();
            return out;
          }
        }
        const auto t0 = std::chrono::steady_clock::now();
        Result<core::MultiQueryMetrics> r =
            mediator->Execute(cell.kind, cell.mode);
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          out.error = r.status().ToString();
          return out;
        }
        out.ok = true;
        out.metrics = *r;
        out.wall_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        return out;
      });

  // The latency distribution next to its mean: per-query completion
  // times summarized as nearest-rank percentiles (SummarizeLatencies).
  std::vector<std::string> headers = {
      "queries", "mode",    "per-query", "makespan (s)",
      "mean response (s)",  "p50 (s)",   "p95 (s)",
      "p99 (s)", "statuses", "total degradations",
      "c-hits",  "c-miss",  "c-stale",   "c-evict"};
  if (options.walls) headers.push_back("wall (ms)");
  TablePrinter table(std::move(headers));
  for (size_t i = 0; i < grid.size(); ++i) {
    const MultiCell& cell = grid[i];
    const MultiOutcome& r = results[i];
    if (!r.ok) {
      std::fprintf(stderr, "n=%d %s/%s: %s\n", cell.n,
                   core::MultiModeName(cell.mode),
                   core::StrategyName(cell.kind), r.error.c_str());
      return 1;
    }
    const bench::LatencySummary lat =
        bench::SummarizeLatencies(r.metrics.response_times);
    std::array<int64_t, core::kNumQueryStatuses> counts{};
    for (core::QueryStatus st : r.metrics.statuses) {
      ++counts[static_cast<size_t>(st)];
    }
    std::vector<std::string> row = {
        std::to_string(cell.n), core::MultiModeName(cell.mode),
        core::StrategyName(cell.kind),
        TablePrinter::Num(ToSecondsF(r.metrics.makespan)),
        TablePrinter::Num(ToSecondsF(r.metrics.mean_response)),
        TablePrinter::Num(lat.p50_s), TablePrinter::Num(lat.p95_s),
        TablePrinter::Num(lat.p99_s), bench::FormatStatusCounts(counts),
        std::to_string(r.metrics.total_degradations),
        std::to_string(r.metrics.cache.segment_hits +
                       r.metrics.cache.result_hits),
        std::to_string(r.metrics.cache.segment_misses +
                       r.metrics.cache.result_misses),
        std::to_string(r.metrics.cache.stale_invalidations),
        std::to_string(r.metrics.cache.evictions)};
    if (options.walls) row.push_back(TablePrinter::Num(r.wall_ms));
    table.AddRow(std::move(row));
  }
  if (options.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }
  std::printf(
      "\nExpected shape (paper Section 6): sharing improves the makespan\n"
      "(delays of one query absorbed by another's work) at some cost in\n"
      "early queries' response times; DSE compounds with sharing because\n"
      "it keeps every wrapper of every query flowing.\n");
  return 0;
}

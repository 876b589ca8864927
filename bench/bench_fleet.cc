// The sharded mediator fleet under an open-loop Poisson query stream:
// the paper's Section 6 throughput-vs-response-time tradeoff at fleet
// scale. A skewed template mix (prepared once — the warm plan cache)
// arrives open-loop; queries hash onto mediator shards running on real
// threads, gated by the admission-control memory broker. The table
// reports the throughput side (makespan, queries/s) and the latency
// side (p50/p95/p99 completion latency, overall and per fairness
// class), plus the broker's admission-queueing counters.
//
// --jobs only picks the host thread count for the shard advances; every
// virtual column is byte-identical across job counts (DESIGN.md §12).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/fleet_executor.h"

int main(int argc, char** argv) {
  using namespace dqsched;
  // Lifecycle flags (this bench only) are peeled off before the shared
  // parser sees the rest:
  //   --storm=<kind>    correlated fault storm: region-outage | cascade |
  //                     flapping (default none)
  //   --deadline=<sec>  per-attempt deadline budget in scale-1 virtual
  //                     seconds, multiplied by --scale like the query
  //                     durations (default 0 = no deadlines)
  //   --cache=<mode>    result cache: off | cold (enabled, reset before
  //                     every run — byte-identical to off on every
  //                     non-wall column) | warm (one unmeasured warmup
  //                     run per strategy, then measure the repeat)
  wrapper::StormKind storm_kind = wrapper::StormKind::kNone;
  double deadline_s = 0.0;
  enum class CacheMode { kOff, kCold, kWarm };
  CacheMode cache_mode = CacheMode::kCold;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--storm=", 0) == 0) {
      if (!wrapper::ParseStormKind(arg.substr(8), &storm_kind)) {
        std::fprintf(stderr, "unknown --storm kind: %s\n", arg.c_str() + 8);
        return 2;
      }
    } else if (arg.rfind("--cache=", 0) == 0) {
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
    } else if (arg.rfind("--deadline=", 0) == 0) {
      char* end = nullptr;
      deadline_s = std::strtod(arg.c_str() + 11, &end);
      if (end == nullptr || *end != '\0' || arg.size() == 11 ||
          deadline_s < 0) {
        std::fprintf(stderr, "bad --deadline value: %s\n", arg.c_str());
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto options = bench::ParseOptions(static_cast<int>(rest.size()),
                                           rest.data(), /*default_scale=*/1.0);
  bench::RequireOneRepeat(options, argv[0]);
  bench::PrintPreamble(
      "Sharded mediator fleet (open-loop Poisson stream)",
      "Section 6 (multi-query execution: throughput vs response time)",
      options);
  if (storm_kind != wrapper::StormKind::kNone || deadline_s > 0) {
    std::printf("lifecycle: storm=%s deadline=%s\n\n",
                wrapper::StormKindName(storm_kind),
                deadline_s > 0 ? TablePrinter::Num(deadline_s).c_str()
                               : "none");
  }
  std::printf("cache: %s\n\n",
              cache_mode == CacheMode::kOff
                  ? "off"
                  : (cache_mode == CacheMode::kCold ? "cold" : "warm"));

  // Warm plan cache: three templates. t0 is the paper query at quarter
  // scale (the interactive mix); t1/t2 slow one relation 3x — the
  // Figure 6/7 perturbations — and run as batch analytics.
  const double qscale = 0.25 * options.scale;
  std::vector<plan::QuerySetup> templates;
  templates.push_back(plan::PaperFigure5Query(qscale));
  for (const char* slowed : {"A", "F"}) {
    plan::QuerySetup t = plan::PaperFigure5Query(qscale);
    const SourceId s = t.catalog.Find(slowed);
    if (s == kInvalidId) {
      std::fprintf(stderr, "unknown relation %s\n", slowed);
      return 2;
    }
    t.catalog.source(s).delay.mean_us *= 3.0;
    templates.push_back(std::move(t));
  }

  // Open-loop arrivals: exponential inter-arrival times over a skewed
  // mix — 60% interactive paper queries, 25% slow-A and 15% slow-F
  // batch variants. The stream is part of the workload definition, so
  // it draws from its own seeded generator.
  const int kQueries = 48;
  const double mean_interarrival_s = 0.05 * options.scale;
  Rng stream(options.seed ^ 0xF1EE7ULL);
  std::vector<core::FleetQuerySpec> workload;
  SimTime at = 0;
  for (int q = 0; q < kQueries; ++q) {
    at += Seconds(stream.Exponential(mean_interarrival_s));
    core::FleetQuerySpec spec;
    spec.arrival = at;
    const double mix = stream.NextDouble();
    spec.template_idx = mix < 0.60 ? 0 : (mix < 0.85 ? 1 : 2);
    spec.fairness = spec.template_idx == 0 ? core::FairnessClass::kInteractive
                                           : core::FairnessClass::kBatch;
    workload.push_back(spec);
  }

  core::FleetConfig config;
  config.seed = options.seed;
  config.num_shards = 8;
  // Tight enough that the stream contends for admission at every scale:
  // the estimates grow linearly with --scale, so the budget does too.
  config.memory_budget_bytes = std::max<int64_t>(
      1 << 20, static_cast<int64_t>(64.0 * 1024 * 1024 * options.scale));
  // Lifecycle: the storm's absolute times scale with the query durations
  // so the scenario hits the same phase of the stream at every --scale.
  auto scaled = [&](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) * options.scale);
  };
  if (deadline_s > 0) config.deadline_budget = scaled(Seconds(deadline_s));
  config.storm.kind = storm_kind;
  config.storm.onset = scaled(Seconds(0.3));
  config.storm.outage = scaled(Seconds(2.0));
  config.storm.wave_stall = scaled(Milliseconds(400));
  config.storm.propagation = scaled(Milliseconds(150));
  config.storm.flap_period = scaled(Milliseconds(300));
  config.breaker.cooldown = scaled(Seconds(1));
  config.breaker.max_cooldown = scaled(Seconds(30));
  config.retry_backoff_initial =
      std::max<SimDuration>(1, scaled(Milliseconds(50)));
  config.cache.enabled = cache_mode != CacheMode::kOff;

  Result<core::FleetExecutor> fleet = core::FleetExecutor::Create(
      std::move(templates), std::move(workload), config);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet setup: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> headers = {
      "per-query", "class",   "queries",  "makespan (s)", "throughput (q/s)",
      "p50 (s)",   "p95 (s)", "p99 (s)",  "statuses",     "queued",
      "forced",    "c-hits",  "c-miss",   "c-stale",      "c-evict"};
  if (options.walls) headers.push_back("wall (ms)");
  TablePrinter table(std::move(headers));

  for (core::StrategyKind kind :
       {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
    // Cold runs start from an empty cache every time; warm runs repeat
    // the identical stream once unmeasured so the measured run serves
    // hits (the mediator fleet answering a recurring template mix).
    if (cache_mode != CacheMode::kOff) fleet->ResetCache();
    if (cache_mode == CacheMode::kWarm) {
      Result<core::FleetMetrics> warmup = fleet->Execute(kind, options.jobs);
      if (!warmup.ok()) {
        std::fprintf(stderr, "%s warmup: %s\n", core::StrategyName(kind),
                     warmup.status().ToString().c_str());
        return 1;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    Result<core::FleetMetrics> r = fleet->Execute(kind, options.jobs);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", core::StrategyName(kind),
                   r.status().ToString().c_str());
      return 1;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    // Overall row plus one per fairness class; the class rows report
    // the latency split only (the makespan and broker counters are
    // fleet-wide quantities).
    struct ClassFilter {
      const char* name;
      bool all;
      core::FairnessClass cls;
    };
    const ClassFilter filters[] = {
        {"all", true, core::FairnessClass::kInteractive},
        {core::FairnessClassName(core::FairnessClass::kInteractive), false,
         core::FairnessClass::kInteractive},
        {core::FairnessClassName(core::FairnessClass::kBatch), false,
         core::FairnessClass::kBatch},
    };
    for (const ClassFilter& filter : filters) {
      // Percentiles summarize queries that produced an answer (ok or
      // partial); every other terminal status shows up in the statuses
      // column instead of polluting the latency distribution — the whole
      // point of the taxonomy is that a failed query is not a slow one.
      std::vector<SimDuration> latencies;
      std::array<int64_t, core::kNumQueryStatuses> counts{};
      int matched = 0;
      for (const core::FleetQueryOutcome& q : r->queries) {
        if (!filter.all && q.fairness != filter.cls) continue;
        ++matched;
        ++counts[static_cast<size_t>(q.status)];
        if (q.status == core::QueryStatus::kOk ||
            q.status == core::QueryStatus::kPartial) {
          latencies.push_back(q.completion_latency);
        }
      }
      const bench::LatencySummary lat = bench::SummarizeLatencies(latencies);
      const double makespan_s = ToSecondsF(r->makespan);
      std::vector<std::string> row = {
          core::StrategyName(kind),
          filter.name,
          std::to_string(matched),
          filter.all ? TablePrinter::Num(makespan_s) : "",
          filter.all && makespan_s > 0
              ? TablePrinter::Num(static_cast<double>(latencies.size()) /
                                  makespan_s)
              : "",
          TablePrinter::Num(lat.p50_s),
          TablePrinter::Num(lat.p95_s),
          TablePrinter::Num(lat.p99_s),
          bench::FormatStatusCounts(counts),
          filter.all ? std::to_string(r->broker.queued_admissions) : "",
          filter.all ? std::to_string(r->broker.forced_admissions) : "",
          filter.all ? std::to_string(r->cache.segment_hits +
                                      r->cache.result_hits)
                     : "",
          filter.all ? std::to_string(r->cache.segment_misses +
                                      r->cache.result_misses)
                     : "",
          filter.all ? std::to_string(r->cache.stale_invalidations) : "",
          filter.all ? std::to_string(r->cache.evictions) : ""};
      if (options.walls) {
        row.push_back(filter.all ? TablePrinter::Num(wall_ms) : "");
      }
      table.AddRow(std::move(row));
    }
  }
  if (options.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }
  std::printf(
      "\nExpected shape: interactive queries see lower tail latency than\n"
      "batch (the broker admits them first). Under a tight admission\n"
      "budget, sharing itself absorbs source stalls, so DSE's\n"
      "materializations can cost more than they save (the paper's\n"
      "throughput-vs-response tradeoff). Virtual columns are\n"
      "byte-identical for every --jobs value; only wall time varies.\n");
  return 0;
}

// Runs the full paper-artifact grid (Figs 6-8, the Section 5.2 position
// sweep, the delay/scrambling/DPHJ comparisons, the ablations and the
// multi-query outlook) as one flat set of independent cells on the
// work-stealing parallel runner, and writes BENCH_suite.json — per-cell
// wall-clock and simulated seconds — so the perf trajectory of the engine
// is tracked across PRs. Simulated results are byte-identical for every
// --jobs value; only the wall-clock changes.
//
//   bench_suite [--scale=F] [--repeats=N] [--seed=N] [--jobs=N]
//               [--out=PATH] [--cache=off|cold]
//
// Each experiment keeps the default scale of its standalone binary;
// --scale multiplies all of them (e.g. --scale=0.05 is the tier-1 smoke
// grid).
//
// --cache picks the result-cache mode for the multi-query and fleet
// cells (single-query cells use per-run caches and are inherently
// cold). "cold" (the default) enables the cache on fresh executors, so
// every tracked cell is byte-identical to "off" on all non-wall fields
// — the CI perf-smoke step diffs exactly that. Cold mode additionally
// runs two warm-cache cells (experiment "cache_warm", a repeated
// multi-query mix and a repeated fleet stream) that are skipped under
// --cache=off; diff tooling must exclude that experiment.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/fleet_executor.h"
#include "core/multi_query.h"
#include "common/parallel_runner.h"

namespace dqsched::bench {
namespace {

struct SuiteCell {
  std::string experiment;
  std::string label;
  std::function<StrategyOutcome()> run;
};

struct SuiteResult {
  StrategyOutcome outcome;
  double wall_seconds = 0.0;
};

const char* KindLabel(core::StrategyKind kind) {
  return core::StrategyName(kind);
}

/// The multi-query cells' mix: n copies of the Figure 5 query.
std::vector<plan::QuerySetup> PaperMix(int n, double scale) {
  std::vector<plan::QuerySetup> mix;
  for (int i = 0; i < n; ++i) mix.push_back(plan::PaperFigure5Query(scale));
  return mix;
}

/// The fleet cells' workload: two Figure 5 templates, the second with a
/// 3x slower A, and an n-query Poisson stream, 60% interactive on the
/// first.
struct FleetStream {
  std::vector<plan::QuerySetup> templates;
  std::vector<core::FleetQuerySpec> workload;
};

FleetStream TwoTemplateStream(double scale, int n, uint64_t seed) {
  FleetStream out;
  out.templates.push_back(plan::PaperFigure5Query(0.25 * scale));
  plan::QuerySetup slow = plan::PaperFigure5Query(0.25 * scale);
  slow.catalog.source(slow.catalog.Find("A")).delay.mean_us *= 3.0;
  out.templates.push_back(std::move(slow));
  Rng stream(seed ^ 0xF1EE7ULL);
  SimTime at = 0;
  for (int i = 0; i < n; ++i) {
    at += Seconds(stream.Exponential(0.05 * scale));
    core::FleetQuerySpec spec;
    spec.arrival = at;
    const bool interactive = stream.NextDouble() < 0.6;
    spec.template_idx = interactive ? 0 : 1;
    spec.fairness = interactive ? core::FairnessClass::kInteractive
                                : core::FairnessClass::kBatch;
    out.workload.push_back(spec);
  }
  return out;
}

/// Runs one fleet cell on one host thread; the tracked seconds is the
/// makespan.
StrategyOutcome RunFleetCell(FleetStream in, const core::FleetConfig& config,
                             core::StrategyKind kind) {
  StrategyOutcome outcome;
  auto fleet = core::FleetExecutor::Create(std::move(in.templates),
                                           std::move(in.workload), config);
  if (!fleet.ok()) {
    outcome.error = fleet.status().ToString();
    return outcome;
  }
  auto r = fleet->Execute(kind, /*jobs=*/1);
  if (!r.ok()) {
    outcome.error = r.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.seconds = ToSecondsF(r->makespan);
  return outcome;
}

void AddStrategyCells(std::vector<SuiteCell>* cells,
                      const std::string& experiment,
                      const std::string& label,
                      const plan::QuerySetup& setup,
                      const core::MediatorConfig& config,
                      std::initializer_list<core::StrategyKind> kinds,
                      int repeats) {
  for (core::StrategyKind kind : kinds) {
    cells->push_back(
        {experiment, label + "/" + KindLabel(kind),
         [setup, config, kind, repeats] {
           return MeasureStrategy(setup, config, kind, repeats);
         }});
  }
}

/// Figures 6 and 7: one slowed-down relation, retrieval-time sweep.
void AddSlowRelationSweep(std::vector<SuiteCell>* cells,
                          const std::string& experiment,
                          const char* relation, double scale,
                          const core::MediatorConfig& config, int repeats) {
  plan::QuerySetup base = plan::PaperFigure5Query(scale);
  const SourceId slowed = base.catalog.Find(relation);
  const int64_t n = base.catalog.source(slowed).relation.cardinality;
  const double base_total_s =
      static_cast<double>(n) * base.catalog.source(slowed).delay.mean_us /
      1e6;
  std::vector<double> targets_s = {base_total_s};
  for (double t = 2.0; t <= 10.01; t += 2.0) {
    const double scaled = t * scale;
    if (scaled > base_total_s * 1.01) targets_s.push_back(scaled);
  }
  for (double target : targets_s) {
    plan::QuerySetup setup = base;
    setup.catalog.source(slowed).delay.mean_us =
        target * 1e6 / static_cast<double>(n);
    char label[64];
    std::snprintf(label, sizeof(label), "retrieval=%.2fs", target);
    AddStrategyCells(cells, experiment, label, setup, config,
                     {core::StrategyKind::kSeq, core::StrategyKind::kDse,
                      core::StrategyKind::kMa},
                     repeats);
  }
}

std::vector<SuiteCell> BuildSuite(const BenchOptions& options,
                                  bool cache_enabled) {
  std::vector<SuiteCell> cells;
  const core::MediatorConfig config = DefaultConfig(options);
  const int repeats = options.repeats;

  // Figures 6 and 7 (scale x1).
  AddSlowRelationSweep(&cells, "fig6_slow_a", "A", options.scale, config,
                       repeats);
  AddSlowRelationSweep(&cells, "fig7_slow_f", "F", options.scale, config,
                       repeats);

  // Figure 8: w_min sweep over every wrapper (scale x1).
  for (double w : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0,
                   60.0, 80.0, 100.0, 120.0}) {
    plan::QuerySetup setup = plan::PaperFigure5Query(options.scale, w);
    char label[32];
    std::snprintf(label, sizeof(label), "w_min=%.0fus", w);
    AddStrategyCells(&cells, "fig8_wmin_sweep", label, setup, config,
                     {core::StrategyKind::kSeq, core::StrategyKind::kDse},
                     repeats);
  }

  // Section 5.2 text: slow each relation in turn (scale x1).
  for (const char* name : {"A", "B", "C", "D", "E", "F"}) {
    plan::QuerySetup setup = plan::PaperFigure5Query(options.scale);
    setup.catalog.source(setup.catalog.Find(name)).delay.mean_us *= 5.0;
    AddStrategyCells(&cells, "slow_each_relation",
                     std::string("slowed=") + name, setup, config,
                     {core::StrategyKind::kSeq, core::StrategyKind::kDse,
                      core::StrategyKind::kMa},
                     repeats);
  }

  // Delay-type comparison (binary default scale 0.5).
  {
    const double scale = 0.5 * options.scale;
    struct Case {
      const char* label;
      wrapper::DelayConfig delay;
    };
    std::vector<Case> cases;
    cases.push_back({"baseline", {}});
    {
      Case c{"initial", {}};
      c.delay.kind = wrapper::DelayKind::kInitial;
      c.delay.initial_delay_ms = 2000.0 * scale;
      cases.push_back(c);
    }
    {
      Case c{"bursty", {}};
      c.delay.kind = wrapper::DelayKind::kBursty;
      c.delay.burst_length = 2000;
      c.delay.burst_gap_ms = 100.0;
      cases.push_back(c);
    }
    {
      Case c{"slow", {}};
      c.delay.kind = wrapper::DelayKind::kSlow;
      c.delay.slow_factor = 4.0;
      cases.push_back(c);
    }
    for (const Case& c : cases) {
      plan::QuerySetup setup = plan::PaperFigure5Query(scale);
      setup.catalog.sources[0].delay = c.delay;
      AddStrategyCells(&cells, "delay_types", c.label, setup, config,
                       {core::StrategyKind::kSeq, core::StrategyKind::kDse,
                        core::StrategyKind::kMa},
                       repeats);
    }
  }

  // Ablations (binary default scale 0.5).
  {
    const double scale = 0.5 * options.scale;
    plan::QuerySetup slowed_a = plan::PaperFigure5Query(scale);
    slowed_a.catalog.sources[0].delay.mean_us *= 3.0;
    for (int64_t batch : {16, 64, 128, 512, 2048, 8192}) {
      core::MediatorConfig c = config;
      c.strategy.dqp.batch_size = batch;
      AddStrategyCells(&cells, "ablation_batch",
                       "batch=" + std::to_string(batch), slowed_a, c,
                       {core::StrategyKind::kDse}, repeats);
    }
    for (double bmt : {0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 1e9}) {
      core::MediatorConfig c = config;
      c.strategy.dqs.bmt = bmt;
      char label[32];
      std::snprintf(label, sizeof(label), "bmt=%g", bmt);
      AddStrategyCells(&cells, "ablation_bmt", label, slowed_a, c,
                       {core::StrategyKind::kDse}, repeats);
    }
    plan::QuerySetup plain = plan::PaperFigure5Query(scale);
    for (int64_t capacity : {64, 256, 1024, 4096, 16384}) {
      core::MediatorConfig c = config;
      c.comm.queue_capacity = capacity;
      AddStrategyCells(&cells, "ablation_queue",
                       "capacity=" + std::to_string(capacity), plain, c,
                       {core::StrategyKind::kSeq, core::StrategyKind::kDse},
                       repeats);
    }
  }

  // Memory-limitation sweep (binary default scale 0.3). Infeasible budgets
  // report FAIL cells by design; they are still tracked.
  {
    plan::QuerySetup setup = plan::PaperFigure5Query(0.3 * options.scale);
    for (double mb : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0}) {
      core::MediatorConfig c = config;
      c.memory_budget_bytes = static_cast<int64_t>(mb * 1024 * 1024);
      char label[32];
      std::snprintf(label, sizeof(label), "memory=%.0fMB", mb);
      AddStrategyCells(&cells, "memory_limit", label, setup, c,
                       {core::StrategyKind::kDse}, repeats);
    }
  }

  // Scrambling comparison + timeout sensitivity (scale 0.3).
  {
    const double scale = 0.3 * options.scale;
    struct Case {
      const char* label;
      wrapper::DelayConfig delay;
    };
    std::vector<Case> cases;
    {
      Case c{"initial", {}};
      c.delay.kind = wrapper::DelayKind::kInitial;
      c.delay.initial_delay_ms = 2000.0;
      cases.push_back(c);
    }
    {
      Case c{"bursty", {}};
      c.delay.kind = wrapper::DelayKind::kBursty;
      c.delay.burst_length = 1000;
      c.delay.burst_gap_ms = 200.0;
      cases.push_back(c);
    }
    {
      Case c{"slow", {}};
      c.delay.kind = wrapper::DelayKind::kSlow;
      c.delay.slow_factor = 6.0;
      cases.push_back(c);
    }
    for (const Case& c : cases) {
      plan::QuerySetup setup = plan::PaperFigure5Query(scale);
      setup.catalog.sources[0].delay = c.delay;
      AddStrategyCells(&cells, "scrambling", c.label, setup, config,
                       {core::StrategyKind::kSeq, core::StrategyKind::kDse},
                       repeats);
      cells.push_back({"scrambling", std::string(c.label) + "/SCR",
                       [setup, config, repeats] {
                         return MeasureScrambling(setup, config,
                                                  Milliseconds(20), repeats);
                       }});
    }
    plan::QuerySetup bursty = plan::PaperFigure5Query(scale);
    bursty.catalog.sources[0].delay.kind = wrapper::DelayKind::kBursty;
    bursty.catalog.sources[0].delay.burst_length = 500;
    bursty.catalog.sources[0].delay.burst_gap_ms = 120.0;
    for (double ms : {1.0, 5.0, 20.0, 60.0, 150.0, 1000.0}) {
      char label[40];
      std::snprintf(label, sizeof(label), "timeout=%.0fms/SCR", ms);
      cells.push_back({"scrambling_timeout", label,
                       [bursty, config, ms, repeats] {
                         return MeasureScrambling(bursty, config,
                                                  Milliseconds(ms), repeats);
                       }});
    }
  }

  // Operator-level vs scheduling-level adaptation (scale 0.3).
  {
    const double scale = 0.3 * options.scale;
    struct Case {
      const char* label;
      wrapper::DelayKind kind;
      double param;
    };
    const Case cases[] = {
        {"baseline", wrapper::DelayKind::kUniform, 0},
        {"initial", wrapper::DelayKind::kInitial, 2000.0},
        {"bursty", wrapper::DelayKind::kBursty, 50.0},
        {"slow", wrapper::DelayKind::kSlow, 4.0},
    };
    for (const Case& c : cases) {
      plan::QuerySetup setup = plan::PaperFigure5Query(scale);
      wrapper::DelayConfig& delay = setup.catalog.sources[0].delay;
      delay.kind = c.kind;
      delay.initial_delay_ms = c.param;
      delay.burst_length = 1000;
      delay.burst_gap_ms = c.param;
      delay.slow_factor = c.kind == wrapper::DelayKind::kSlow ? c.param : 1.0;
      AddStrategyCells(&cells, "operator_vs_scheduling", c.label, setup,
                       config,
                       {core::StrategyKind::kSeq, core::StrategyKind::kDse},
                       repeats);
      cells.push_back({"operator_vs_scheduling",
                       std::string(c.label) + "/DPHJ",
                       [setup, config, repeats] {
                         return MeasureDphj(setup, config, repeats);
                       }});
    }
  }

  // Multi-query outlook (binary default scale 0.1); the makespan is the
  // tracked "simulated seconds". Small mixes cover both interleavings;
  // the larger ones are shared-only, guarding the scheduler's large-mix
  // event loop (done-query skipping, arrival heap, incremental replans).
  {
    const double scale = 0.1 * options.scale;
    struct MixAxis {
      int n;
      core::MultiMode mode;
    };
    std::vector<MixAxis> axes;
    for (int n : {2, 4}) {
      axes.push_back({n, core::MultiMode::kSerial});
      axes.push_back({n, core::MultiMode::kShared});
    }
    for (int n : {8, 16}) {
      axes.push_back({n, core::MultiMode::kShared});
    }
    for (const MixAxis& axis : axes) {
      const int n = axis.n;
      const core::MultiMode mode = axis.mode;
      for (core::StrategyKind kind :
             {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
          const std::string label = "n=" + std::to_string(n) + "/" +
                                    core::MultiModeName(mode) + "/" +
                                    KindLabel(kind);
          const uint64_t seed = options.seed;
          cells.push_back({"multi_query", label,
                           [scale, n, mode, kind, seed, cache_enabled] {
                             StrategyOutcome outcome;
                             core::MultiQueryConfig mq;
                             mq.seed = seed;
                             mq.cache.enabled = cache_enabled;
                             auto mediator = core::MultiQueryMediator::Create(
                                 PaperMix(n, scale), mq);
                             if (!mediator.ok()) {
                               outcome.error =
                                   mediator.status().ToString();
                               return outcome;
                             }
                             auto r = mediator->Execute(kind, mode);
                             if (!r.ok()) {
                               outcome.error = r.status().ToString();
                               return outcome;
                             }
                             outcome.ok = true;
                             outcome.seconds = ToSecondsF(r->makespan);
                             return outcome;
                           }});
      }
    }
  }

  // Sharded fleet (bench_fleet's open-loop stream at reduced scale); the
  // tracked "simulated seconds" is the fleet makespan. Each cell runs its
  // fleet on one host thread — the suite's own runner provides the
  // cross-cell parallelism, and fleet results are jobs-invariant anyway.
  {
    const double scale = 0.1 * options.scale;
    struct FleetAxis {
      int shards;
      int n;
    };
    for (const FleetAxis axis : {FleetAxis{4, 12}, FleetAxis{8, 24}}) {
      for (core::StrategyKind kind :
           {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
        const std::string label = "shards=" + std::to_string(axis.shards) +
                                  "/n=" + std::to_string(axis.n) + "/" +
                                  KindLabel(kind);
        const uint64_t seed = options.seed;
        cells.push_back({"fleet", label,
                         [scale, axis, kind, seed, cache_enabled] {
                           core::FleetConfig fc;
                           fc.seed = seed;
                           fc.num_shards = axis.shards;
                           fc.cache.enabled = cache_enabled;
                           return RunFleetCell(
                               TwoTemplateStream(scale, axis.n, seed), fc,
                               kind);
                         }});
      }
    }
  }

  // Lifecycle storm cells (DESIGN.md §13): the small fleet axis under a
  // correlated fault storm with deadlines armed. The tracked seconds is
  // still the makespan — its value now folds in deadline kills, retries
  // and breaker degradation, all byte-identical across --jobs like every
  // other fleet quantity.
  {
    const double scale = 0.1 * options.scale;
    struct StormCell {
      wrapper::StormKind storm;
      core::StrategyKind kind;
      const char* label;
    };
    for (const StormCell sc :
         {StormCell{wrapper::StormKind::kRegionOutage, core::StrategyKind::kDse,
                    "region-outage/DSE"},
          StormCell{wrapper::StormKind::kCascadingSlowdown,
                    core::StrategyKind::kSeq, "cascade/SEQ"}}) {
      const uint64_t seed = options.seed;
      cells.push_back({"storm", sc.label, [scale, sc, seed, cache_enabled] {
                         core::FleetConfig fc;
                         fc.seed = seed;
                         fc.num_shards = 4;
                         auto scaled = [scale](SimDuration d) {
                           return static_cast<SimDuration>(
                               static_cast<double>(d) * scale);
                         };
                         fc.deadline_budget = scaled(Seconds(40));
                         fc.storm.kind = sc.storm;
                         fc.storm.onset = scaled(Seconds(0.3));
                         fc.storm.outage = scaled(Seconds(2.0));
                         fc.storm.wave_stall = scaled(Milliseconds(400));
                         fc.storm.propagation = scaled(Milliseconds(150));
                         fc.storm.flap_period = scaled(Milliseconds(300));
                         fc.breaker.cooldown = scaled(Seconds(1));
                         fc.breaker.max_cooldown = scaled(Seconds(30));
                         fc.retry_backoff_initial =
                             std::max<SimDuration>(1, scaled(Milliseconds(50)));
                         fc.cache.enabled = cache_enabled;
                         return RunFleetCell(TwoTemplateStream(scale, 12, seed),
                                             fc, sc.kind);
                       }});
    }
  }

  // Warm-cache cells (DESIGN.md §14): the same executor runs its workload
  // twice and the tracked seconds is the SECOND run's makespan — the
  // repeated-template regime the result cache targets. Only present with
  // the cache on (there is no meaningful "warm" off-cache cell), so the
  // off-vs-cold diff in CI excludes the "cache_warm" experiment.
  if (cache_enabled) {
    const double scale = 0.1 * options.scale;
    const uint64_t seed = options.seed;
    cells.push_back(
        {"cache_warm", "multi/n=4/shared/DSE/warm", [scale, seed] {
           StrategyOutcome outcome;
           core::MultiQueryConfig mq;
           mq.seed = seed;
           mq.cache.enabled = true;
           auto mediator =
               core::MultiQueryMediator::Create(PaperMix(4, scale), mq);
           if (!mediator.ok()) {
             outcome.error = mediator.status().ToString();
             return outcome;
           }
           auto cold = mediator->Execute(core::StrategyKind::kDse,
                                         core::MultiMode::kShared);
           if (!cold.ok()) {
             outcome.error = cold.status().ToString();
             return outcome;
           }
           auto warm = mediator->Execute(core::StrategyKind::kDse,
                                         core::MultiMode::kShared);
           if (!warm.ok()) {
             outcome.error = warm.status().ToString();
             return outcome;
           }
           if (warm->cache.result_hits + warm->cache.segment_hits == 0) {
             outcome.error = "warm multi-query run served no cache hits";
             return outcome;
           }
           outcome.ok = true;
           outcome.seconds = ToSecondsF(warm->makespan);
           return outcome;
         }});
    cells.push_back({"cache_warm", "fleet/shards=4/n=12/DSE/warm",
                     [scale, seed] {
                       StrategyOutcome outcome;
                       FleetStream in = TwoTemplateStream(scale, 12, seed);
                       core::FleetConfig fc;
                       fc.seed = seed;
                       fc.num_shards = 4;
                       fc.cache.enabled = true;
                       auto fleet = core::FleetExecutor::Create(
                           std::move(in.templates), std::move(in.workload),
                           fc);
                       if (!fleet.ok()) {
                         outcome.error = fleet.status().ToString();
                         return outcome;
                       }
                       auto cold = fleet->Execute(core::StrategyKind::kDse,
                                                  /*jobs=*/1);
                       if (!cold.ok()) {
                         outcome.error = cold.status().ToString();
                         return outcome;
                       }
                       auto warm = fleet->Execute(core::StrategyKind::kDse,
                                                  /*jobs=*/1);
                       if (!warm.ok()) {
                         outcome.error = warm.status().ToString();
                         return outcome;
                       }
                       if (warm->cache.result_hits +
                               warm->cache.segment_hits == 0) {
                         outcome.error = "warm fleet run served no cache hits";
                         return outcome;
                       }
                       outcome.ok = true;
                       outcome.seconds = ToSecondsF(warm->makespan);
                       return outcome;
                     }});
  }

  return cells;
}

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
  // Split off --out= and --cache=; everything else is standard options.
  std::string out_path = "BENCH_suite.json";
  bool cache_enabled = true;  // "cold" — identical to off on every cell
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--cache=off") == 0) {
      cache_enabled = false;
    } else if (std::strcmp(argv[i], "--cache=cold") == 0) {
      cache_enabled = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  std::string error;
  std::optional<BenchOptions> parsed = TryParseOptions(
      static_cast<int>(rest.size()), rest.data(), 1.0, &error);
  if (!parsed) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--scale=F] [--repeats=N] [--seed=N] "
                 "[--jobs=N] [--out=PATH] [--cache=off|cold]\n",
                 error.c_str(), argv[0]);
    return 2;
  }
  const BenchOptions options = *parsed;
  const ParallelRunner runner(options.jobs);

  // Open the output up front: a bad --out path must not cost a full run.
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::vector<SuiteCell> cells = BuildSuite(options, cache_enabled);
  std::printf("bench_suite: %zu cells, scale=%.3g, jobs=%d, cache=%s\n",
              cells.size(), options.scale, runner.jobs(),
              cache_enabled ? "cold" : "off");

  const auto suite_start = std::chrono::steady_clock::now();
  const std::vector<SuiteResult> results = RunIndexed<SuiteResult>(
      runner, cells.size(), [&cells](size_t i) {
        const auto start = std::chrono::steady_clock::now();
        SuiteResult r;
        r.outcome = cells[i].run();
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
  std::fprintf(out, "  \"cache\": \"%s\",\n", cache_enabled ? "cold" : "off");
  std::fprintf(out, "  \"cell_count\": %zu,\n", results.size());
  std::fprintf(out, "  \"failed_cells\": %zu,\n", failed);
  std::fprintf(out, "  \"simulated_seconds_total\": %.9g,\n",
               simulated_total);
  std::fprintf(out, "  \"wall_seconds_total\": %.6f,\n", total_wall);
  std::fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SuiteCell& cell = cells[i];
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
      "bench_suite: %zu cells (%zu expected-infeasible FAILs), "
      "%.1f simulated s, %.2f wall s -> %s\n",
      results.size(), failed, simulated_total, total_wall,
      out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace dqsched::bench

int main(int argc, char** argv) { return dqsched::bench::Main(argc, argv); }

#include "experiments.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/random.h"

namespace dqsched::bench {
namespace {

using core::StrategyKind;

SingleRun Run(StrategyKind kind) {
  return [kind](const core::Mediator& m) { return m.Execute(kind); };
}

SingleRun Scrambling(SimDuration timeout) {
  return [timeout](const core::Mediator& m) {
    return m.ExecuteScrambling(timeout);
  };
}

/// A single-query cell keyed "<key>/<arm>".
Cell SingleCell(const char* experiment, const std::string& key,
                const std::string& arm, const plan::QuerySetup& setup,
                const core::MediatorConfig& config, int repeats,
                SingleRun run) {
  return {experiment, key + "/" + arm, [setup, config, repeats, run] {
            return Measure(setup, config, repeats, run);
          }};
}

/// One cell per strategy of `kinds` on `setup`, then its LWB cell when
/// `lwb` is set.
void AddStrategies(std::vector<Cell>* cells, const char* experiment,
                   const std::string& key, const plan::QuerySetup& setup,
                   const core::MediatorConfig& config, int repeats,
                   std::initializer_list<StrategyKind> kinds,
                   bool lwb = false) {
  for (StrategyKind kind : kinds) {
    cells->push_back(SingleCell(experiment, key, core::StrategyName(kind),
                                setup, config, repeats, Run(kind)));
  }
  if (lwb) {
    cells->push_back({experiment, key + "/LWB", [setup, config] {
                        return LowerBound(setup, config);
                      }});
  }
}

/// The source of the Figure 5 query named `relation`.
wrapper::SourceSpec& SourceOf(plan::QuerySetup& setup, const char* relation) {
  const SourceId id = setup.catalog.Find(relation);
  if (id == kInvalidId) {
    std::fprintf(stderr, "unknown relation %s\n", relation);
    std::exit(2);
  }
  return setup.catalog.source(id);
}

std::string Format(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// ---------------------------------------------------------------------
// Figures 6 and 7: slow down `relation` of the paper's query so that its
// total retrieval time sweeps from the w_min baseline up to ~10 s
// (scaled), and compare SEQ / DSE / MA / LWB at every point.

Grid SlowOneRelation(const char* experiment, const char* relation,
                     const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  plan::QuerySetup base = plan::PaperFigure5Query(options.scale);
  const wrapper::SourceSpec& slowed = SourceOf(base, relation);
  const int64_t n = slowed.relation.cardinality;
  const double base_total_s =
      static_cast<double>(n) * slowed.delay.mean_us / 1e6;

  // X axis: total time to retrieve the slowed relation (paper's axis),
  // from the unslowed baseline up to ~10 s at scale 1.
  std::vector<double> targets_s = {base_total_s};
  for (double t = 2.0; t <= 10.01; t += 2.0) {
    const double scaled = t * options.scale;
    if (scaled > base_total_s * 1.01) targets_s.push_back(scaled);
  }

  Grid grid;
  std::vector<double> w_values;
  for (double target : targets_s) {
    plan::QuerySetup setup = base;
    const double w_us = target * 1e6 / static_cast<double>(n);
    SourceOf(setup, relation).delay.mean_us = w_us;
    w_values.push_back(w_us);
    AddStrategies(&grid.cells, experiment, Format("retrieval=%.2fs", target),
                  setup, config, options.repeats,
                  {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa},
                  /*lwb=*/true);
  }
  grid.print = [options, relation, targets_s,
                w_values](const std::vector<Outcome>& results) {
    TablePrinter table({"retrieval of " + std::string(relation) + " (s)",
                        "w (us)", "SEQ (s)", "DSE (s)", "MA (s)", "LWB (s)",
                        "DSE gain over SEQ (%)"});
    for (size_t i = 0; i < targets_s.size(); ++i) {
      const Outcome& seq = results[4 * i];
      const Outcome& dse = results[4 * i + 1];
      table.AddRow({TablePrinter::Num(targets_s[i], 2),
                    TablePrinter::Num(w_values[i], 1), SecondsCell(seq),
                    SecondsCell(dse), SecondsCell(results[4 * i + 2]),
                    SecondsCell(results[4 * i + 3]), GainCell(seq, dse)});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape (paper Section 5.2): SEQ grows linearly with the\n"
        "slowdown; MA is roughly flat and worst until SEQ crosses it; DSE\n"
        "stays well below SEQ and tracks LWB.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Figure 8: performance gain of DSE over SEQ as a function of w_min — the
// mean inter-tuple delay applied to EVERY wrapper simultaneously (Section
// 5.3). Low w_min models fast networks (little to gain), high w_min slow
// networks (gain approaches the paper's ~70%). The paper's 100 Mb/s
// operating point (~20 us) is marked.

Grid WminSweep(const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  const std::vector<double> w_values_us = {5,  10, 15, 20, 25,  30, 35,
                                           40, 50, 60, 80, 100, 120};
  Grid grid;
  for (double w : w_values_us) {
    AddStrategies(&grid.cells, "fig8_wmin_sweep", Format("w_min=%.0fus", w),
                  plan::PaperFigure5Query(options.scale, w), config,
                  options.repeats, {StrategyKind::kSeq, StrategyKind::kDse},
                  /*lwb=*/true);
  }
  grid.print = [options, w_values_us](const std::vector<Outcome>& results) {
    TablePrinter table({"w_min (us)", "SEQ (s)", "DSE (s)", "LWB (s)",
                        "DSE gain (%)", ""});
    for (size_t i = 0; i < w_values_us.size(); ++i) {
      const double w = w_values_us[i];
      const Outcome& seq = results[3 * i];
      const Outcome& dse = results[3 * i + 1];
      table.AddRow({TablePrinter::Num(w, 0), SecondsCell(seq), SecondsCell(dse),
                    SecondsCell(results[3 * i + 2]), GainCell(seq, dse),
                    w == 20 ? "<- 100 Mb/s network (paper's w_min)" : ""});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape (paper Section 5.3): the gain rises with w_min\n"
        "toward ~60-70%%; it shrinks toward zero on very fast networks where\n"
        "chains stop being critical. Occasional non-monotonic dips reflect\n"
        "the heuristic scheduler (the paper saw one at ~35 us).\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// The sweep described in paper Section 5.2's text: "We perform this
// experiment slowing down successively each input relation of the QEP to
// observe the influence of the position of the slowed-down relation".
// Each relation in turn is slowed 5x while the others stay at w_min.

/// How many chains the chain reading `source` gates, transitively.
int ChainsBlockedBy(const plan::QuerySetup& setup, SourceId source) {
  auto compiled = plan::Compile(setup.plan, setup.catalog);
  if (!compiled.ok()) return 0;
  ChainId slowed_chain = kInvalidId;
  for (const auto& chain : compiled->chains) {
    if (chain.source == source) slowed_chain = chain.id;
  }
  int dependents = 0;
  for (const auto& chain : compiled->chains) {
    for (ChainId a : compiled->AncestorsOf(chain.id)) {
      if (a == slowed_chain) ++dependents;
    }
  }
  return dependents;
}

Grid SlowEachRelation(const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  const std::vector<const char*> names = {"A", "B", "C", "D", "E", "F"};
  Grid grid;
  std::vector<plan::QuerySetup> setups;
  for (const char* name : names) {
    plan::QuerySetup setup = plan::PaperFigure5Query(options.scale);
    SourceOf(setup, name).delay.mean_us *= 5.0;
    AddStrategies(&grid.cells, "slow_each_relation",
                  std::string("slowed=") + name, setup, config,
                  options.repeats,
                  {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa},
                  /*lwb=*/true);
    setups.push_back(std::move(setup));
  }
  grid.print = [options, names, setups](const std::vector<Outcome>& results) {
    TablePrinter table({"slowed", "cardinality", "blocks (transitively)",
                        "SEQ (s)", "DSE (s)", "MA (s)", "LWB (s)",
                        "DSE gain (%)"});
    for (size_t i = 0; i < setups.size(); ++i) {
      const SourceId slowed = setups[i].catalog.Find(names[i]);
      const Outcome& seq = results[4 * i];
      const Outcome& dse = results[4 * i + 1];
      table.AddRow(
          {names[i],
           std::to_string(
               setups[i].catalog.source(slowed).relation.cardinality),
           std::to_string(ChainsBlockedBy(setups[i], slowed)),
           SecondsCell(seq), SecondsCell(dse), SecondsCell(results[4 * i + 2]),
           SecondsCell(results[4 * i + 3]), GainCell(seq, dse)});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: the gain is larger when the slowed relation gates\n"
        "less downstream work (C blocks nothing; A gates half the plan).\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// The claim of paper Sections 1.3 and 6: DSE "applies to any kind of
// delay (initial delay, bursty arrival and slow delivery)" — the three
// delay classes of [2] — whereas scrambling-style reactions target only
// specific ones. Relation A receives each delay shape in turn.

/// A delay shape for relation A: its suite key and its table row label.
struct DelayCase {
  const char* key;
  const char* label;
  wrapper::DelayConfig delay;
};

/// The three delay classes of [2], at w_min = 20 us between tuples.
wrapper::DelayConfig InitialDelay(double ms) {
  wrapper::DelayConfig delay;
  delay.kind = wrapper::DelayKind::kInitial;
  delay.initial_delay_ms = ms;
  return delay;
}

wrapper::DelayConfig BurstyDelay(int64_t burst_length, double gap_ms) {
  wrapper::DelayConfig delay;
  delay.kind = wrapper::DelayKind::kBursty;
  delay.burst_length = burst_length;
  delay.burst_gap_ms = gap_ms;
  return delay;
}

wrapper::DelayConfig SlowDelay(double factor) {
  wrapper::DelayConfig delay;
  delay.kind = wrapper::DelayKind::kSlow;
  delay.slow_factor = factor;
  return delay;
}

/// Figure 5 at `scale` with `delay` on relation A.
plan::QuerySetup DelayedAQuery(double scale,
                               const wrapper::DelayConfig& delay) {
  plan::QuerySetup setup = plan::PaperFigure5Query(scale);
  setup.catalog.sources[0].delay = delay;
  return setup;
}

Grid DelayTypes(const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  const std::vector<DelayCase> cases = {
      {"baseline", "baseline (uniform w_min)", {}},
      {"initial", "initial delay (+2 s first tuple)",
       InitialDelay(2000.0 * options.scale)},
      {"bursty", "bursty (2000-tuple bursts, 100 ms gaps)",
       BurstyDelay(2000, 100.0)},
      {"slow", "slow delivery (4x w_min)", SlowDelay(4.0)},
  };
  Grid grid;
  for (const DelayCase& c : cases) {
    const plan::QuerySetup setup = DelayedAQuery(options.scale, c.delay);
    AddStrategies(&grid.cells, "delay_types", c.key, setup, config,
                  options.repeats,
                  {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa},
                  /*lwb=*/true);
  }
  grid.print = [options, cases](const std::vector<Outcome>& results) {
    TablePrinter table({"delay type of A", "SEQ (s)", "DSE (s)", "MA (s)",
                        "LWB (s)", "DSE gain (%)"});
    for (size_t i = 0; i < cases.size(); ++i) {
      const Outcome& seq = results[4 * i];
      const Outcome& dse = results[4 * i + 1];
      table.AddRow({cases[i].label, SecondsCell(seq), SecondsCell(dse),
                    SecondsCell(results[4 * i + 2]),
                    SecondsCell(results[4 * i + 3]), GainCell(seq, dse)});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: DSE improves on SEQ under every delay type —\n"
        "including slow delivery, which timeout-based scrambling cannot\n"
        "address (paper Section 5.4).\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Ablation: the DQP's batch size (paper Section 3.2: batches amortize
// fragment-switch overheads; footnote 1 notes the size can vary). In the
// simulator switching is free, so the visible effect is scheduling
// granularity: how promptly the processor returns to the highest-priority
// fragment and how well queues are kept drained.
//
// The scalar-kernel arm ablates the operator kernels themselves: the same
// DSE run with the vectorized (selection-vector) kernels and with the
// scalar tuple-at-a-time kernels. Simulated seconds are byte-identical by
// the determinism contract (DESIGN §10); only host wall time (--walls)
// separates them, and more so as batches grow.

/// Figure 5 at `scale` with relation A slowed 3x, which gives DSE work to
/// overlap (the batch and bmt ablations).
plan::QuerySetup SlowedAQuery(double scale) {
  plan::QuerySetup setup = plan::PaperFigure5Query(scale);
  setup.catalog.sources[0].delay.mean_us *= 3.0;
  return setup;
}

Grid AblationBatch(const BenchOptions& options) {
  const plan::QuerySetup setup = SlowedAQuery(options.scale);
  const std::vector<int64_t> batch_sizes = {16, 64, 128, 512, 2048, 8192};
  Grid grid;
  for (int64_t batch : batch_sizes) {
    core::MediatorConfig config = DefaultConfig(options);
    config.strategy.dqp.batch_size = batch;
    const std::string key = "batch=" + std::to_string(batch);
    grid.cells.push_back(SingleCell("ablation_batch", key, "DSE", setup,
                                    config, options.repeats,
                                    Run(StrategyKind::kDse)));
    config.kernels.scalar = true;
    grid.cells.push_back(SingleCell("ablation_batch", key + "/scalar", "DSE",
                                    setup, config, options.repeats,
                                    Run(StrategyKind::kDse)));
  }
  grid.print = [options, batch_sizes](const std::vector<Outcome>& results) {
    std::vector<std::string> headers = {"batch (tuples)", "DSE (s)",
                                        "DSE scalar-kernels (s)",
                                        "execution phases", "stalled (s)"};
    if (options.walls) {
      headers.push_back("wall vec (ms)");
      headers.push_back("wall scalar (ms)");
    }
    TablePrinter table(headers);
    for (size_t i = 0; i < batch_sizes.size(); ++i) {
      const Outcome& dse = results[i * 2];
      const Outcome& dse_scalar = results[i * 2 + 1];
      std::vector<std::string> row = {
          std::to_string(batch_sizes[i]), SecondsCell(dse),
          SecondsCell(dse_scalar),
          std::to_string(dse.metrics.execution_phases),
          TablePrinter::Num(ToSecondsF(dse.metrics.stalled_time))};
      if (options.walls) {
        row.push_back(TablePrinter::Num(dse.wall_ms));
        row.push_back(TablePrinter::Num(dse_scalar.wall_ms));
      }
      table.AddRow(row);
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: broad plateau — response time is insensitive over\n"
        "a wide range (the paper's rationale for batching), degrading only\n"
        "at extreme sizes where scheduling becomes too coarse. The two DSE\n"
        "columns must agree exactly (kernel determinism contract); only the\n"
        "--walls columns may separate them.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Ablation: sensitivity of DSE to the benefit materialization threshold
// bmt (paper Section 4.4 defines bmi/bmt; Section 5.1.3 fixes bmt = 1 for
// the single-query experiments; Section 6 plans tuning experiments — this
// is that experiment). Low bmt degrades eagerly; a huge bmt disables
// degradation entirely, leaving only direct chain interleaving.

Grid AblationBmt(const BenchOptions& options) {
  const plan::QuerySetup setup = SlowedAQuery(options.scale);
  const std::vector<double> bmt_values = {0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 1e9};
  Grid grid;
  for (double bmt : bmt_values) {
    core::MediatorConfig config = DefaultConfig(options);
    config.strategy.dqs.bmt = bmt;
    AddStrategies(&grid.cells, "ablation_bmt", Format("bmt=%g", bmt), setup,
                  config, options.repeats, {StrategyKind::kDse});
  }
  grid.print = [options, bmt_values](const std::vector<Outcome>& results) {
    TablePrinter table({"bmt", "DSE (s)", "degradations",
                        "disk pages written", "stalled (s)"});
    for (size_t i = 0; i < bmt_values.size(); ++i) {
      const double bmt = bmt_values[i];
      const Outcome& dse = results[i];
      table.AddRow({bmt > 1e6 ? "inf" : TablePrinter::Num(bmt, 1),
                    SecondsCell(dse),
                    std::to_string(dse.metrics.degradations),
                    std::to_string(dse.metrics.disk.pages_written),
                    TablePrinter::Num(ToSecondsF(dse.metrics.stalled_time))});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: around bmt=1 (the paper's setting) degradation is\n"
        "selective and response time is lowest; disabling degradation (inf)\n"
        "forfeits the overlap and stalls the engine behind blocked chains.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Ablation: per-wrapper queue capacity (paper Section 2.1's window
// protocol: "a queue of a given size"). Small queues throttle wrappers
// aggressively (retrievals stretch); large queues buffer bursts at the
// cost of mediator memory.

Grid AblationQueue(const BenchOptions& options) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(options.scale);
  const std::vector<int64_t> capacities = {64, 256, 1024, 4096, 16384};
  Grid grid;
  for (int64_t capacity : capacities) {
    core::MediatorConfig config = DefaultConfig(options);
    config.comm.queue_capacity = capacity;
    AddStrategies(&grid.cells, "ablation_queue",
                  "capacity=" + std::to_string(capacity), setup, config,
                  options.repeats, {StrategyKind::kSeq, StrategyKind::kDse});
  }
  grid.print = [options, capacities](const std::vector<Outcome>& results) {
    TablePrinter table(
        {"queue capacity (tuples)", "SEQ (s)", "DSE (s)", "DSE gain (%)"});
    for (size_t i = 0; i < capacities.size(); ++i) {
      const Outcome& seq = results[2 * i];
      const Outcome& dse = results[2 * i + 1];
      table.AddRow({std::to_string(capacities[i]), SecondsCell(seq),
                    SecondsCell(dse), GainCell(seq, dse)});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: SEQ benefits from larger queues (other wrappers\n"
        "prefill while it drains one stream); DSE is largely insensitive —\n"
        "it keeps every queue moving regardless of capacity.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Memory-limitation experiment (paper Section 4.2): the total memory
// available for the query is swept downward until operands spill and the
// DQO must split chains (the technique of the paper's [4]); below the
// feasibility floor (one join's operand + hash index alone exceeding the
// budget) execution is rejected rather than thrashing, and the suite
// tracks those FAIL cells too.

Grid MemoryLimit(const BenchOptions& options) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(options.scale);
  const std::vector<double> budgets_mb = {1, 2, 3, 4, 6, 8, 16, 32, 64};
  Grid grid;
  for (double mb : budgets_mb) {
    core::MediatorConfig config = DefaultConfig(options);
    config.memory_budget_bytes = static_cast<int64_t>(mb * 1024 * 1024);
    AddStrategies(&grid.cells, "memory_limit", Format("memory=%.0fMB", mb),
                  setup, config, options.repeats, {StrategyKind::kDse});
  }
  grid.print = [options, budgets_mb](const std::vector<Outcome>& results) {
    TablePrinter table({"memory (MB)", "DSE (s)", "DQO splits",
                        "operand spills", "peak (MB)", "disk pages W",
                        "note"});
    for (size_t i = 0; i < budgets_mb.size(); ++i) {
      const double mb = budgets_mb[i];
      const Outcome& dse = results[i];
      if (!dse.ok) {
        table.AddRow({TablePrinter::Num(mb, 0), "-", "-", "-", "-", "-",
                      "infeasible: " + dse.error});
        continue;
      }
      table.AddRow(
          {TablePrinter::Num(mb, 0), SecondsCell(dse),
           std::to_string(dse.metrics.dqo_splits),
           std::to_string(dse.metrics.operand_spills),
           TablePrinter::Num(
               static_cast<double>(dse.metrics.peak_memory_bytes) / 1048576.0,
               1),
           std::to_string(dse.metrics.disk.pages_written), ""});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: ample memory -> no splits, fastest; shrinking\n"
        "memory -> spills and DQO splits add disk traffic and response time;\n"
        "below the feasibility floor execution is cleanly rejected.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// DSE vs query scrambling (the paper's Section 1.2 comparison, made
// measurable). Two tables:
//  1. the three delay classes of [2] under SEQ / SCR / DSE — scrambling
//     reacts to initial and (long) bursty gaps but is blind to slow
//     delivery, DSE handles all three (paper Sections 1.3, 5.4);
//  2. the timeout-tuning problem: SCR's response under a slowed source as
//     the timeout sweeps from hair-trigger to never-fires.

Grid ScramblingComparison(const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  const std::vector<DelayCase> cases = {
      {"initial", "initial delay on A (+2 s)", InitialDelay(2000.0)},
      {"bursty", "bursty A (1000-tuple bursts, 200 ms gaps)",
       BurstyDelay(1000, 200.0)},
      {"slow", "slow delivery A (6x w_min)", SlowDelay(6.0)},
  };
  Grid grid;
  for (const DelayCase& c : cases) {
    const plan::QuerySetup setup = DelayedAQuery(options.scale, c.delay);
    AddStrategies(&grid.cells, "scrambling", c.key, setup, config,
                  options.repeats, {StrategyKind::kSeq, StrategyKind::kDse});
    grid.cells.push_back(SingleCell("scrambling", c.key, "SCR", setup, config,
                                    options.repeats,
                                    Scrambling(Milliseconds(20))));
  }
  // Table 2: the timeout knob.
  const plan::QuerySetup bursty =
      DelayedAQuery(options.scale, BurstyDelay(500, 120.0));
  const std::vector<double> timeouts_ms = {1.0, 5.0, 20.0, 60.0, 150.0, 1000.0};
  for (double ms : timeouts_ms) {
    grid.cells.push_back(SingleCell("scrambling_timeout",
                                    Format("timeout=%.0fms", ms), "SCR",
                                    bursty, config, options.repeats,
                                    Scrambling(Milliseconds(ms))));
  }
  grid.print = [options, cases,
                timeouts_ms](const std::vector<Outcome>& results) {
    TablePrinter table({"delay type of A", "SEQ (s)", "SCR (s)",
                        "SCR steps", "DSE (s)"});
    for (size_t i = 0; i < cases.size(); ++i) {
      const Outcome& seq = results[3 * i];
      const Outcome& dse = results[3 * i + 1];
      const Outcome& scr = results[3 * i + 2];
      table.AddRow({cases[i].label, SecondsCell(seq),
                    scr.ok ? TablePrinter::Num(scr.seconds) : "FAIL",
                    scr.ok ? std::to_string(scr.metrics.timeouts) : "-",
                    SecondsCell(dse)});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: SCR ~ DSE on initial delays (its home turf), SCR\n"
        "~ SEQ on slow delivery (no gap ever trips the timeout; 0 steps),\n"
        "DSE good everywhere (paper Section 5.4).\n\n");

    std::printf("-- timeout sensitivity (A slowed 6x) --\n");
    TablePrinter sweep({"SCR timeout (ms)", "response (s)",
                        "scrambling steps", "materializations"});
    for (size_t i = 0; i < timeouts_ms.size(); ++i) {
      const double ms = timeouts_ms[i];
      const Outcome& scr = results[3 * cases.size() + i];
      if (!scr.ok) {
        sweep.AddRow({TablePrinter::Num(ms, 0), "FAIL", "-", "-"});
        continue;
      }
      sweep.AddRow({TablePrinter::Num(ms, 0), TablePrinter::Num(scr.seconds),
                    std::to_string(scr.metrics.timeouts),
                    std::to_string(scr.metrics.degradations)});
    }
    PrintTable(sweep, options);
    std::printf(
        "\nExpected shape: too large a timeout never reacts and collapses\n"
        "toward SEQ; small timeouts trigger orders of magnitude more\n"
        "scrambling steps for the same outcome (pure overhead in a real\n"
        "engine, where every step re-plans). The workable setting depends on\n"
        "the burst gap, unknown in advance — the configuration difficulty\n"
        "the paper cites (Section 1.2).\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Operator-level vs scheduling-level adaptation (paper Section 1.1): the
// double-pipelined hash join (DPHJ, refs [8,16]) absorbs delivery delays
// inside the join operator itself; DSE absorbs them by scheduling. This
// compares both (and SEQ) across delay shapes, with the memory price of
// each — the paper's reasons for choosing the scheduling level were
// DPHJ's restriction to hash-based plans and its memory appetite.

Grid OperatorVsScheduling(const BenchOptions& options) {
  const core::MediatorConfig config = DefaultConfig(options);
  const std::vector<DelayCase> cases = {
      {"baseline", "baseline (w_min)", {}},
      {"initial", "initial delay on A (+2 s)", InitialDelay(2000.0)},
      {"bursty", "bursty A (1000 x 50 ms)", BurstyDelay(1000, 50.0)},
      {"slow", "slow A (4x)", SlowDelay(4.0)},
  };
  Grid grid;
  for (const DelayCase& c : cases) {
    const plan::QuerySetup setup = DelayedAQuery(options.scale, c.delay);
    AddStrategies(&grid.cells, "operator_vs_scheduling", c.key, setup, config,
                  options.repeats, {StrategyKind::kSeq, StrategyKind::kDse});
    grid.cells.push_back(SingleCell(
        "operator_vs_scheduling", c.key, "DPHJ", setup, config,
        options.repeats,
        [](const core::Mediator& m) { return m.ExecuteDphj(); }));
  }
  grid.print = [options, cases](const std::vector<Outcome>& results) {
    auto peak_mb = [](const Outcome& o) {
      return TablePrinter::Num(
          static_cast<double>(o.metrics.peak_memory_bytes) / 1048576.0, 1);
    };
    TablePrinter table({"delay", "SEQ (s)", "DSE (s)", "DPHJ (s)",
                        "DSE peak (MB)", "DPHJ peak (MB)"});
    for (size_t i = 0; i < cases.size(); ++i) {
      const Outcome& dse = results[3 * i + 1];
      const Outcome& dphj = results[3 * i + 2];
      table.AddRow({cases[i].label, SecondsCell(results[3 * i]),
                    SecondsCell(dse), SecondsCell(dphj), peak_mb(dse),
                    dphj.ok ? peak_mb(dphj) : "-"});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: both adaptive strategies beat SEQ under delays;\n"
        "DPHJ holds BOTH sides of every join resident (roughly 2x+ the\n"
        "memory), and only exists for hash-based plans — the paper's case\n"
        "for adapting at the scheduling level instead.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Source fault injection on the paper's Figure 6 workload (DESIGN.md §8):
// relation A — which gates half the plan — is slowed to the bench target
// and then hit with each fault scenario. All-or-nothing strategies (SEQ,
// strict DSE, SCR) must survive transient faults exactly and abort
// Unavailable on permanent death; DSE under the partial-result policy
// degrades gracefully and reports how much of the answer survived.

Grid FaultTolerance(const BenchOptions& options) {
  const core::MediatorConfig strict = DefaultConfig(options);
  core::MediatorConfig partial = strict;
  partial.strategy.fault.partial_results = true;

  plan::QuerySetup base = plan::PaperFigure5Query(options.scale);
  wrapper::SourceSpec& a = SourceOf(base, "A");
  const int64_t card = a.relation.cardinality;
  // Fig6 idiom: retrieval of A targets 4 s at scale 1.
  a.delay.mean_us = 4.0 * options.scale * 1e6 / static_cast<double>(card);
  const int64_t fault_at = card / 5;

  struct Scenario {
    const char* key;
    const char* label;
    wrapper::FaultSchedule faults;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"none", "none", {}});
  {
    Scenario s{"stall", "stall 300 ms", {}};
    wrapper::FaultSpec f;
    f.kind = wrapper::FaultKind::kStall;
    f.at_tuple = fault_at;
    f.stall = Milliseconds(300);
    s.faults.events = {f};
    scenarios.push_back(s);
  }
  {
    Scenario s{"disconnect", "disconnect + replay", {}};
    wrapper::FaultSpec f;
    f.kind = wrapper::FaultKind::kDisconnect;
    f.at_tuple = fault_at;
    f.failed_attempts = 2;
    f.backoff_initial = Milliseconds(20);
    f.replay_from_scratch = true;
    s.faults.events = {f};
    scenarios.push_back(s);
  }
  {
    Scenario s{"death", "permanent death", {}};
    wrapper::FaultSpec f;
    f.kind = wrapper::FaultKind::kDeath;
    f.at_tuple = fault_at;
    s.faults.events = {f};
    scenarios.push_back(s);
  }

  Grid grid;
  for (const Scenario& s : scenarios) {
    plan::QuerySetup setup = base;
    SourceOf(setup, "A").faults = s.faults;
    AddStrategies(&grid.cells, "fault_tolerance", s.key, setup, strict,
                  options.repeats, {StrategyKind::kSeq, StrategyKind::kDse});
    grid.cells.push_back(SingleCell("fault_tolerance",
                                    std::string(s.key) + "/partial", "DSE",
                                    setup, partial, options.repeats,
                                    Run(StrategyKind::kDse)));
    grid.cells.push_back(SingleCell("fault_tolerance", s.key, "SCR", setup,
                                    strict, options.repeats,
                                    Scrambling(Milliseconds(20))));
  }
  grid.print = [options, base, strict,
                scenarios](const std::vector<Outcome>& results) {
    // The exact answer's cardinality, for the completeness column.
    int64_t reference_card = -1;
    Result<core::Mediator> m =
        core::Mediator::Create(base.catalog, base.plan, strict);
    if (m.ok()) reference_card = m->reference().result_card;

    TablePrinter table({"fault on A", "SEQ (s)", "DSE (s)", "DSE partial (s)",
                        "SCR (s)", "answer kept", "fault summary"});
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const Outcome& dse_partial = results[4 * i + 2];
      std::string kept = "-";
      std::string summary = "-";
      if (dse_partial.ok) {
        const core::FaultStats& f = dse_partial.metrics.fault;
        if (reference_card > 0) {
          kept = TablePrinter::Num(
              static_cast<double>(dse_partial.metrics.result_count) /
                  static_cast<double>(reference_card),
              3);
        }
        if (f.any()) {
          summary = "suspected=" + std::to_string(f.sources_suspected) +
                    " dead=" + std::to_string(f.sources_dead) +
                    " dup-dropped=" + std::to_string(f.replays_discarded) +
                    (f.partial_result ? " partial" : "");
        }
      }
      table.AddRow({scenarios[i].label, SecondsCell(results[4 * i]),
                    SecondsCell(results[4 * i + 1]), SecondsCell(dse_partial),
                    SecondsCell(results[4 * i + 3]), kept, summary});
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: transient faults (stall, disconnect) cost every\n"
        "strategy some stalled time but all finish with the exact answer;\n"
        "permanent death fails SEQ / strict DSE / SCR with Unavailable while\n"
        "DSE under the partial-result policy returns the surviving fraction\n"
        "of the answer and names the dead source in the fault summary.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// The paper's Section 6 outlook, measured: multi-query execution and the
// "classical tradeoff between throughput and response time". A mix of N
// paper-shaped queries runs serial vs shared, with SEQ vs DSE per query;
// the table reports the makespan (throughput side) and the mean response
// time (latency side), and the suite tracks the makespan.

/// A mix of n Figure 5 queries on a fresh mediator. Its first run is
/// always cold; warm mode repeats the identical mix once unmeasured so
/// the measured run serves hits.
Outcome MeasureMix(int n, core::MultiMode mode, StrategyKind kind,
                   const BenchOptions& options) {
  Outcome outcome;
  std::vector<plan::QuerySetup> mix;
  for (int q = 0; q < n; ++q) {
    mix.push_back(plan::PaperFigure5Query(options.scale));
  }
  core::MultiQueryConfig config;
  config.seed = options.seed;
  config.cache.enabled = options.cache != CacheMode::kOff;
  Result<core::MultiQueryMediator> mediator =
      core::MultiQueryMediator::Create(std::move(mix), config);
  if (!mediator.ok()) {
    outcome.error = mediator.status().ToString();
    return outcome;
  }
  if (options.cache == CacheMode::kWarm) {
    Result<core::MultiQueryMetrics> warmup = mediator->Execute(kind, mode);
    if (!warmup.ok()) {
      outcome.error = warmup.status().ToString();
      return outcome;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  Result<core::MultiQueryMetrics> r = mediator->Execute(kind, mode);
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!r.ok()) {
    outcome.error = r.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.seconds = ToSecondsF(r->makespan);
  outcome.mix = *std::move(r);
  return outcome;
}

Grid MultiQuery(const BenchOptions& options) {
  struct Mix {
    int n;
    core::MultiMode mode;
    StrategyKind kind;
  };
  std::vector<Mix> mixes;
  for (int n : {1, 2, 4, 8}) {
    for (core::MultiMode mode :
         {core::MultiMode::kSerial, core::MultiMode::kShared}) {
      for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
        mixes.push_back({n, mode, kind});
      }
    }
  }
  // Large mixes stress the shared mediator's event loop (done-query
  // skipping, the all-starved arrival heap, incremental replans); serial
  // mode scales trivially in n and would dominate the wall clock, so the
  // wide axis is shared-only.
  for (int n : {16, 32, 64}) {
    for (StrategyKind kind : {StrategyKind::kSeq, StrategyKind::kDse}) {
      mixes.push_back({n, core::MultiMode::kShared, kind});
    }
  }
  Grid grid;
  for (const Mix& m : mixes) {
    grid.cells.push_back(
        {"multi_query",
         "n=" + std::to_string(m.n) + "/" + core::MultiModeName(m.mode) +
             "/" + core::StrategyName(m.kind),
         [m, options] { return MeasureMix(m.n, m.mode, m.kind, options); }});
  }
  grid.print = [options, mixes](const std::vector<Outcome>& results) {
    std::printf("cache: %s\n\n", CacheModeName(options.cache));
    for (size_t i = 0; i < mixes.size(); ++i) {
      if (!results[i].ok) {
        std::fprintf(stderr, "n=%d %s/%s: %s\n", mixes[i].n,
                     core::MultiModeName(mixes[i].mode),
                     core::StrategyName(mixes[i].kind),
                     results[i].error.c_str());
        return 1;
      }
    }
    // The latency distribution next to its mean: per-query completion
    // times summarized as nearest-rank percentiles (SummarizeLatencies).
    std::vector<std::string> headers = {
        "queries", "mode",    "per-query", "makespan (s)",
        "mean response (s)",  "p50 (s)",   "p95 (s)",
        "p99 (s)", "statuses", "total degradations",
        "c-hits",  "c-miss",  "c-stale",   "c-evict"};
    if (options.walls) headers.push_back("wall (ms)");
    TablePrinter table(std::move(headers));
    for (size_t i = 0; i < mixes.size(); ++i) {
      const Mix& m = mixes[i];
      const core::MultiQueryMetrics& r = results[i].mix;
      const LatencySummary lat = SummarizeLatencies(r.response_times);
      std::array<int64_t, core::kNumQueryStatuses> counts{};
      for (core::QueryStatus st : r.statuses) {
        ++counts[static_cast<size_t>(st)];
      }
      std::vector<std::string> row = {
          std::to_string(m.n), core::MultiModeName(m.mode),
          core::StrategyName(m.kind),
          TablePrinter::Num(ToSecondsF(r.makespan)),
          TablePrinter::Num(ToSecondsF(r.mean_response)),
          TablePrinter::Num(lat.p50_s), TablePrinter::Num(lat.p95_s),
          TablePrinter::Num(lat.p99_s), FormatStatusCounts(counts),
          std::to_string(r.total_degradations),
          std::to_string(r.cache.segment_hits + r.cache.result_hits),
          std::to_string(r.cache.segment_misses + r.cache.result_misses),
          std::to_string(r.cache.stale_invalidations),
          std::to_string(r.cache.evictions)};
      if (options.walls) row.push_back(TablePrinter::Num(results[i].wall_ms));
      table.AddRow(std::move(row));
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape (paper Section 6): sharing improves the makespan\n"
        "(delays of one query absorbed by another's work) at some cost in\n"
        "early queries' response times; DSE compounds with sharing because\n"
        "it keeps every wrapper of every query flowing.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// The sharded mediator fleet under an open-loop Poisson query stream: the
// paper's Section 6 throughput-vs-response-time tradeoff at fleet scale.
// Queries hash onto mediator shards running on real threads, gated by the
// admission-control memory broker. bench_fleet's table reports the
// throughput side (makespan, queries/s) and the latency side (p50/p95/p99
// completion latency, overall and per fairness class), plus the broker's
// admission-queueing counters; the suite tracks the makespan. --jobs only
// picks the host thread count for the shard advances: every virtual
// column is byte-identical across job counts (DESIGN.md §12).

/// Fleet templates (prepared once — the warm plan cache): the Figure 5
/// query at `scale`, then one variant per relation in `slowed` with that
/// relation 3x slower — the Figure 6/7 perturbations.
std::vector<plan::QuerySetup> FleetTemplates(
    double scale, std::initializer_list<const char*> slowed) {
  std::vector<plan::QuerySetup> templates = {plan::PaperFigure5Query(scale)};
  for (const char* relation : slowed) {
    plan::QuerySetup t = plan::PaperFigure5Query(scale);
    SourceOf(t, relation).delay.mean_us *= 3.0;
    templates.push_back(std::move(t));
  }
  return templates;
}

/// Open-loop arrivals: n queries with exponential inter-arrival times of
/// mean `mean_s`. A query draws u in [0, 1) and takes template i, the
/// number of `bounds` at or below u; template 0 is interactive, the rest
/// batch. The stream is part of the workload definition, so it draws from
/// its own seeded generator.
std::vector<core::FleetQuerySpec> PoissonStream(
    int n, double mean_s, uint64_t seed, std::initializer_list<double> bounds) {
  Rng stream(seed ^ 0xF1EE7ULL);
  std::vector<core::FleetQuerySpec> workload;
  SimTime at = 0;
  for (int q = 0; q < n; ++q) {
    at += Seconds(stream.Exponential(mean_s));
    core::FleetQuerySpec spec;
    spec.arrival = at;
    const double u = stream.NextDouble();
    for (double bound : bounds) {
      if (u >= bound) ++spec.template_idx;
    }
    spec.fairness = spec.template_idx == 0 ? core::FairnessClass::kInteractive
                                           : core::FairnessClass::kBatch;
    workload.push_back(spec);
  }
  return workload;
}

/// The lifecycle knobs at `scale`: the storm's absolute times, the breaker
/// cooldowns and the retry backoff scale with the query durations, so a
/// storm hits the same phase of the stream at every scale. A deadline of
/// 0 arms none.
void ScaleLifecycle(double scale, wrapper::StormKind storm, double deadline_s,
                    core::FleetConfig* config) {
  auto scaled = [scale](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) * scale);
  };
  if (deadline_s > 0) config->deadline_budget = scaled(Seconds(deadline_s));
  config->storm.kind = storm;
  config->storm.onset = scaled(Seconds(0.3));
  config->storm.outage = scaled(Seconds(2.0));
  config->storm.wave_stall = scaled(Milliseconds(400));
  config->storm.propagation = scaled(Milliseconds(150));
  config->storm.flap_period = scaled(Milliseconds(300));
  config->breaker.cooldown = scaled(Seconds(1));
  config->breaker.max_cooldown = scaled(Seconds(30));
  config->retry_backoff_initial =
      std::max<SimDuration>(1, scaled(Milliseconds(50)));
}

/// Runs `kind` over the stream on a fresh executor with `jobs` shard
/// threads. Warm mode repeats the identical stream once unmeasured so the
/// measured run serves hits (the fleet answering a recurring template mix).
Outcome MeasureFleet(std::vector<plan::QuerySetup> templates,
                     std::vector<core::FleetQuerySpec> workload,
                     const core::FleetConfig& config, StrategyKind kind,
                     int jobs, bool warm) {
  Outcome outcome;
  Result<core::FleetExecutor> fleet = core::FleetExecutor::Create(
      std::move(templates), std::move(workload), config);
  if (!fleet.ok()) {
    outcome.error = "fleet setup: " + fleet.status().ToString();
    return outcome;
  }
  if (warm) {
    Result<core::FleetMetrics> warmup = fleet->Execute(kind, jobs);
    if (!warmup.ok()) {
      outcome.error = "warmup: " + warmup.status().ToString();
      return outcome;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  Result<core::FleetMetrics> r = fleet->Execute(kind, jobs);
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!r.ok()) {
    outcome.error = r.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.seconds = ToSecondsF(r->makespan);
  outcome.fleet = *std::move(r);
  return outcome;
}

/// One fleet cell per strategy of `kinds`, keyed "<key>/<KIND>".
void AddFleetCells(std::vector<Cell>* cells, const char* experiment,
                   const std::string& key,
                   const std::vector<plan::QuerySetup>& templates,
                   const std::vector<core::FleetQuerySpec>& workload,
                   const core::FleetConfig& config, const BenchOptions& options,
                   std::initializer_list<StrategyKind> kinds) {
  for (StrategyKind kind : kinds) {
    const int jobs = options.jobs;
    const bool warm = options.cache == CacheMode::kWarm;
    cells->push_back({experiment, key + "/" + core::StrategyName(kind),
                      [templates, workload, config, kind, jobs, warm] {
                        return MeasureFleet(templates, workload, config, kind,
                                            jobs, warm);
                      }});
  }
}

/// bench_fleet: three templates — t0 is the paper query at quarter scale
/// (the interactive mix), t1/t2 slow A or F 3x and run as batch analytics
/// — in a 48-query stream, 60% t0, 25% t1 and 15% t2, on 8 shards.
Grid FleetStream(const BenchOptions& options) {
  core::FleetConfig config;
  config.seed = options.seed;
  config.num_shards = 8;
  // Tight enough that the stream contends for admission at every scale:
  // the estimates grow linearly with --scale, so the budget does too.
  config.memory_budget_bytes = std::max<int64_t>(
      1 << 20, static_cast<int64_t>(64.0 * 1024 * 1024 * options.scale));
  ScaleLifecycle(options.scale, options.storm, options.deadline_s, &config);
  config.cache.enabled = options.cache != CacheMode::kOff;
  Grid grid;
  AddFleetCells(&grid.cells, "fleet", "shards=8/n=48",
                FleetTemplates(0.25 * options.scale, {"A", "F"}),
                PoissonStream(48, 0.05 * options.scale, options.seed,
                              {0.60, 0.85}),
                config, options, {StrategyKind::kSeq, StrategyKind::kDse});
  grid.print = [options](const std::vector<Outcome>& results) {
    if (options.storm != wrapper::StormKind::kNone || options.deadline_s > 0) {
      std::printf("lifecycle: storm=%s deadline=%s\n\n",
                  wrapper::StormKindName(options.storm),
                  options.deadline_s > 0
                      ? TablePrinter::Num(options.deadline_s).c_str()
                      : "none");
    }
    std::printf("cache: %s\n\n", CacheModeName(options.cache));
    std::vector<std::string> headers = {
        "per-query", "class",   "queries",  "makespan (s)", "throughput (q/s)",
        "p50 (s)",   "p95 (s)", "p99 (s)",  "statuses",     "queued",
        "c-hits",    "c-miss",  "c-stale",  "c-evict"};
    if (options.walls) headers.push_back("wall (ms)");
    TablePrinter table(std::move(headers));
    // Overall row plus one per fairness class; the class rows report the
    // latency split only (the makespan and broker counters are
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
    const StrategyKind kinds[] = {StrategyKind::kSeq, StrategyKind::kDse};
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) {
        std::fprintf(stderr, "%s: %s\n", core::StrategyName(kinds[i]),
                     results[i].error.c_str());
        return 1;
      }
      const core::FleetMetrics& r = results[i].fleet;
      for (const ClassFilter& filter : filters) {
        // Percentiles summarize queries that produced an answer (ok or
        // partial); every other terminal status shows up in the statuses
        // column instead of polluting the latency distribution — the
        // whole point of the taxonomy is that a failed query is not a
        // slow one.
        std::vector<SimDuration> latencies;
        std::array<int64_t, core::kNumQueryStatuses> counts{};
        int matched = 0;
        for (const core::FleetQueryOutcome& q : r.queries) {
          if (!filter.all && q.fairness != filter.cls) continue;
          ++matched;
          ++counts[static_cast<size_t>(q.status)];
          if (q.status == core::QueryStatus::kOk ||
              q.status == core::QueryStatus::kPartial) {
            latencies.push_back(q.completion_latency);
          }
        }
        const LatencySummary lat = SummarizeLatencies(latencies);
        const double makespan_s = ToSecondsF(r.makespan);
        auto fleet_wide = [&filter](const std::string& value) {
          return filter.all ? value : "";
        };
        std::vector<std::string> row = {
            core::StrategyName(kinds[i]),
            filter.name,
            std::to_string(matched),
            fleet_wide(TablePrinter::Num(makespan_s)),
            filter.all && makespan_s > 0
                ? TablePrinter::Num(static_cast<double>(latencies.size()) /
                                    makespan_s)
                : "",
            TablePrinter::Num(lat.p50_s),
            TablePrinter::Num(lat.p95_s),
            TablePrinter::Num(lat.p99_s),
            FormatStatusCounts(counts),
            fleet_wide(std::to_string(r.broker.queued_admissions)),
            fleet_wide(
                std::to_string(r.cache.segment_hits + r.cache.result_hits)),
            fleet_wide(std::to_string(r.cache.segment_misses +
                                      r.cache.result_misses)),
            fleet_wide(std::to_string(r.cache.stale_invalidations)),
            fleet_wide(std::to_string(r.cache.evictions))};
        if (options.walls) {
          row.push_back(fleet_wide(TablePrinter::Num(results[i].wall_ms)));
        }
        table.AddRow(std::move(row));
      }
    }
    PrintTable(table, options);
    std::printf(
        "\nExpected shape: interactive queries see lower tail latency than\n"
        "batch (the broker admits them first). Under a tight admission\n"
        "budget, sharing itself absorbs source stalls, so DSE's\n"
        "materializations can cost more than they save (the paper's\n"
        "throughput-vs-response tradeoff). Virtual columns are\n"
        "byte-identical for every --jobs value; only wall time varies.\n");
    return 0;
  };
  return grid;
}

// ---------------------------------------------------------------------
// Suite-only fleet workloads: two templates (the Figure 5 query at
// quarter scale and a 3x slower A) in an n-query stream, 60% interactive
// on the first.

/// Two shard counts and stream lengths, under SEQ and DSE.
Grid FleetAxes(const BenchOptions& options) {
  Grid grid;
  for (const auto& [shards, n] : {std::pair{4, 12}, std::pair{8, 24}}) {
    core::FleetConfig config;
    config.seed = options.seed;
    config.num_shards = shards;
    config.cache.enabled = options.cache != CacheMode::kOff;
    AddFleetCells(&grid.cells, "fleet",
                  "shards=" + std::to_string(shards) +
                      "/n=" + std::to_string(n),
                  FleetTemplates(0.25 * options.scale, {"A"}),
                  PoissonStream(n, 0.05 * options.scale, options.seed, {0.6}),
                  config, options, {StrategyKind::kSeq, StrategyKind::kDse});
  }
  return grid;
}

/// Lifecycle storms (DESIGN.md §13): the 4-shard stream under a correlated
/// fault storm with 40-s deadlines armed. The makespan folds in deadline
/// kills, retries and breaker degradation, all byte-identical across
/// --jobs like every other fleet quantity.
Grid Storms(const BenchOptions& options) {
  Grid grid;
  for (const auto& [storm, kind] :
       {std::pair{wrapper::StormKind::kRegionOutage, StrategyKind::kDse},
        std::pair{wrapper::StormKind::kCascadingSlowdown,
                  StrategyKind::kSeq}}) {
    core::FleetConfig config;
    config.seed = options.seed;
    config.num_shards = 4;
    ScaleLifecycle(options.scale, storm, 40, &config);
    config.cache.enabled = options.cache != CacheMode::kOff;
    AddFleetCells(&grid.cells, "storm", wrapper::StormKindName(storm),
                  FleetTemplates(0.25 * options.scale, {"A"}),
                  PoissonStream(12, 0.05 * options.scale, options.seed, {0.6}),
                  config, options, {kind});
  }
  return grid;
}

/// A warm cell fails unless its measured run served a cache hit.
Outcome RequireHits(Outcome outcome, const core::CacheStats& cache,
                    const char* what) {
  if (outcome.ok && cache.result_hits + cache.segment_hits == 0) {
    outcome.ok = false;
    outcome.error = std::string("warm ") + what + " run served no cache hits";
  }
  return outcome;
}

/// Warm-cache cells (DESIGN.md §14): the repeated-template regime the
/// result cache targets, on a 4-query shared mix and on the 4-shard
/// stream. They exist only with the cache on, so the off-vs-cold diff
/// skips the "cache_warm" experiment.
Grid CacheWarm(const BenchOptions& options) {
  Grid grid;
  if (options.cache == CacheMode::kOff) return grid;
  BenchOptions warm = options;
  warm.cache = CacheMode::kWarm;
  grid.cells.push_back({"cache_warm", "multi/n=4/shared/DSE/warm", [warm] {
                          Outcome o = MeasureMix(4, core::MultiMode::kShared,
                                                 StrategyKind::kDse, warm);
                          return RequireHits(o, o.mix.cache, "multi-query");
                        }});
  core::FleetConfig config;
  config.seed = options.seed;
  config.num_shards = 4;
  config.cache.enabled = true;
  grid.cells.push_back(
      {"cache_warm", "fleet/shards=4/n=12/DSE/warm",
       [templates = FleetTemplates(0.25 * options.scale, {"A"}),
        workload = PoissonStream(12, 0.05 * options.scale, options.seed, {0.6}),
        config, jobs = options.jobs] {
         Outcome o = MeasureFleet(templates, workload, config,
                                  StrategyKind::kDse, jobs, /*warm=*/true);
         return RequireHits(o, o.fleet.cache, "fleet");
       }});
  return grid;
}

}  // namespace

std::vector<Experiment> Experiments() {
  return {
      {.binary = "bench_fig6_slow_a",
       .title = "One slowed-down input relation: A",
       .artifact = "Figure 6 (one slowed-down relation experiments, A)",
       .build =
           [](const BenchOptions& o) {
             return SlowOneRelation("fig6_slow_a", "A", o);
           }},
      {.binary = "bench_fig7_slow_f",
       .title = "One slowed-down input relation: F",
       .artifact = "Figure 7 (one slowed-down relation experiments, F)",
       .build =
           [](const BenchOptions& o) {
             return SlowOneRelation("fig7_slow_f", "F", o);
           }},
      {.binary = "bench_fig8_wmin_sweep",
       .title = "DSE gain over SEQ vs w_min",
       .artifact = "Figure 8 (several slowed-down input relations)",
       .build = WminSweep},
      {.binary = "bench_slow_each_relation",
       .title = "Slowing down each input relation in turn (5x w_min)",
       .artifact = "Section 5.2 text (position of the slowed-down relation)",
       .build = SlowEachRelation},
      {.binary = "bench_delay_types",
       .title = "Delay-type comparison on relation A",
       .artifact = "Sections 1.2/1.3/6 (initial / bursty / slow delays)",
       .default_scale = 0.5,
       .build = DelayTypes},
      {.binary = "bench_ablation_batch",
       .title = "Batch-size sensitivity of the DQP",
       .artifact = "ablation of Section 3.2's batching",
       .default_scale = 0.5,
       .build = AblationBatch},
      {.binary = "bench_ablation_bmt",
       .title = "bmt sensitivity (relation A slowed 3x)",
       .artifact = "ablation of Section 4.4's threshold",
       .default_scale = 0.5,
       .build = AblationBmt},
      {.binary = "bench_ablation_queue",
       .title = "Queue-capacity sensitivity (window protocol)",
       .artifact = "ablation of Section 2.1's flow control",
       .default_scale = 0.5,
       .build = AblationQueue},
      {.binary = "bench_memory_limit",
       .title = "Memory-limitation sweep",
       .artifact = "Section 4.2 (handling memory limitations)",
       .default_scale = 0.3,
       .build = MemoryLimit},
      {.binary = "bench_scrambling",
       .title = "DSE vs query scrambling (phase 1)",
       .artifact = "Sections 1.2/1.3/5.4 (comparison with scrambling)",
       .default_scale = 0.3,
       .build = ScramblingComparison},
      {.binary = "bench_operator_vs_scheduling",
       .title = "Operator-level (DPHJ) vs scheduling-level (DSE)",
       .artifact = "Section 1.1 (levels of dynamic adaptation)",
       .default_scale = 0.3,
       .build = OperatorVsScheduling},
      {.binary = "bench_fault_tolerance",
       .title = "Source faults on the slowed-A workload",
       .artifact = "Section 5.2 workload under injected source faults",
       .default_scale = 0.25,
       .build = FaultTolerance},
      {.binary = "bench_multi_query",
       .title = "Multi-query execution (throughput vs response time)",
       .artifact = "Section 6 (future work: multi-query execution)",
       .default_scale = 0.1,
       .flags = {kCacheFlag},
       .runs_once = true,
       .build = MultiQuery},
      {.binary = "bench_fleet",
       .title = "Sharded mediator fleet (open-loop Poisson stream)",
       .artifact =
           "Section 6 (multi-query execution: throughput vs response time)",
       .flags = {kStormFlag, kDeadlineFlag, kCacheFlag},
       .runs_once = true,
       .cells_take_jobs = true,
       .build = FleetStream},
      {.default_scale = 0.1, .build = FleetAxes},
      {.default_scale = 0.1, .build = Storms},
      {.default_scale = 0.1, .build = CacheWarm},
  };
}

int RunExperiment(const std::string& binary, int argc, char** argv) {
  for (const Experiment& e : Experiments()) {
    if (e.binary == nullptr || binary != e.binary) continue;
    const std::vector<Flag> flags = TableFlags(e.flags);
    const BenchOptions options =
        ParseOptions(argc, argv, e.default_scale, flags);
    if (e.runs_once) RequireOneRepeat(options, argv[0], flags);
    PrintPreamble(e.title, e.artifact, options);
    const Grid grid = e.build(options);
    const ParallelRunner runner(e.cells_take_jobs ? 1 : options.jobs);
    return grid.print(RunIndexed<Outcome>(
        runner, grid.cells.size(),
        [&grid](size_t i) { return grid.cells[i].measure(); }));
  }
  std::fprintf(stderr, "no experiment is declared for %s\n", binary.c_str());
  return 2;
}

}  // namespace dqsched::bench

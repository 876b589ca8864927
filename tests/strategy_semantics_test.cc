// Strategy-level semantic tests: the observable behaviours that define
// SEQ, DSE, and MA beyond "right answer".

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/mediator.h"
#include "plan/canonical_plans.h"

namespace dqsched::core {
namespace {

Mediator MakeMediator(plan::QuerySetup setup, MediatorConfig config = {}) {
  Result<Mediator> m = Mediator::Create(std::move(setup.catalog),
                                        std::move(setup.plan),
                                        std::move(config));
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m.value());
}

TEST(SeqSemantics, NeverTouchesTheDiskOnPipelinedPlans) {
  // Pure iterator-model execution with ample memory: no temps, no I/O.
  Mediator m = MakeMediator(plan::PaperFigure5Query(0.05));
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kSeq);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->disk.pages_written, 0);
  EXPECT_EQ(r->disk.pages_read, 0);
  EXPECT_EQ(r->degradations, 0);
  EXPECT_EQ(r->planning_phases, 0);
}

TEST(SeqSemantics, StallsForTheSumOfDelays) {
  // Response >= sum of the slowed relation's extra delivery time: SEQ
  // cannot overlap it (the paper's "lower bound equal to the sum of the
  // times needed to retrieve the data").
  plan::QuerySetup base = plan::PaperFigure5Query(0.05);
  Mediator m0 = MakeMediator(base);
  plan::QuerySetup slowed = base;
  slowed.catalog.sources[0].delay.mean_us *= 4.0;  // A: +3x its baseline
  Mediator m1 = MakeMediator(std::move(slowed));
  Result<ExecutionMetrics> before = m0.Execute(StrategyKind::kSeq);
  Result<ExecutionMetrics> after = m1.Execute(StrategyKind::kSeq);
  ASSERT_TRUE(before.ok() && after.ok());
  const double extra_retrieval =
      7500 * 3 * 20e-6;  // n_A(scaled) * 3w in seconds
  EXPECT_GE(ToSecondsF(after->response_time),
            ToSecondsF(before->response_time) + extra_retrieval * 0.8);
}

TEST(DseSemantics, DegradesExactlyTheBlockedCriticalChains) {
  Mediator m = MakeMediator(plan::PaperFigure5Query(0.05));
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok());
  // p_B, p_F, p_D, p_C are blocked at start; p_A, p_E are not.
  EXPECT_EQ(r->degradations, 4);
  EXPECT_EQ(r->cf_activations, 4);
  EXPECT_GT(r->planning_phases, 0);
}

TEST(DseSemantics, NoDegradationWhenNothingIsCritical) {
  // On a very fast network (w << c), no chain is critical and DSE should
  // not materialize anything.
  Mediator m = MakeMediator(plan::PaperFigure5Query(0.05, /*w=*/2.0));
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->degradations, 0);
  EXPECT_EQ(r->disk.pages_written, 0);
}

TEST(DseSemantics, StallsFarLessThanSeqUnderSlowSource) {
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  setup.catalog.sources[0].delay.mean_us *= 5.0;
  Mediator m = MakeMediator(std::move(setup));
  Result<ExecutionMetrics> seq = m.Execute(StrategyKind::kSeq);
  Result<ExecutionMetrics> dse = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(seq.ok() && dse.ok());
  // At this scale A's stretched retrieval dominates even the total CPU
  // work, so a hard stall floor exists for any strategy; DSE still
  // overlaps everything else.
  EXPECT_LT(dse->stalled_time, seq->stalled_time * 0.85);
  EXPECT_LT(dse->response_time, seq->response_time);
}

TEST(DseSemantics, PlanningIsCheapRelativeToExecution) {
  // Section 3.3's requirement, asserted: host-side planning microseconds
  // per phase, not milliseconds.
  Mediator m = MakeMediator(plan::PaperFigure5Query(0.1));
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kDse);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->planning_phases, 0);
  EXPECT_LT(r->planning_host_seconds / static_cast<double>(r->planning_phases),
            1e-3);
}

TEST(MaSemantics, MaterializesEveryRelationOnce) {
  Mediator m = MakeMediator(plan::PaperFigure5Query(0.05));
  Result<ExecutionMetrics> r = m.Execute(StrategyKind::kMa);
  ASSERT_TRUE(r.ok());
  // Phase 1 writes every base tuple; phase 2 reads them back.
  const sim::CostModel cost;
  int64_t total_pages = 0;
  for (const auto& s : m.catalog().sources) {
    total_pages += cost.PagesForTuples(s.relation.cardinality);
  }
  EXPECT_GE(r->disk.pages_written, total_pages);
  EXPECT_GE(r->disk.pages_read, total_pages / 2);  // cache-served smalls
  EXPECT_EQ(r->degradations, 0);
}

TEST(MaSemantics, OverlapsDelaysAcrossSeveralSlowedRelations) {
  // MA's one virtue (paper Section 5.4): simultaneous materialization
  // overlaps several sources' delays. Slow FOUR relations; MA's response
  // should sit far below the sum of their retrieval times.
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  double sum_retrieval = 0;
  for (int s : {0, 1, 2, 3}) {
    setup.catalog.sources[static_cast<size_t>(s)].delay.mean_us *= 6.0;
    sum_retrieval +=
        static_cast<double>(
            setup.catalog.sources[static_cast<size_t>(s)].relation
                .cardinality) *
        setup.catalog.sources[static_cast<size_t>(s)].delay.mean_us * 6.0 /
        1e6;
  }
  Mediator m = MakeMediator(std::move(setup));
  Result<ExecutionMetrics> ma = m.Execute(StrategyKind::kMa);
  Result<ExecutionMetrics> seq = m.Execute(StrategyKind::kSeq);
  ASSERT_TRUE(ma.ok() && seq.ok());
  EXPECT_LT(ma->response_time, seq->response_time);  // finally, MA wins
}

// FNV-1a over every non-wall metric: the fields kernel_equivalence_test's
// ExpectIdentical compares plus the fault counters, eight bytes each.
uint64_t MetricsDigest(const ExecutionMetrics& m) {
  const FaultStats& f = m.fault;
  const int64_t fields[] = {
      m.response_time, m.busy_time, m.stalled_time, m.result_count,
      static_cast<int64_t>(m.result_checksum), m.planning_phases,
      m.execution_phases, m.degradations, m.cf_activations, m.dqo_splits,
      m.operand_spills, m.timeouts, m.rate_change_events,
      m.peak_memory_bytes, m.disk.pages_read, m.disk.pages_written,
      m.disk.positionings, m.disk.io_calls, m.disk.busy,
      m.network.tuples_received, m.network.messages_received,
      m.network.receive_cpu, m.temps.temps_created, m.temps.tuples_written,
      m.temps.tuples_read, m.temps.cache_served_reads, f.stalls_injected,
      f.disconnects_injected, f.reconnects, f.sources_killed,
      f.sources_suspected, f.sources_dead, f.recoveries,
      f.replays_discarded, f.source_down_events, f.source_recovered_events,
      f.sources_abandoned, f.partial_result, f.deadline_hit};
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const int64_t field : fields) {
    const auto v = static_cast<uint64_t>(field);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Result<ExecutionMetrics> RunNamed(const Mediator& m, const std::string& run) {
  if (run == "SCR") return m.ExecuteScrambling(Milliseconds(20));
  for (StrategyKind kind :
       {StrategyKind::kSeq, StrategyKind::kDse, StrategyKind::kMa}) {
    if (run == StrategyName(kind)) return m.Execute(kind);
  }
  return Status::InvalidArgument("unknown run " + run);
}

TEST(StrategyDigest, SingleQueryRunsMatchPinnedDigests) {
  // Each input drives the strategies' event handling down different arms:
  // slowed sources (rate changes, degradation), a long initial silence
  // under a 1 ms stall timeout (timeouts), a tight memory budget (DQO
  // splits and spills), and a suspected-then-recovered source, an
  // abandoned dead source and an expired deadline (the fault policy). A
  // change to how any strategy reacts to an event moves a digest.
  struct Input {
    std::string name;
    plan::QuerySetup setup;
    MediatorConfig config;
    std::vector<std::string> runs;  // SEQ, DSE, MA, or SCR (20 ms)
  };
  const std::vector<std::string> all = {"SEQ", "DSE", "MA", "SCR"};
  MediatorConfig seed7;
  seed7.seed = 7;
  std::vector<Input> inputs;
  for (const char* slowed : {"A", "F"}) {
    plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
    setup.catalog.source(setup.catalog.Find(slowed)).delay.mean_us *= 8.0;
    inputs.push_back({std::string("fig5 ") + slowed + " x8", setup, seed7,
                      all});
  }
  {
    plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
    wrapper::DelayConfig& a =
        setup.catalog.source(setup.catalog.Find("A")).delay;
    a.kind = wrapper::DelayKind::kInitial;
    a.initial_delay_ms = 200.0;
    MediatorConfig config = seed7;
    config.strategy.dqp.stall_timeout = Milliseconds(1);
    inputs.push_back({"fig5 A initial 200 ms", setup, config, all});
  }
  {
    MediatorConfig config;
    config.memory_budget_bytes = 550000;
    config.seed = 3;
    inputs.push_back(
        {"chain3 550000 B", plan::ChainThreeSourceQuery(2.0), config, all});
  }
  MediatorConfig faults = seed7;
  faults.memory_budget_bytes = 64LL * 1024 * 1024;
  {
    plan::QuerySetup setup = plan::TinyTwoSourceQuery();
    wrapper::FaultSpec stall;
    stall.kind = wrapper::FaultKind::kStall;
    stall.at_tuple = 500;
    stall.stall = Milliseconds(100);
    setup.catalog.sources[0].faults.events = {stall};
    inputs.push_back({"tiny stall", setup, faults, {"SEQ", "DSE", "SCR"}});

    MediatorConfig partial = faults;
    partial.strategy.fault.partial_results = true;
    wrapper::FaultSpec death;
    death.kind = wrapper::FaultKind::kDeath;
    death.at_tuple = 500;
    setup.catalog.sources[0].faults.events = {death};
    inputs.push_back({"tiny death partial", setup, partial, {"DSE"}});

    partial.query_deadline = Milliseconds(10);
    inputs.push_back({"tiny deadline partial", plan::TinyTwoSourceQuery(),
                      partial, {"DSE"}});
  }

  // One digest per run, in input order. SCR with a 20 ms trigger never
  // scrambles on the slowed inputs, so it matches SEQ there.
  const uint64_t pinned[] = {
      // fig5 A x8: SEQ, DSE, MA, SCR
      0xe1937094972eb127ULL, 0x6fe99b9ecd71859bULL, 0x67c45d45251c7cd3ULL,
      0xe1937094972eb127ULL,
      // fig5 F x8
      0xb65d2383832e7a37ULL, 0xb54c7cca922b9243ULL, 0x3d5dc18cb8846375ULL,
      0xb65d2383832e7a37ULL,
      // fig5 A initial 200 ms: 180, 212, 0 and 8 timeouts
      0x64bcd6c729dadc6bULL, 0x099d026cf8fd7dcdULL, 0x4ed98bcc7eed0895ULL,
      0x49ff8d62a05c7042ULL,
      // chain3 550000 B: one DQO split and two spills each
      0x9e7fd145feadb24cULL, 0xc0ba8b706dbb52cbULL, 0xf90e73ce6f1d8e7dULL,
      0xeb6b5b96092f4fc4ULL,
      // tiny stall: SEQ, DSE, SCR
      0x5ea1f4ba38ff4144ULL, 0x67cbf852f809a583ULL, 0xae70471894d5b9d3ULL,
      // tiny death partial, tiny deadline partial: DSE
      0xd9c3d9bd6379271aULL, 0x7ec7d6d6aed30ae2ULL,
  };
  size_t next = 0;
  for (const Input& input : inputs) {
    Mediator m = MakeMediator(input.setup, input.config);
    for (const std::string& run : input.runs) {
      Result<ExecutionMetrics> r = RunNamed(m, run);
      ASSERT_TRUE(r.ok()) << input.name << ' ' << run << ": "
                          << r.status().ToString();
      ASSERT_LT(next, std::size(pinned));
      const uint64_t digest = MetricsDigest(*r);
      EXPECT_EQ(digest, pinned[next++])
          << input.name << ' ' << run << " digest 0x" << std::hex << digest
          << std::dec << " (timeouts " << r->timeouts << ", splits "
          << r->dqo_splits << ", spills " << r->operand_spills << ")";
    }
  }
  EXPECT_EQ(next, std::size(pinned));
}

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
}

// RFC 4180: only cells holding a comma, a double quote or a line break
// are quoted (inner quotes doubled); every other cell prints as is.
TEST(TablePrinter, CsvQuotesOnlyCellsThatNeedIt) {
  EXPECT_EQ(TablePrinter::CsvCell("bursty (2000-tuple bursts, 100 ms gaps)"),
            "\"bursty (2000-tuple bursts, 100 ms gaps)\"");
  EXPECT_EQ(TablePrinter::CsvCell("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(TablePrinter::CsvCell("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(TablePrinter::CsvCell("retrieval=3.00s/SEQ (x; y)"),
            "retrieval=3.00s/SEQ (x; y)");
  EXPECT_EQ(TablePrinter::CsvCell(""), "");
}

}  // namespace
}  // namespace dqsched::core

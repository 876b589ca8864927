// Engine-core tests: each driver's seed policy is pinned to the workload
// the baselines were recorded on, the process-wide reference memo hands
// back the right answer for every generator input, the data and
// delay-total memos share exactly what their keys say is equal, and the
// runs of one prepared instance share its hash indexes only where an
// operand is exact.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_runner.h"
#include "common/random.h"
#include "core/mediator.h"
#include "exec/operand.h"
#include "expect_identical.h"
#include "plan/canonical_plans.h"
#include "wrapper/delay_model.h"
#include "wrapper/fault_model.h"

namespace dqsched::core {
namespace {

using Relations = std::vector<storage::Relation>;

Result<PreparedQuery> PrepareFigure5(const SeedPolicy& seeds) {
  plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  return PrepareQuery(std::move(setup.catalog), setup.plan, sim::CostModel{},
                      seeds);
}

// The data of `catalog` under `seeds`, generated outside every memo.
Relations FreshData(const wrapper::Catalog& catalog, const SeedPolicy& seeds) {
  Relations out;
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    out.push_back(storage::GenerateRelation(catalog.source(s).relation,
                                            seeds.RowidTag(s),
                                            Rng(seeds.DataSeed(s))));
  }
  return out;
}

bool SameRelations(const Relations& a, const Relations& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].tuples.size() != b[i].tuples.size() ||
        std::memcmp(a[i].tuples.data(), b[i].tuples.data(),
                    a[i].tuples.size() * sizeof(storage::Tuple)) != 0) {
      return false;
    }
  }
  return true;
}

// A later edit to the shared seed code must not silently change the
// workload: the baselines, and perfbench's copies of the mediator and
// fleet rows, depend on these exact answers.
TEST(Engine, SeedPoliciesPinEachDriversWorkload) {
  const SourceId n = plan::PaperFigure5Query(0.05).catalog.num_sources();
  struct Case {
    const char* driver;
    SeedPolicy seeds;
    int64_t result_card;
    uint64_t checksum;
  };
  const Case cases[] = {
      {"mediator", SeedPolicy::Mediator(42), 8921, 13008922677320698473ULL},
      {"multi-query query 1", SeedPolicy::MixQuery(42, 1, n), 10103,
       518068098434159350ULL},
      {"fleet template 1", SeedPolicy::Fleet(42, 1), 9078,
       16770964308822425350ULL},
  };
  for (const Case& c : cases) {
    Result<PreparedQuery> q = PrepareFigure5(c.seeds);
    ASSERT_TRUE(q.ok()) << c.driver << ": " << q.status().ToString();
    EXPECT_EQ(q->reference.result_card, c.result_card) << c.driver;
    EXPECT_EQ(q->reference.checksum.value(), c.checksum) << c.driver;
  }
  // Query 1's data seeds again, with rowid tags from 0: the checksum folds
  // rowids in, so a memo key that missed the tags would return the answer
  // above instead of this data's own.
  Result<PreparedQuery> q = PrepareFigure5(SeedPolicy::MixQuery(42, 1, 0));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->reference.checksum.value(),
            plan::ExecuteReference(q->compiled, *q->data).checksum.value());
}

// Equal keys share one data object; a change to any one generator input
// (a source's name, cardinality or key domain, its data seed or rowid tag)
// yields another object, holding exactly what a fresh generation does.
TEST(PreparedDataMemo, SharesEqualKeysAndSplitsOnEveryGeneratorInput) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  const SeedPolicy seeds = SeedPolicy::MixQuery(7, 3, 0);
  auto prepare = [&](wrapper::Catalog catalog, const SeedPolicy& s) {
    Result<PreparedQuery> q =
        PrepareQuery(std::move(catalog), setup.plan, sim::CostModel{}, s);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? std::move(q.value()) : PreparedQuery{};
  };
  const PreparedQuery base = prepare(setup.catalog, seeds);
  ASSERT_NE(base.data, nullptr);
  EXPECT_EQ(prepare(setup.catalog, seeds).data, base.data);
  EXPECT_TRUE(SameRelations(*base.data, FreshData(setup.catalog, seeds)));

  struct Variant {
    std::string input;
    wrapper::Catalog catalog;
    SeedPolicy seeds;
  };
  std::vector<Variant> variants;
  auto edit = [&](std::string input,
                  const std::function<void(storage::RelationSpec&)>& f) {
    wrapper::Catalog c = setup.catalog;
    f(c.sources[1].relation);
    variants.push_back({std::move(input), std::move(c), seeds});
  };
  edit("name", [](storage::RelationSpec& r) { r.name += "'"; });
  edit("cardinality", [](storage::RelationSpec& r) { ++r.cardinality; });
  for (int f = 0; f < storage::kTupleKeyFields; ++f) {
    edit("key domain " + std::to_string(f),
         [f](storage::RelationSpec& r) { ++r.key_domain[f]; });
  }
  // Same rowid tags, other data seeds; same data seeds, other tags.
  variants.push_back(
      {"data seed", setup.catalog, SeedPolicy::MixQuery(7, 4, 0)});
  variants.push_back(
      {"rowid tag", setup.catalog, SeedPolicy::MixQuery(7, 3, 6)});
  ASSERT_EQ(variants.back().seeds.DataSeed(0), seeds.DataSeed(0));

  for (const Variant& v : variants) {
    const PreparedQuery q = prepare(v.catalog, v.seeds);
    ASSERT_NE(q.data, nullptr) << v.input;
    EXPECT_NE(q.data, base.data) << v.input;
    EXPECT_TRUE(SameRelations(*q.data, FreshData(v.catalog, v.seeds)))
        << v.input;
  }
}

// The memo pins at most one set beyond its holders: the most recently
// prepared one, so the next Create of the same instance reuses it.
TEST(PreparedDataMemo, ReleasesASetOnceItsHoldersAndTheSlotDropIt) {
  const SeedPolicy first_seeds = SeedPolicy::MixQuery(11, 0, 0);
  std::weak_ptr<const Relations> first;
  {
    Result<PreparedQuery> q = PrepareFigure5(first_seeds);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    first = q->data;
  }
  ASSERT_FALSE(first.expired());
  {
    Result<PreparedQuery> again = PrepareFigure5(first_seeds);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->data, first.lock());
  }
  // A held set outlives later prepares; the unheld one is released by
  // the next different set.
  Result<PreparedQuery> held = PrepareFigure5(SeedPolicy::MixQuery(11, 1, 0));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(first.expired());
  const std::weak_ptr<const Relations> held_data = held->data;
  for (int q = 2; q < 4; ++q) {
    ASSERT_TRUE(PrepareFigure5(SeedPolicy::MixQuery(11, q, 0)).ok());
  }
  Result<PreparedQuery> rehit = PrepareFigure5(SeedPolicy::MixQuery(11, 1, 0));
  ASSERT_TRUE(rehit.ok()) << rehit.status().ToString();
  EXPECT_EQ(rehit->data, held_data.lock());
}

// --- Index sharing (DESIGN.md §5 and §15.2) ----------------------------
//
// The set a PrepareQuery of the same instance hands out is the one every
// driver of that instance passes its runs, so its read-only counts show
// what those runs published and adopted.

std::shared_ptr<exec::IndexSet> SetOf(const plan::QuerySetup& setup,
                                      const MediatorConfig& config) {
  Result<PreparedQuery> q = PrepareQuery(setup.catalog, setup.plan,
                                         config.cost,
                                         SeedPolicy::Mediator(config.seed));
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.ok() ? q->indexes : nullptr;
}

Mediator MakeMediator(const plan::QuerySetup& setup,
                      const MediatorConfig& config) {
  Result<Mediator> m = Mediator::Create(setup.catalog, setup.plan, config);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m.value());
}

// A mediator's second run of a strategy, and a second mediator's run over
// the same instance, adopt every join's index and publish none; answers
// and every non-wall metric equal the first run's, which built them.
TEST(IndexSharing, RepeatedRunsAdoptEveryJoinAndMatchTheFirst) {
  const plan::QuerySetup setup = plan::PaperFigure5Query(0.05);
  MediatorConfig config;
  config.seed = 9101;  // an instance no other test prepares
  const Mediator first = MakeMediator(setup, config);
  const std::shared_ptr<exec::IndexSet> set = SetOf(setup, config);
  ASSERT_NE(set, nullptr);
  const int joins = 5;
  EXPECT_EQ(set->published(), 0);
  int64_t adoptions = 0;
  for (StrategyKind kind :
       {StrategyKind::kDse, StrategyKind::kSeq, StrategyKind::kMa}) {
    SCOPED_TRACE(StrategyName(kind));
    const bool builds = kind == StrategyKind::kDse;  // the first run
    Result<ExecutionMetrics> a = first.Execute(kind);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(set->published(), joins);
    adoptions += builds ? 0 : joins;
    EXPECT_EQ(set->adoptions(), adoptions);

    Result<ExecutionMetrics> b = first.Execute(kind);
    const Mediator second = MakeMediator(setup, config);
    Result<ExecutionMetrics> c = second.Execute(kind);
    ASSERT_TRUE(b.ok() && c.ok());
    EXPECT_EQ(set->published(), joins);
    adoptions += 2 * joins;
    EXPECT_EQ(set->adoptions(), adoptions);
    ExpectIdentical(*a, *b, "second run");
    ExpectIdentical(*a, *c, "second mediator");
  }
}

// Source A dies mid-stream under the partial-result policy. A feeds J4
// alone, and J3, J1 and J0 each probe the one before, so those four
// operands come out short and only E's J2 is exact: the short ones build
// privately and publish nothing, and never adopt what a clean run later
// publishes.
TEST(IndexSharing, ShortOperandsAndTheirDownstreamBuildPrivately) {
  const plan::QuerySetup clean = plan::PaperFigure5Query(0.05);
  plan::QuerySetup killed = clean;
  wrapper::FaultSpec death;
  death.kind = wrapper::FaultKind::kDeath;
  death.at_tuple = 1000;
  killed.catalog.sources[static_cast<size_t>(killed.catalog.Find("A"))]
      .faults.events = {death};
  MediatorConfig config;
  config.seed = 9102;
  config.strategy.fault.partial_results = true;
  const Mediator m_killed = MakeMediator(killed, config);
  const Mediator m_clean = MakeMediator(clean, config);
  // Faults are not part of the data: both mediators share one set.
  const std::shared_ptr<exec::IndexSet> set = SetOf(clean, config);
  ASSERT_NE(set, nullptr);
  const int joins = 5;
  const int exact = 1;

  Result<ExecutionMetrics> short_run = m_killed.Execute(StrategyKind::kDse);
  ASSERT_TRUE(short_run.ok()) << short_run.status().ToString();
  ASSERT_TRUE(short_run->fault.partial_result);
  EXPECT_LT(short_run->result_count, m_killed.reference().result_card);
  EXPECT_EQ(set->published(), exact);
  EXPECT_EQ(set->adoptions(), 0);

  // A clean run afterwards adopts the exact operand's index and publishes
  // the rest; its answer is verified against the reference.
  Result<ExecutionMetrics> full = m_clean.Execute(StrategyKind::kDse);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(set->published(), joins);
  EXPECT_EQ(set->adoptions(), exact);

  // With every slot published, the short operands still build their own.
  Result<ExecutionMetrics> short_again = m_killed.Execute(StrategyKind::kDse);
  ASSERT_TRUE(short_again.ok()) << short_again.status().ToString();
  ExpectIdentical(*short_run, *short_again, "short run with a full set");
  EXPECT_EQ(set->adoptions(), 2 * exact);

  Result<ExecutionMetrics> full_again = m_clean.Execute(StrategyKind::kDse);
  ASSERT_TRUE(full_again.ok()) << full_again.status().ToString();
  ExpectIdentical(*full, *full_again, "clean run adopting every join");
  EXPECT_EQ(set->adoptions(), 2 * exact + joins);
}

// The memo keeps its sets the way it keeps data: weakly, beside the
// never-erased reference entry, plus one strong slot for the most recently
// prepared set. A set nobody holds is freed once the slot moves on.
TEST(IndexSharing, SetIsFreedOnceItsHoldersAndTheSlotDropIt) {
  const SeedPolicy first_seeds = SeedPolicy::MixQuery(12, 0, 0);
  std::weak_ptr<exec::IndexSet> first;
  {
    Result<PreparedQuery> q = PrepareFigure5(first_seeds);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    first = q->indexes;
  }
  ASSERT_FALSE(first.expired());
  {
    Result<PreparedQuery> again = PrepareFigure5(first_seeds);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->indexes, first.lock());
  }
  Result<PreparedQuery> held = PrepareFigure5(SeedPolicy::MixQuery(12, 1, 0));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(first.expired());
  const std::weak_ptr<exec::IndexSet> held_set = held->indexes;
  for (int q = 2; q < 4; ++q) {
    ASSERT_TRUE(PrepareFigure5(SeedPolicy::MixQuery(12, q, 0)).ok());
  }
  Result<PreparedQuery> rehit = PrepareFigure5(SeedPolicy::MixQuery(12, 1, 0));
  ASSERT_TRUE(rehit.ok()) << rehit.status().ToString();
  EXPECT_EQ(rehit->indexes, held_set.lock());
  // The reference entry outlives its set: the first instance prepared
  // again gets a new set beside the same answer.
  Result<PreparedQuery> revived = PrepareFigure5(first_seeds);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_NE(revived->indexes, nullptr);
  EXPECT_EQ(revived->indexes->published(), 0);
}

double FreshDelayTotal(const wrapper::DelayConfig& delay, uint64_t seed,
                       int64_t n) {
  Rng rng(seed);
  auto model = wrapper::MakeDelayModel(delay);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(model->NextDelay(i, rng));
  }
  return total;
}

// Every DelayKind's memoized total is exactly a fresh replay's, and a
// change to any one key input gets its own total.
TEST(DelayTotalMemo, EqualsAFreshReplayAndSplitsOnEveryInput) {
  constexpr uint64_t kSeed = 0x5eed;
  constexpr int64_t kCard = 4000;
  auto config = [](wrapper::DelayKind kind) {
    wrapper::DelayConfig d;
    d.kind = kind;
    d.initial_delay_ms = 3.0;
    d.burst_length = 150;
    d.burst_gap_ms = 2.0;
    d.slow_factor = 2.5;
    return d;
  };
  for (wrapper::DelayKind kind :
       {wrapper::DelayKind::kConstant, wrapper::DelayKind::kUniform,
        wrapper::DelayKind::kInitial, wrapper::DelayKind::kBursty,
        wrapper::DelayKind::kSlow}) {
    const wrapper::DelayConfig d = config(kind);
    const double fresh = FreshDelayTotal(d, kSeed, kCard);
    EXPECT_EQ(RealizedDelayTotalNs(d, kSeed, kCard), fresh)
        << wrapper::DelayKindName(kind);
    EXPECT_EQ(RealizedDelayTotalNs(d, kSeed, kCard), fresh)
        << wrapper::DelayKindName(kind) << " (memo hit)";
  }

  struct Change {
    const char* input;
    wrapper::DelayKind kind;  // one the changed input matters to
    std::function<void(wrapper::DelayConfig&, uint64_t&, int64_t&)> apply;
  };
  const Change changes[] = {
      {"kind", wrapper::DelayKind::kUniform,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) {
         d.kind = wrapper::DelayKind::kConstant;
       }},
      {"mean_us", wrapper::DelayKind::kUniform,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) { d.mean_us += 1; }},
      {"initial_delay_ms", wrapper::DelayKind::kInitial,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) {
         d.initial_delay_ms += 1;
       }},
      {"burst_length", wrapper::DelayKind::kBursty,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) {
         d.burst_length += 1;
       }},
      {"burst_gap_ms", wrapper::DelayKind::kBursty,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) {
         d.burst_gap_ms += 1;
       }},
      {"slow_factor", wrapper::DelayKind::kSlow,
       [](wrapper::DelayConfig& d, uint64_t&, int64_t&) {
         d.slow_factor += 1;
       }},
      {"delay seed", wrapper::DelayKind::kUniform,
       [](wrapper::DelayConfig&, uint64_t& seed, int64_t&) { ++seed; }},
      {"cardinality", wrapper::DelayKind::kUniform,
       [](wrapper::DelayConfig&, uint64_t&, int64_t& n) { ++n; }},
  };
  for (const Change& c : changes) {
    const wrapper::DelayConfig base = config(c.kind);
    wrapper::DelayConfig d = base;
    uint64_t seed = kSeed;
    int64_t n = kCard;
    c.apply(d, seed, n);
    const double fresh = FreshDelayTotal(d, seed, n);
    ASSERT_NE(fresh, FreshDelayTotal(base, kSeed, kCard)) << c.input;
    EXPECT_EQ(RealizedDelayTotalNs(base, kSeed, kCard),
              FreshDelayTotal(base, kSeed, kCard))
        << c.input;
    EXPECT_EQ(RealizedDelayTotalNs(d, seed, n), fresh) << c.input;
  }
}

// Four workers prepare Figure 5 instances concurrently: two tasks race on
// each key at a time, and sets come and go as no task keeps its data. Every
// answer and data digest equals a serial, memo-free computation. Run under
// the tsan preset with the rest of the suite.
TEST(PreparedDataMemo, ConcurrentPreparesAgreeWithASerialPrepare) {
  // Seeds no other test prepares, so both memos start cold.
  const SeedPolicy instances[] = {
      SeedPolicy::Mediator(901), SeedPolicy::Mediator(902),
      SeedPolicy::MixQuery(903, 0, 0), SeedPolicy::Fleet(904, 1)};
  constexpr size_t kTasks = 16;
  auto instance_of = [](size_t task) { return (task / 2) % 4; };
  struct Seen {
    bool ok = false;
    int64_t result_card = -1;
    uint64_t checksum = 0;
    uint64_t data_digest = 0;
  };
  auto digest = [](const Relations& data) {
    storage::ResultChecksum sum;
    for (const storage::Relation& r : data) {
      for (const storage::Tuple& t : r.tuples) sum.Add(t);
    }
    return sum.value();
  };
  const std::vector<Seen> seen = RunIndexed<Seen>(
      ParallelRunner(4), kTasks, [&](size_t task) {
        Seen s;
        Result<PreparedQuery> q = PrepareFigure5(instances[instance_of(task)]);
        if (!q.ok()) return s;
        s.ok = true;
        s.result_card = q->reference.result_card;
        s.checksum = q->reference.checksum.value();
        s.data_digest = digest(*q->data);
        return s;
      });

  for (size_t i = 0; i < std::size(instances); ++i) {
    Result<PreparedQuery> serial = PrepareFigure5(instances[i]);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    const Relations fresh = FreshData(serial->catalog, instances[i]);
    const plan::ReferenceResult expected =
        plan::ExecuteReference(serial->compiled, fresh);
    for (size_t task = 0; task < kTasks; ++task) {
      if (instance_of(task) != i) continue;
      ASSERT_TRUE(seen[task].ok) << "task " << task;
      EXPECT_EQ(seen[task].result_card, expected.result_card)
          << "task " << task;
      EXPECT_EQ(seen[task].checksum, expected.checksum.value())
          << "task " << task;
      EXPECT_EQ(seen[task].data_digest, digest(fresh)) << "task " << task;
    }
  }
}

}  // namespace
}  // namespace dqsched::core

// Micro-benchmarks (google-benchmark) isolating the simulation data
// plane: one pump plus one span pop per batch, wrapper->queue bulk pumping
// under the window protocol, and the event-indexed idle pump. These are
// the primitives every strategy run pays per batch; bench_suite measures
// their end-to-end effect, this binary isolates them.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "comm/comm_manager.h"
#include "storage/relation.h"
#include "wrapper/wrapper.h"

namespace dqsched {
namespace {

storage::Relation MakeRelation(int64_t n, SourceId src) {
  storage::RelationSpec spec;
  spec.name = "R";
  spec.cardinality = n;
  return GenerateRelation(spec, src, Rng(7));
}

wrapper::DelayConfig ConstantDelay(double us) {
  wrapper::DelayConfig d;
  d.kind = wrapper::DelayKind::kConstant;
  d.mean_us = us;
  return d;
}

/// The transport's per-batch cost: a CommManager pump that delivers one
/// batch of `batch` tuples (1 tuple/us, pumped every `batch` us) and the
/// span pop that consumes it, read in place from the relation.
void BM_PumpSpanPop(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const storage::Relation rel = MakeRelation(int64_t{1} << 16, 0);
  comm::CommConfig config;
  config.queue_capacity = 1024;
  std::unique_ptr<comm::CommManager> cm;
  SimTime t = 0;
  auto restart = [&] {
    cm = std::make_unique<comm::CommManager>(config);
    cm->AddSource(std::make_unique<wrapper::SimWrapper>(0, &rel,
                                                        ConstantDelay(1.0), 1),
                  /*prior_wait_ns=*/1000.0);
    t = 0;
  };
  restart();
  for (auto _ : state) {
    if (cm->SourceExhausted(0)) {
      state.PauseTiming();
      restart();
      state.ResumeTiming();
    }
    t += Microseconds(static_cast<double>(batch));
    cm->PumpAll(t);
    const comm::TupleSpan span = cm->PopSpan(0, t, batch);
    benchmark::DoNotOptimize(span.data);
    benchmark::DoNotOptimize(span.count);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PumpSpanPop)->Arg(1)->Arg(64)->Arg(512);

/// Full wrapper->queue->consumer transport of a relation through the
/// window protocol (queue smaller than the relation, so production
/// suspends and resumes throughout).
void BM_WrapperTransport(benchmark::State& state) {
  const int64_t card = state.range(0);
  const storage::Relation rel = MakeRelation(card, 0);
  std::vector<storage::Tuple> out(256);
  for (auto _ : state) {
    comm::CommConfig config;
    config.queue_capacity = 1024;
    comm::CommManager cm(config);
    cm.AddSource(std::make_unique<wrapper::SimWrapper>(0, &rel,
                                                       ConstantDelay(1.0), 1),
                 /*prior_wait_ns=*/1000.0);
    SimTime t = 0;
    int64_t drained = 0;
    while (drained < card) {
      t += Microseconds(400);
      drained += cm.Pop(0, t, out.data(), 256);
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * card);
}
BENCHMARK(BM_WrapperTransport)->Arg(4096)->Arg(65536);

/// Idle pump over many registered sources whose next arrival is far in
/// the future: the min-heap event index makes this O(1) instead of a
/// per-source scan.
void BM_PumpAllIdle(benchmark::State& state) {
  const int sources = static_cast<int>(state.range(0));
  std::vector<storage::Relation> rels;
  rels.reserve(static_cast<size_t>(sources));
  for (int s = 0; s < sources; ++s) {
    rels.push_back(MakeRelation(1024, s));
  }
  comm::CommConfig config;
  comm::CommManager cm(config);
  for (int s = 0; s < sources; ++s) {
    cm.AddSource(std::make_unique<wrapper::SimWrapper>(
                     s, &rels[static_cast<size_t>(s)],
                     ConstantDelay(1.0e6), 1),
                 /*prior_wait_ns=*/1.0e9);
  }
  SimTime now = 0;
  for (auto _ : state) {
    ++now;  // always before the first arrival (1 s away)
    cm.PumpAll(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PumpAllIdle)->Arg(6)->Arg(64);

}  // namespace
}  // namespace dqsched

BENCHMARK_MAIN();

// Micro-benchmarks (google-benchmark) isolating the operator kernels the
// executor spins on: filter evaluation (tuple-at-a-time push_back vs
// position-array compaction) and hash-join probes (per-tuple bucket scan vs
// the two-pass vectorized count/expand pipeline). Sweeps batch size,
// filter selectivity, and probe match fanout; bench_suite measures the
// end-to-end effect, this binary isolates the kernels.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "exec/hash_index.h"
#include "storage/tuple.h"

namespace dqsched {
namespace {

using exec::HashIndex;
using storage::Tuple;

constexpr int32_t kFilterNode = 11;

std::vector<Tuple> MakeBatch(int64_t n, uint64_t seed) {
  std::vector<Tuple> batch(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Tuple& t = batch[static_cast<size_t>(i)];
    t.rowid = storage::Mix64(seed + static_cast<uint64_t>(i));
    for (int k = 0; k < storage::kTupleKeyFields; ++k) {
      t.keys[k] = static_cast<int64_t>(
          storage::Mix64(t.rowid + static_cast<uint64_t>(k)));
    }
  }
  return batch;
}

/// Build-side tuples with `fanout` duplicates of each key the probe batch
/// uses, so every probe finds exactly `fanout` matches.
std::vector<Tuple> MakeBuildSide(const std::vector<Tuple>& probes,
                                 int key_field, int64_t fanout) {
  std::vector<Tuple> build;
  build.reserve(probes.size() * static_cast<size_t>(fanout));
  for (const Tuple& p : probes) {
    for (int64_t d = 0; d < fanout; ++d) {
      Tuple t = p;
      t.rowid = storage::Mix64(p.rowid + static_cast<uint64_t>(d) + 7);
      t.keys[key_field] = p.keys[key_field];
      build.push_back(t);
    }
  }
  return build;
}

/// A probe benchmark's input: the build side and a pool of probe tuples;
/// iterations probe consecutive `batch`-sized slices of the pool.
struct ProbeInput {
  std::vector<Tuple> build;
  std::vector<Tuple> pool;
};

constexpr int kProbeKeyField = 0;
/// Probe pool size for the large build sides: enough slices that
/// successive batches land on different buckets, as in the executor.
constexpr int64_t kProbePool = int64_t{1} << 16;

/// With build_rows == 0, one batch whose every tuple finds exactly
/// `fanout` matches among batch x fanout build rows. Otherwise build_rows
/// rows holding `fanout` duplicates each of build_rows / fanout keys
/// (distinct keys at fanout 0), and a pool whose probes find `fanout`
/// matches each.
ProbeInput MakeProbeInput(int64_t batch, int64_t fanout, int64_t build_rows) {
  ProbeInput in;
  if (build_rows == 0) {
    in.pool = MakeBatch(batch, 42);
    in.build = MakeBuildSide(in.pool, kProbeKeyField, fanout);
    return in;
  }
  const int64_t dups = fanout > 0 ? fanout : 1;
  const std::vector<Tuple> keys = MakeBatch(build_rows / dups, 7);
  in.build = MakeBuildSide(keys, kProbeKeyField, dups);
  in.pool = MakeBatch(kProbePool, 42);
  if (fanout > 0) {
    for (Tuple& p : in.pool) {
      const size_t k = static_cast<size_t>(p.rowid % keys.size());
      p.keys[kProbeKeyField] = keys[k].keys[kProbeKeyField];
    }
  }
  return in;
}

/// The next `batch` probes of the pool, wrapping at its end.
const Tuple* NextProbes(const ProbeInput& in, int64_t batch,
                        int64_t* cursor) {
  if (*cursor + batch > static_cast<int64_t>(in.pool.size())) *cursor = 0;
  const Tuple* probes = in.pool.data() + *cursor;
  *cursor += batch;
  return probes;
}

/// Probe grid: the original batches of 256-8192 against their own build
/// side, and batches of 1, 4 and 32 — the executor's common sizes —
/// against a 45 000-row build side, the size of paper_grid's J1 operand.
void ProbeArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"batch", "fanout", "build"})
      ->ArgsProduct({{256, 2048, 8192}, {0, 1, 4}, {0}})
      ->ArgsProduct({{1, 4, 32}, {0, 1, 4}, {45000}});
}

double SelectivityArg(int64_t permille) {
  return static_cast<double>(permille) / 1000.0;
}

/// Scalar filter: the pre-vectorization kernel — evaluate, push_back.
void BM_FilterScalar(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const double sel = SelectivityArg(state.range(1));
  const std::vector<Tuple> in = MakeBatch(batch, 42);
  std::vector<Tuple> out;
  out.reserve(in.size());
  for (auto _ : state) {
    out.clear();
    for (const Tuple& t : in) {
      if (storage::FilterPasses(t.rowid, kFilterNode, sel)) {
        out.push_back(t);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FilterScalar)
    ->ArgsProduct({{256, 2048, 8192}, {50, 500, 950}});

/// Vectorized filter: compact the passing positions into a position
/// array; tuples are not copied (the sink gathers, when needed, once per
/// batch).
void BM_FilterVectorized(benchmark::State& state) {
  const auto batch = static_cast<uint32_t>(state.range(0));
  const double sel = SelectivityArg(state.range(1));
  const std::vector<Tuple> in = MakeBatch(batch, 42);
  std::vector<uint32_t> ids(batch);
  for (auto _ : state) {
    uint32_t n = 0;
    for (uint32_t i = 0; i < batch; ++i) {
      if (storage::FilterPasses(in[i].rowid, kFilterNode, sel)) ids[n++] = i;
    }
    benchmark::DoNotOptimize(ids.data());
    benchmark::DoNotOptimize(n);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FilterVectorized)
    ->ArgsProduct({{256, 2048, 8192}, {50, 500, 950}});

/// Scalar probe: per-tuple prefetch-one-ahead, bucket scan, push_back
/// per match; reads each match's rowid from the build tuple, as
/// ProcessBatchScalar does.
void BM_ProbeScalar(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const ProbeInput in =
      MakeProbeInput(batch, state.range(1), state.range(2));
  HashIndex index;
  index.Build(in.build, kProbeKeyField);
  std::vector<Tuple> out;
  int64_t cursor = 0;
  for (auto _ : state) {
    const Tuple* probes = NextProbes(in, batch, &cursor);
    out.clear();
    for (int64_t i = 0; i < batch; ++i) {
      if (i + 1 < batch) index.Prefetch(probes[i + 1].keys[kProbeKeyField]);
      const Tuple& t = probes[i];
      index.ForEachMatch(t.keys[kProbeKeyField], [&](size_t idx) {
        Tuple r = t;
        r.rowid = storage::CombineRowid(in.build[idx].rowid, t.rowid);
        out.push_back(r);
      });
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ProbeScalar)->Apply(ProbeArgs);

/// Vectorized probe — the executor's two-pass kernel: hash the whole
/// batch (prefetching bucket bounds), count each probe's matches with the
/// prefetcher running ahead, then expand into a pre-sized buffer, reading
/// each match's rowid from the index entry, never from the build tuples.
void BM_ProbeVectorized(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const ProbeInput in =
      MakeProbeInput(batch, state.range(1), state.range(2));
  HashIndex index;
  index.Build(in.build, kProbeKeyField);
  constexpr uint32_t kDist = 8;
  const uint32_t n = static_cast<uint32_t>(batch);
  std::vector<int64_t> keys(n);
  std::vector<uint64_t> pos(n);
  std::vector<uint32_t> counts(n);
  std::vector<Tuple> out;
  int64_t cursor = 0;
  for (auto _ : state) {
    const Tuple* probes = NextProbes(in, batch, &cursor);
    for (uint32_t i = 0; i < n; ++i) {
      keys[i] = probes[i].keys[kProbeKeyField];
      pos[i] = index.BucketOf(keys[i]);
    }
    for (uint32_t i = 0; i < (n < kDist ? n : kDist); ++i) {
      index.PrefetchBucket(pos[i]);
    }
    int64_t total = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (i + kDist < n) index.PrefetchBucket(pos[i + kDist]);
      counts[i] = index.CountMatches(pos[i], keys[i], &pos[i]);
      total += counts[i];
    }
    if (static_cast<int64_t>(out.size()) < total) {
      out.resize(static_cast<size_t>(total));
    }
    Tuple* dst = out.data();
    int64_t off = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (counts[i] == 0) continue;
      const Tuple& t = probes[i];
      index.ForEachMatchFromN(pos[i], keys[i], counts[i],
                              [&](const HashIndex::Entry& e) {
                                Tuple r = t;
                                r.rowid = storage::CombineRowid(e.rowid,
                                                                t.rowid);
                                dst[off++] = r;
                              });
    }
    benchmark::DoNotOptimize(dst);
    benchmark::DoNotOptimize(off);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ProbeVectorized)->Apply(ProbeArgs);

}  // namespace
}  // namespace dqsched

BENCHMARK_MAIN();

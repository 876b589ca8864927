// The benchmark program: runs one workload of the dqsched benchmark and
// prints its raw measurements as one JSON object on stdout.
// perfbench/run.py builds this binary, derives the metrics from the JSON
// and checks the answers; see perfbench/NOTES.md for the workloads and
// metrics.
//
//   perfbench --workload=paper_grid|fleet_storm
//             --seed=N --seconds=S --mode=timed|traced [--spans=PATH]
//
// timed:  repeated passes over identical inputs (one pass = the workload's
//         Create calls, then its Execute calls) until S host seconds have
//         passed, at least three passes and one per fleet stream;
//         tracing off. A host-speed probe runs between calls.
// traced: one pass with a span around every call this program makes into a
//         layer, the counters the program returns, a 1-thread repeat of
//         each fleet Execute, and replays that split set-up and the hot
//         paths by layer. Spans go to PATH as Chrome trace-event JSON.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/comm_manager.h"
#include "common/random.h"
#include "core/fleet_executor.h"
#include "core/mediator.h"
#include "exec/hash_index.h"
#include "plan/canonical_plans.h"
#include "plan/compiled_plan.h"
#include "plan/reference_executor.h"
#include "storage/relation.h"
#include "wrapper/delay_model.h"
#include "wrapper/wrapper.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace dqsched;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- JSON output ----------------------------------------------------------

/// Streaming writer for one JSON document; numbers keep every digit.
class Json {
 public:
  Json& Open(const char* key, char bracket) {
    Key(key);
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  Json& Int(const char* key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  // A null key is an array element.
  void Key(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  bool first_ = true;
};

// ---- Spans (traced mode) --------------------------------------------------

/// In-memory span log. A span opened while another is open becomes its
/// child; spans are written out once, at exit, as Chrome trace events.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int64_t request = -1;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  int Begin(std::string name, std::string layer, int64_t request) {
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = Clock::now();
    open_.pop_back();
    return SecondsBetween(s.start, s.end);
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = 1e6 * SecondsBetween(origin_, s.start);
      const double dur = 1e6 * SecondsBetween(s.start, s.end);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(), ts,
                   dur, i, s.parent, static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that is a no-op without a log (timed mode); it always
/// measures its own host seconds.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, std::string layer,
        int64_t request = -1)
      : log_(log), start_(Clock::now()) {
    if (log_ != nullptr) id_ = log_->Begin(std::move(name), std::move(layer),
                                            request);
  }
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double Stop() {
    if (!stopped_) {
      seconds_ = log_ != nullptr ? log_->End(id_)
                                 : SecondsBetween(start_, Clock::now());
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  Clock::time_point start_;
  int id_ = -1;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---- Host-speed probe -----------------------------------------------------
//
// On a shared host the speed of memory-bound code drifts: neighbours slow
// the program by up to 2x for seconds to minutes while ALU loops barely
// move (NOTES N2, N7). The probe is a fixed kernel that calls no repo code
// but has the program's profile: a discrete-event loop over a heap, with
// small allocations and a virtual call per event, then a hash-table build
// and probe. Timed runs interleave it with the workload, and run.py scales
// each pass's host times by the probe's nominal time over its time around
// that pass.

struct ProbeEvent {
  virtual ~ProbeEvent() = default;
  virtual uint64_t Fire(uint64_t x) const = 0;
};
struct ProbeMul final : ProbeEvent {
  uint64_t Fire(uint64_t x) const override { return x * 3 + 1; }
};
struct ProbeXor final : ProbeEvent {
  uint64_t Fire(uint64_t x) const override { return x ^ (x >> 7); }
};
struct ProbeAdd final : ProbeEvent {
  uint64_t Fire(uint64_t x) const override { return x + 0x9e37; }
};

std::unique_ptr<ProbeEvent> MakeProbeEvent(uint64_t x) {
  switch (x % 3) {
    case 0:
      return std::make_unique<ProbeMul>();
    case 1:
      return std::make_unique<ProbeXor>();
    default:
      return std::make_unique<ProbeAdd>();
  }
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr int kProbeEvents = 100000;
constexpr int kProbeKeys = 70000;
volatile uint64_t probe_sink = 0;

/// Runs the probe kernel once (the same work every time); host seconds.
double ProbeSeconds() {
  const Clock::time_point t0 = Clock::now();
  uint64_t rng = 42;
  uint64_t acc = 0;
  {
    using Item = std::pair<uint64_t, std::unique_ptr<ProbeEvent>>;
    auto later = [](const Item& a, const Item& b) { return a.first > b.first; };
    std::vector<Item> heap;
    for (int i = 0; i < 256; ++i) {
      heap.emplace_back(SplitMix64(&rng) % 1000,
                        MakeProbeEvent(SplitMix64(&rng)));
      std::push_heap(heap.begin(), heap.end(), later);
    }
    for (int i = 0; i < kProbeEvents; ++i) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Item item = std::move(heap.back());
      heap.pop_back();
      acc += item.second->Fire(item.first);
      const std::vector<int> payload(1 + acc % 8, 1);
      acc += payload.size();
      heap.emplace_back(item.first + 1 + SplitMix64(&rng) % 100,
                        MakeProbeEvent(acc));
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  {
    constexpr uint64_t kRange = 4 * kProbeKeys;
    std::unordered_map<uint64_t, uint64_t> table;
    for (int i = 0; i < kProbeKeys; ++i) {
      table.emplace(SplitMix64(&rng) % kRange, i);
    }
    for (int i = 0; i < 2 * kProbeKeys; ++i) {
      const auto it = table.find(SplitMix64(&rng) % kRange);
      if (it != table.end()) acc += it->second;
    }
  }
  probe_sink = acc;
  return SecondsBetween(t0, Clock::now());
}

// ---- Workload inputs -------------------------------------------------------

constexpr double kGridScale = 0.3;
constexpr double kFleetScale = 0.5;
constexpr int kFleetJobs = 2;
constexpr core::StrategyKind kFleetStrategy = core::StrategyKind::kDse;
/// Independent streams a fleet run cycles through; the virtual results
/// pool them, which narrows their spread across seeds.
constexpr int kFleetStreams = 16;
/// Timed runs probe the host's speed before every tenth grid query, and
/// three times between fleet passes.
constexpr size_t kGridProbeEvery = 10;
constexpr int kFleetProbes = 3;

struct GridQuery {
  std::string label;
  plan::QuerySetup setup;
  core::StrategyKind kind;
};

/// One pass of paper_grid: the Figure 6 and 7 slowed-relation sweeps under
/// SEQ, DSE and MA, then the Figure 8 w_min sweep under SEQ and DSE, on the
/// Figure 5 query at kGridScale (the bench_fig6/7/8 grids).
std::vector<GridQuery> PaperGrid() {
  std::vector<GridQuery> grid;
  for (const char* relation : {"A", "F"}) {
    const plan::QuerySetup base = plan::PaperFigure5Query(kGridScale);
    const SourceId slowed = base.catalog.Find(relation);
    const int64_t n = base.catalog.source(slowed).relation.cardinality;
    const double base_total_s =
        static_cast<double>(n) * base.catalog.source(slowed).delay.mean_us /
        1e6;
    std::vector<double> targets_s = {base_total_s};
    for (double t = 2.0; t <= 10.01; t += 2.0) {
      if (t * kGridScale > base_total_s * 1.01) {
        targets_s.push_back(t * kGridScale);
      }
    }
    for (double target : targets_s) {
      plan::QuerySetup setup = base;
      setup.catalog.source(slowed).delay.mean_us =
          target * 1e6 / static_cast<double>(n);
      for (core::StrategyKind kind :
           {core::StrategyKind::kSeq, core::StrategyKind::kDse,
            core::StrategyKind::kMa}) {
        grid.push_back({std::string("slow") + relation + "=" +
                            std::to_string(target) + "s/" +
                            core::StrategyName(kind),
                        setup, kind});
      }
    }
  }
  for (double w : {5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80, 100, 120}) {
    const plan::QuerySetup setup = plan::PaperFigure5Query(kGridScale, w);
    for (core::StrategyKind kind :
         {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
      grid.push_back({"wmin=" + std::to_string(static_cast<int>(w)) + "us/" +
                          core::StrategyName(kind),
                      setup, kind});
    }
  }
  return grid;
}

struct FleetInputs {
  std::vector<plan::QuerySetup> templates;
  std::vector<core::FleetQuerySpec> stream;
  core::FleetConfig config;
};

/// bench_fleet's stream at kFleetScale under a region-outage storm and
/// bench_fleet --deadline=40 deadlines: three quarter-scale templates (the
/// paper query, then relation A or F slowed 3x) mixed 60/25/15 over a
/// Poisson stream of 192 queries, 8 shards, the tight broker budget, a cold
/// cache. It runs under DSE.
FleetInputs MakeFleet(uint64_t seed) {
  FleetInputs in;
  const double qscale = 0.25 * kFleetScale;
  in.templates.push_back(plan::PaperFigure5Query(qscale));
  for (const char* slowed : {"A", "F"}) {
    plan::QuerySetup t = plan::PaperFigure5Query(qscale);
    t.catalog.source(t.catalog.Find(slowed)).delay.mean_us *= 3.0;
    in.templates.push_back(std::move(t));
  }
  const int queries = 192;
  Rng stream(seed ^ 0xF1EE7ULL);
  SimTime at = 0;
  for (int q = 0; q < queries; ++q) {
    at += Seconds(stream.Exponential(0.05 * kFleetScale));
    core::FleetQuerySpec spec;
    spec.arrival = at;
    const double mix = stream.NextDouble();
    spec.template_idx = mix < 0.60 ? 0 : (mix < 0.85 ? 1 : 2);
    spec.fairness = spec.template_idx == 0 ? core::FairnessClass::kInteractive
                                           : core::FairnessClass::kBatch;
    in.stream.push_back(spec);
  }
  auto scaled = [](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) * kFleetScale);
  };
  core::FleetConfig& c = in.config;
  c.seed = seed;
  c.num_shards = 8;
  c.memory_budget_bytes =
      static_cast<int64_t>(64.0 * 1024 * 1024 * kFleetScale);
  c.breaker.cooldown = scaled(Seconds(1));
  c.breaker.max_cooldown = scaled(Seconds(30));
  c.retry_backoff_initial = scaled(Milliseconds(50));
  c.cache.enabled = true;
  c.deadline_budget = scaled(Seconds(40));
  c.storm.kind = wrapper::StormKind::kRegionOutage;
  c.storm.onset = scaled(Seconds(0.3));
  c.storm.outage = scaled(Seconds(2.0));
  return in;
}

// ---- Per-layer replays (traced mode) --------------------------------------
//
// Each replay calls one layer's public functions on the workload's own
// inputs. The seed derivations mirror core/mediator.cc (paper_grid) and
// core/fleet_executor.cc (fleets), so the replayed reference answer must
// equal the one the program computed; the traced run checks that.

uint64_t MediatorSourceSeed(uint64_t base, SourceId s, uint64_t salt) {
  return storage::Mix64(base ^ (static_cast<uint64_t>(s) + 1) * salt);
}
constexpr uint64_t kMediatorDataSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMediatorDelaySalt = 0xc2b2ae3d27d4eb4fULL;

uint64_t FleetDataSeed(uint64_t base, size_t tmpl, SourceId s) {
  const uint64_t a = 0x7E3D + tmpl;
  const uint64_t b = static_cast<uint64_t>(s);
  return storage::Mix64(base ^ (a + 1) * 0x9e3779b97f4a7c15ULL ^
                        (b + 1) * 0xc2b2ae3d27d4eb4fULL);
}

/// A query's set-up, redone layer by layer.
struct Prepared {
  plan::CompiledPlan compiled;
  std::vector<storage::Relation> data;
  plan::ReferenceResult reference;
};

struct SetupSplit {
  double compile_s = 0;
  double generate_s = 0;
  double reference_s = 0;
  double delay_replay_s = 0;
};

/// Redoes Create's set-up of `setup` under spans: compile + annotate, data
/// generation, the reference answer (only when `with_reference`, as the
/// process-wide memo spares repeats), and the delay replay.
Prepared PrepareByLayer(const plan::QuerySetup& setup,
                        const sim::CostModel& cost,
                        const std::function<uint64_t(SourceId)>& data_seed,
                        uint64_t delay_base, bool with_reference,
                        SpanLog* log, SetupSplit* split) {
  Prepared p;
  {
    Scope s(log, "plan.Compile+Annotate", "plan");
    Result<plan::CompiledPlan> compiled =
        plan::Compile(setup.plan, setup.catalog);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile: %s\n",
                   compiled.status().ToString().c_str());
      std::exit(1);
    }
    p.compiled = std::move(compiled.value());
    if (!plan::Annotate(&p.compiled, setup.catalog, cost).ok()) {
      std::fprintf(stderr, "annotate failed\n");
      std::exit(1);
    }
    split->compile_s += s.Stop();
  }
  {
    Scope s(log, "storage.GenerateRelation", "storage");
    for (SourceId src = 0; src < setup.catalog.num_sources(); ++src) {
      p.data.push_back(storage::GenerateRelation(
          setup.catalog.source(src).relation, src, Rng(data_seed(src))));
    }
    split->generate_s += s.Stop();
  }
  if (with_reference) {
    Scope s(log, "plan.ExecuteReference", "plan");
    p.reference = plan::ExecuteReference(p.compiled, p.data);
    split->reference_s += s.Stop();
  }
  {
    Scope s(log, "wrapper.delay_replay", "wrapper");
    for (SourceId src = 0; src < setup.catalog.num_sources(); ++src) {
      Rng rng(MediatorSourceSeed(delay_base, src, kMediatorDelaySalt));
      auto model = wrapper::MakeDelayModel(setup.catalog.source(src).delay);
      const int64_t n = setup.catalog.source(src).relation.cardinality;
      for (int64_t i = 0; i < n; ++i) (void)model->NextDelay(i, rng);
    }
    split->delay_replay_s += s.Stop();
  }
  return p;
}

/// exec::HashIndex::Build over every base relation that feeds a build
/// operand directly; nanoseconds per row.
double HashBuildNsPerRow(const Prepared& p, SpanLog* log) {
  Scope s(log, "exec.HashIndex::Build", "exec");
  int64_t rows = 0;
  double seconds = 0;
  exec::HashIndex index;
  for (int rep = 0; rep < 20; ++rep) {
    for (const plan::ChainInfo& chain : p.compiled.chains) {
      if (chain.sink_join < 0 || !chain.ops.empty()) continue;
      const auto& tuples = p.data[static_cast<size_t>(chain.source)].tuples;
      const Clock::time_point t0 = Clock::now();
      index.Build(tuples, chain.build_key_field);
      seconds += SecondsBetween(t0, Clock::now());
      rows += static_cast<int64_t>(tuples.size());
    }
  }
  return rows > 0 ? 1e9 * seconds / static_cast<double>(rows) : 0.0;
}

/// One RateChangedSincePlan call after a delivery, over `sources` sources
/// (one shard's worth) built from the template relations; median ns per
/// call, net of the clock's own cost.
double RateCheckNs(const plan::QuerySetup& setup, const Prepared& p,
                   int sources, uint64_t seed, SpanLog* log) {
  Scope s(log, "comm.RateChangedSincePlan", "comm");
  sim::CostModel cost;
  comm::CommManager cm{comm::CommConfig{}};
  const int per_template = setup.catalog.num_sources();
  for (int i = 0; i < sources; ++i) {
    const SourceId src = i % per_template;
    cm.AddSource(std::make_unique<wrapper::SimWrapper>(
                     i, &p.data[static_cast<size_t>(src)],
                     setup.catalog.source(src).delay,
                     MediatorSourceSeed(seed, i, kMediatorDelaySalt)),
                 static_cast<double>(cost.MinWaitingTime()));
  }
  std::vector<int64_t> ns;
  std::vector<int64_t> clock_ns;
  storage::Tuple tuple;
  SimTime now = 0;
  cm.MarkPlanned(now);
  for (int i = 0; i < 20000; ++i) {
    const SourceId src = i % sources;
    const SimTime next = cm.NextArrival(src);
    if (next == kSimTimeNever) continue;
    now = std::max(now, next);
    if (cm.Pop(src, now, &tuple, 1) != 1) continue;
    Clock::time_point t0 = Clock::now();
    const bool changed = cm.RateChangedSincePlan(now);
    Clock::time_point t1 = Clock::now();
    Clock::time_point t2 = Clock::now();
    ns.push_back((t1 - t0).count());
    clock_ns.push_back((t2 - t1).count());
    if (changed) cm.MarkPlanned(now);
  }
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  std::sort(clock_ns.begin(), clock_ns.end());
  const auto per_tick = static_cast<double>(Clock::period::num) * 1e9 /
                        static_cast<double>(Clock::period::den);
  return per_tick * static_cast<double>(ns[ns.size() / 2] -
                                        clock_ns[clock_ns.size() / 2]);
}

/// Drains the template's largest relation through a one-source
/// CommManager; host ns per delivered tuple.
double DeliverNsPerTuple(const plan::QuerySetup& setup, const Prepared& p,
                         uint64_t seed, SpanLog* log) {
  Scope s(log, "comm.deliver", "comm");
  SourceId largest = 0;
  for (SourceId src = 1; src < setup.catalog.num_sources(); ++src) {
    if (p.data[static_cast<size_t>(src)].cardinality() >
        p.data[static_cast<size_t>(largest)].cardinality()) {
      largest = src;
    }
  }
  sim::CostModel cost;
  int64_t tuples = 0;
  double seconds = 0;
  std::vector<storage::Tuple> buffer(1024);
  for (int rep = 0; rep < 5; ++rep) {
    comm::CommManager cm{comm::CommConfig{}};
    cm.AddSource(std::make_unique<wrapper::SimWrapper>(
                     0, &p.data[static_cast<size_t>(largest)],
                     setup.catalog.source(largest).delay,
                     MediatorSourceSeed(seed, largest, kMediatorDelaySalt)),
                 static_cast<double>(cost.MinWaitingTime()));
    const Clock::time_point t0 = Clock::now();
    SimTime now = 0;
    while (!cm.SourceExhausted(0)) {
      const SimTime next = cm.NextArrival(0);
      if (next == kSimTimeNever) break;
      now = std::max(now, next) + Milliseconds(1);
      tuples += cm.Pop(0, now, buffer.data(),
                       static_cast<int64_t>(buffer.size()));
    }
    seconds += SecondsBetween(t0, Clock::now());
  }
  return tuples > 0 ? 1e9 * seconds / static_cast<double>(tuples) : 0.0;
}

void EmitReplays(Json& j, const SetupSplit& split, double hash_ns,
                 double rate_ns, double deliver_ns) {
  j.Open("replays", '{')
      .Num("compile_s", split.compile_s)
      .Num("generate_s", split.generate_s)
      .Num("reference_s", split.reference_s)
      .Num("delay_replay_s", split.delay_replay_s)
      .Num("hash_build_ns_per_row", hash_ns)
      .Num("rate_check_ns", rate_ns)
      .Num("deliver_ns_per_tuple", deliver_ns)
      .Close('}');
}

// ---- Emitting program outputs ---------------------------------------------

void EmitExecution(Json& j, const core::ExecutionMetrics& m) {
  j.Num("response_s", ToSecondsF(m.response_time))
      .Num("busy_s", ToSecondsF(m.busy_time))
      .Num("stalled_s", ToSecondsF(m.stalled_time))
      .Int("result_count", m.result_count)
      .Str("checksum", std::to_string(m.result_checksum))
      .Int("planning_phases", m.planning_phases)
      .Int("execution_phases", m.execution_phases)
      .Int("rate_change_events", m.rate_change_events)
      .Num("planning_host_s", m.planning_host_seconds)
      .Int("tuples_received", m.network.tuples_received)
      .Int("temp_tuples_written", m.temps.tuples_written)
      .Int("temp_tuples_read", m.temps.tuples_read)
      .Int("pages_written", m.disk.pages_written)
      .Int("pages_read", m.disk.pages_read)
      .Int("sources_suspected", m.fault.sources_suspected)
      .Int("cache_misses", m.cache.segment_misses + m.cache.result_misses)
      .Int("cache_admitted",
           m.cache.admitted_segments + m.cache.admitted_results)
      .Bool("partial", m.fault.partial_result);
}

/// The execution fields every deterministic rerun must reproduce.
bool SameSimulation(const core::ExecutionMetrics& a,
                    const core::ExecutionMetrics& b) {
  return a.response_time == b.response_time && a.busy_time == b.busy_time &&
         a.stalled_time == b.stalled_time &&
         a.result_count == b.result_count &&
         a.result_checksum == b.result_checksum &&
         a.planning_phases == b.planning_phases &&
         a.execution_phases == b.execution_phases &&
         a.network.tuples_received == b.network.tuples_received &&
         a.temps.tuples_written == b.temps.tuples_written &&
         a.disk.pages_written == b.disk.pages_written;
}

bool SameFleet(const core::FleetMetrics& a, const core::FleetMetrics& b) {
  if (a.makespan != b.makespan || a.rounds != b.rounds ||
      a.queries.size() != b.queries.size() ||
      a.status_counts != b.status_counts) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const core::FleetQueryOutcome& x = a.queries[i];
    const core::FleetQueryOutcome& y = b.queries[i];
    if (x.status != y.status || x.completed != y.completed ||
        x.admitted != y.admitted || x.attempts != y.attempts ||
        !SameSimulation(x.metrics, y.metrics)) {
      return false;
    }
  }
  return true;
}

void EmitProbes(Json& j, const std::vector<double>& probes) {
  j.Open("probe_s", '[');
  for (double s : probes) j.Num(nullptr, s);
  j.Close(']');
}

void EmitFleet(Json& j, const core::FleetMetrics& r) {
  j.Num("makespan_s", ToSecondsF(r.makespan))
      .Int("rounds", r.rounds)
      .Int("broker_queued", r.broker.queued_admissions)
      .Int("broker_shed", r.broker.shed_requests)
      .Int("breaker_trips", r.breakers.trips)
      .Int("cache_misses", r.cache.segment_misses + r.cache.result_misses)
      .Int("cache_admitted",
           r.cache.admitted_segments + r.cache.admitted_results);
  j.Open("shards", '[');
  for (const core::FleetShardOutcome& s : r.shards) {
    j.Open(nullptr, '{')
        .Int("queries", s.queries)
        .Num("busy_s", ToSecondsF(s.busy_time))
        .Num("stalled_s", ToSecondsF(s.stalled_time))
        .Int("temp_tuples_written", s.temps.tuples_written)
        .Int("temp_tuples_read", s.temps.tuples_read)
        .Int("pages_written", s.disk.pages_written)
        .Int("pages_read", s.disk.pages_read)
        .Int("tuples_received", s.network.tuples_received)
        .Close('}');
  }
  j.Close(']');
  j.Open("queries", '[');
  for (const core::FleetQueryOutcome& q : r.queries) {
    j.Open(nullptr, '{')
        .Int("template", q.template_idx)
        .Str("status", core::QueryStatusName(q.status))
        .Int("attempts", q.attempts)
        .Num("latency_s", ToSecondsF(q.completion_latency))
        .Num("admission_wait_s", q.status == core::QueryStatus::kShed
                                     ? 0.0
                                     : ToSecondsF(q.admitted - q.arrival));
    EmitExecution(j, q.metrics);
    j.Close('}');
  }
  j.Close(']');
}

// ---- Workloads --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string spans;
};

/// A traced run makes exactly `traced_passes` passes; a timed run makes
/// at least `min_passes` (three, or one per input) and stops at the first
/// pass boundary after args.seconds.
bool MorePasses(const Args& args, int pass, int traced_passes,
                int min_passes, Clock::time_point begin) {
  if (args.traced) return pass < traced_passes;
  return pass < std::max(3, min_passes) ||
         SecondsBetween(begin, Clock::now()) < args.seconds;
}

void RunPaperGrid(const Args& args, Json& j, SpanLog* log) {
  const std::vector<GridQuery> grid = PaperGrid();
  core::MediatorConfig config;
  config.seed = args.seed;
  config.verify_results = true;

  j.Int("queries_per_pass", static_cast<int64_t>(grid.size()));
  j.Open("passes", '[');
  const Clock::time_point begin = Clock::now();
  std::vector<int64_t> batch_hist;  // traced: tuples per batch -> batches
  int64_t traced_batches = 0;
  double untraced_s = 0;
  double traced_s = 0;
  bool traced_matches = true;
  // Every grid query shares the Figure 5 data, hence one reference answer.
  int64_t ref_count = -1;
  uint64_t ref_checksum = 0;
  for (int pass = 0; MorePasses(args, pass, 1, 1, begin); ++pass) {
    j.Open(nullptr, '{');
    double setup_s = 0;
    std::vector<double> probes;
    j.Open("queries", '[');
    for (size_t i = 0; i < grid.size(); ++i) {
      const GridQuery& q = grid[i];
      const auto request = static_cast<int64_t>(i);
      if (!args.traced && i % kGridProbeEvery == 0) {
        probes.push_back(ProbeSeconds());
      }
      j.Open(nullptr, '{').Str("label", q.label);
      Scope create(log, "core.Mediator::Create", "core", request);
      Result<core::Mediator> m =
          core::Mediator::Create(q.setup.catalog, q.setup.plan, config);
      const double create_s = create.Stop();
      setup_s += create_s;
      j.Num("create_s", create_s);
      if (!m.ok()) {
        j.Str("error", m.status().ToString()).Close('}');
        continue;
      }
      // Traced passes run Execute and ExecuteTraced back to back, in
      // alternating order, so their host times compare fairly.
      Result<core::ExecutionMetrics> r = Status::Internal("not run");
      Result<core::Mediator::TracedExecution> t = Status::Internal("not run");
      auto run_plain = [&] {
        Scope s(log, "core.Mediator::Execute", "core", request);
        r = m->Execute(q.kind);
        return s.Stop();
      };
      auto run_traced = [&] {
        Scope s(log, "core.Mediator::ExecuteTraced", "core", request);
        t = m->ExecuteTraced(q.kind);
        return s.Stop();
      };
      double exec_s = 0;
      if (args.traced && i % 2 == 1) {
        traced_s += run_traced();
        exec_s = run_plain();
      } else {
        exec_s = run_plain();
        if (args.traced) traced_s += run_traced();
      }
      untraced_s += exec_s;
      j.Num("exec_s", exec_s);
      if (!r.ok()) {
        j.Str("error", r.status().ToString()).Close('}');
        continue;
      }
      j.Bool("ok", true).Str("strategy", core::StrategyName(q.kind));
      EmitExecution(j, *r);
      j.Int("ref_count", m->reference().result_card)
          .Str("ref_checksum", std::to_string(m->reference().checksum.value()))
          .Num("lwb_s", ToSecondsF(m->LowerBound().bound()));
      if (args.traced) {
        if (!t.ok() || !SameSimulation(*r, t->metrics)) {
          traced_matches = false;
        } else {
          for (const core::TraceBatch& b : t->trace.batches()) {
            const auto k =
                static_cast<size_t>(std::max<int64_t>(0, b.consumed));
            if (batch_hist.size() <= k) batch_hist.resize(k + 1);
            ++batch_hist[k];
            ++traced_batches;
          }
        }
      }
      j.Close('}');
      ref_count = m->reference().result_card;
      ref_checksum = m->reference().checksum.value();
    }
    j.Close(']');
    j.Num("setup_s", setup_s);
    EmitProbes(j, probes);
    j.Close('}');
  }
  j.Close(']');
  if (!args.traced) return;

  j.Num("execute_s", untraced_s).Num("execute_traced_s", traced_s)
      .Bool("traced_matches", traced_matches)
      .Int("batches", traced_batches);
  j.Open("batch_hist", '[');
  for (int64_t n : batch_hist) j.Int(nullptr, n);
  j.Close(']');

  // Set-up split by layer over the pass's 59 set-ups; the reference runs
  // once, as every grid query shares the Figure 5 data.
  SetupSplit split;
  Prepared first_prep;
  {
    Scope s(log, "perfbench.setup_split", "bench");
    for (size_t i = 0; i < grid.size(); ++i) {
      Prepared p = PrepareByLayer(
          grid[i].setup, config.cost,
          [&](SourceId src) {
            return MediatorSourceSeed(args.seed, src, kMediatorDataSalt);
          },
          args.seed, i == 0, log, &split);
      if (i == 0) first_prep = std::move(p);
    }
  }
  j.Bool("reference_matches",
         first_prep.reference.result_card == ref_count &&
             first_prep.reference.checksum.value() == ref_checksum);
  const plan::QuerySetup base = plan::PaperFigure5Query(kGridScale);
  j.Int("sources_per_shard", base.catalog.num_sources());
  const double hash_ns = HashBuildNsPerRow(first_prep, log);
  const double rate_ns = RateCheckNs(base, first_prep,
                                     base.catalog.num_sources(), args.seed,
                                     log);
  const double deliver_ns = DeliverNsPerTuple(base, first_prep, args.seed,
                                              log);
  EmitReplays(j, split, hash_ns, rate_ns, deliver_ns);
}

/// The seed of stream k of a run: its arrivals, template mix, data,
/// delays, shard placement and storm jitter all derive from it.
uint64_t StreamSeed(uint64_t seed, int k) {
  return seed * kFleetStreams + static_cast<uint64_t>(k);
}

void RunFleet(const Args& args, Json& j, SpanLog* log) {
  std::vector<FleetInputs> streams;
  for (int k = 0; k < kFleetStreams; ++k) {
    streams.push_back(MakeFleet(StreamSeed(args.seed, k)));
  }
  const FleetInputs& proto = streams[0];
  j.Int("queries_per_pass", static_cast<int64_t>(proto.stream.size()))
      .Int("streams", kFleetStreams)
      .Int("jobs", kFleetJobs);

  // Each template's single-query lower bound, the fleets' LWB yardstick
  // (a Mediator over the template at the stream's seed; untimed).
  j.Open("template_lwb_s", '[');
  for (int k = 0; k < kFleetStreams; ++k) {
    j.Open(nullptr, '[');
    for (const plan::QuerySetup& t : proto.templates) {
      core::MediatorConfig mc;
      mc.seed = StreamSeed(args.seed, k);
      Result<core::Mediator> m = core::Mediator::Create(t.catalog, t.plan, mc);
      j.Num(nullptr, m.ok() ? ToSecondsF(m->LowerBound().bound()) : 0.0);
    }
    j.Close(']');
  }
  j.Close(']');

  const int per_template = proto.templates[0].catalog.num_sources();
  int64_t attempts = 0;  // traced: sources registered = attempts x 6
  // Timed: the probes just before and just after a pass go with it.
  auto probe_block = [&] {
    std::vector<double> block;
    for (int i = 0; !args.traced && i < kFleetProbes; ++i) {
      block.push_back(ProbeSeconds());
    }
    return block;
  };
  j.Open("passes", '[');
  const Clock::time_point begin = Clock::now();
  std::vector<double> probes_before = probe_block();
  for (int pass = 0;
       MorePasses(args, pass, kFleetStreams, kFleetStreams, begin); ++pass) {
    const int k = pass % kFleetStreams;
    FleetInputs in = streams[static_cast<size_t>(k)];
    j.Open(nullptr, '{').Int("stream", k);
    Scope create(log, "core.FleetExecutor::Create", "core", pass);
    Result<core::FleetExecutor> fleet = core::FleetExecutor::Create(
        std::move(in.templates), std::move(in.stream), in.config);
    j.Num("setup_s", create.Stop());
    if (!fleet.ok()) {
      j.Str("error", fleet.status().ToString()).Close('}');
      continue;
    }
    Scope exec(log, "core.FleetExecutor::Execute", "core", pass);
    Result<core::FleetMetrics> r = fleet->Execute(kFleetStrategy, kFleetJobs);
    j.Num("exec_s", exec.Stop());
    if (!r.ok()) {
      j.Str("error", r.status().ToString()).Close('}');
      continue;
    }
    EmitFleet(j, *r);
    if (args.traced) {
      for (const core::FleetQueryOutcome& q : r->queries) {
        attempts += q.attempts;
      }
      // The same stream on one host thread: every virtual result must
      // match, and the wall-time ratio is the runner's speedup.
      fleet->ResetCache();
      Scope one(log, "core.FleetExecutor::Execute(1 thread)", "core", pass);
      Result<core::FleetMetrics> r1 = fleet->Execute(kFleetStrategy, 1);
      j.Num("exec_1thread_s", one.Stop())
          .Bool("threads_match", r1.ok() && SameFleet(*r, *r1));
    }
    std::vector<double> probes_after = probe_block();
    std::vector<double> around = probes_before;
    around.insert(around.end(), probes_after.begin(), probes_after.end());
    EmitProbes(j, around);
    probes_before = std::move(probes_after);
    j.Close('}');
  }
  j.Close(']');
  if (!args.traced) return;

  // Set-up split over every stream's templates, with the fleet's data
  // seeds, so the replayed references check every complete answer.
  SetupSplit split;
  std::vector<Prepared> prepared;  // stream-major
  {
    Scope s(log, "perfbench.setup_split", "bench");
    for (int k = 0; k < kFleetStreams; ++k) {
      const uint64_t seed = StreamSeed(args.seed, k);
      for (size_t t = 0; t < proto.templates.size(); ++t) {
        prepared.push_back(PrepareByLayer(
            proto.templates[t], proto.config.cost,
            [&](SourceId src) { return FleetDataSeed(seed, t, src); }, seed,
            true, log, &split));
      }
    }
  }
  j.Open("template_reference", '[');
  for (int k = 0; k < kFleetStreams; ++k) {
    j.Open(nullptr, '[');
    for (size_t t = 0; t < proto.templates.size(); ++t) {
      const Prepared& p = prepared[k * proto.templates.size() + t];
      j.Open(nullptr, '{')
          .Int("count", p.reference.result_card)
          .Str("checksum", std::to_string(p.reference.checksum.value()))
          .Close('}');
    }
    j.Close(']');
  }
  j.Close(']');
  // One shard's worth of sources: every attempt of a query registers its
  // template's sources on the query's shard.
  const int sources = std::max<int>(
      1, static_cast<int>(std::lround(
             static_cast<double>(attempts) * per_template /
             (proto.config.num_shards * kFleetStreams))));
  j.Int("sources_per_shard", sources);
  const double hash_ns = HashBuildNsPerRow(prepared[0], log);
  const double rate_ns = RateCheckNs(proto.templates[0], prepared[0],
                                     sources, args.seed, log);
  const double deliver_ns =
      DeliverNsPerTuple(proto.templates[0], prepared[0], args.seed, log);
  EmitReplays(j, split, hash_ns, rate_ns, deliver_ns);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || args->seconds < 0) return false;
    } else if (const char* v = value("--mode=")) {
      if (std::strcmp(v, "timed") != 0 && std::strcmp(v, "traced") != 0) {
        return false;
      }
      args->traced = std::strcmp(v, "traced") == 0;
    } else if (const char* v = value("--spans=")) {
      args->spans = v;
    } else {
      return false;
    }
  }
  return args->workload == "paper_grid" || args->workload == "fleet_storm";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=paper_grid|fleet_storm --seed=N "
                 "--seconds=S --mode=timed|traced [--spans=PATH]\n",
                 argv[0]);
    return 2;
  }
  SpanLog spans;
  SpanLog* log = args.traced ? &spans : nullptr;
  Json j;
  j.Open(nullptr, '{')
      .Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Str("mode", args.traced ? "traced" : "timed")
      .Str("build_flags", PERFBENCH_BUILD_FLAGS);
  {
    Scope root(log, "perfbench." + args.workload, "bench");
    if (args.workload == "paper_grid") {
      RunPaperGrid(args, j, log);
    } else {
      RunFleet(args, j, log);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  j.Close('}');
  if (log != nullptr && !args.spans.empty() && !spans.Write(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    return 1;
  }
  std::printf("%s\n", j.text().c_str());
  return 0;
}

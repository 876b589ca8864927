// dqsched_cli — run any experiment from the command line.
//
//   dqsched_cli --query=paper --slow=A:5 --strategy=all
//   dqsched_cli --query=random --sources=7 --seed=3 --strategy=dse --trace
//   dqsched_cli --query=paper --scale=0.2 --memory-mb=4 --strategy=dse
//
// Flags:
//   --query=paper|tiny|chain|random   workload (default paper)
//   --scale=F                         cardinality multiplier, > 0
//   --sources=N                       relations (random query)
//   --seed=N                          data + delay seed
//   --w=US                            mean inter-tuple delay for all sources
//   --slow=REL:FACTOR                 slow-delivery on one relation
//   --initial=REL:MS                  initial delay on one relation
//   --bursty=REL:LEN:GAPMS            bursty arrival on one relation
//   --strategy=seq|dse|ma|scr|dphj|all
//   --memory-mb=F  --bmt=F  --batch=N  --queue=N  --timeout-ms=F
//   --repeats=N                       seeds averaged per measurement (>= 1)
//   --trace                           print the DSE decision log + timeline
//   --csv                             machine-readable table

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/mediator.h"
#include "plan/canonical_plans.h"
#include "plan/query_generator.h"

namespace {

using namespace dqsched;

struct CliOptions {
  std::string query = "paper";
  double scale = 0.3;
  int sources = 6;
  uint64_t seed = 42;
  double w_us = -1.0;
  std::string strategy = "all";
  double memory_mb = 256.0;
  double bmt = 1.0;
  int64_t batch = 128;
  int64_t queue = 1024;
  double scr_timeout_ms = 100.0;
  int repeats = 1;
  bool trace = false;
  bool csv = false;
  // Per-relation delay overrides: (relation, kind, factor or ms, length).
  struct DelayOverride {
    std::string relation;
    wrapper::DelayKind kind;
    double p1 = 0;
    int64_t burst_length = 0;
  };
  std::vector<DelayOverride> overrides;
};

[[noreturn]] void Usage(const char* argv0, const char* complaint) {
  std::fprintf(stderr, "error: %s\n(see the header of %s for flags)\n",
               complaint, argv0);
  std::exit(2);
}

/// Reads all of `s`, a number inside flag `arg`, as a finite double;
/// anything else is a usage error.
double ParseDouble(const char* argv0, const std::string& arg,
                   const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v)) {
    Usage(argv0, (arg + ": '" + s + "' is not a finite number").c_str());
  }
  return v;
}

/// Reads `s` like ParseDouble and requires `s` × `unit`, the value in
/// bytes or nanoseconds, to fit an int64_t; anything else is a usage error.
double ParseScaled(const char* argv0, const std::string& arg,
                   const std::string& s, double unit) {
  const double v = ParseDouble(argv0, arg, s);
  if (!FitsInt64(v * unit)) {
    Usage(argv0, (arg + ": '" + s + "' overflows a 64-bit count").c_str());
  }
  return v;
}

/// Reads all of `s`, a number inside flag `arg`, as a decimal integer in
/// [lo, hi]; anything else is a usage error.
int64_t ParseInt(const char* argv0, const std::string& arg,
                 const std::string& s,
                 int64_t lo = std::numeric_limits<int64_t>::min(),
                 int64_t hi = std::numeric_limits<int64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    Usage(argv0, (arg + ": '" + s + "' is not an integer in range").c_str());
  }
  return v;
}

/// Splits "A:5" / "B:1000:50" on ':'.
std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t next = s.find(':', pos);
    if (next == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

CliOptions Parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--query=", 0) == 0) {
      o.query = value("--query=");
    } else if (arg.rfind("--scale=", 0) == 0) {
      o.scale = ParseDouble(argv[0], arg, value("--scale="));
    } else if (arg.rfind("--sources=", 0) == 0) {
      o.sources = static_cast<int>(
          ParseInt(argv[0], arg, value("--sources="), INT_MIN, INT_MAX));
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed =
          static_cast<uint64_t>(ParseInt(argv[0], arg, value("--seed=")));
    } else if (arg.rfind("--w=", 0) == 0) {
      o.w_us = ParseDouble(argv[0], arg, value("--w="));
    } else if (arg.rfind("--strategy=", 0) == 0) {
      o.strategy = value("--strategy=");
    } else if (arg.rfind("--memory-mb=", 0) == 0) {
      o.memory_mb =
          ParseScaled(argv[0], arg, value("--memory-mb="), 1024.0 * 1024.0);
    } else if (arg.rfind("--bmt=", 0) == 0) {
      o.bmt = ParseDouble(argv[0], arg, value("--bmt="));
    } else if (arg.rfind("--batch=", 0) == 0) {
      o.batch = ParseInt(argv[0], arg, value("--batch="));
    } else if (arg.rfind("--queue=", 0) == 0) {
      o.queue = ParseInt(argv[0], arg, value("--queue="));
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      o.scr_timeout_ms =
          ParseScaled(argv[0], arg, value("--timeout-ms="), 1e6);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      o.repeats = static_cast<int>(
          ParseInt(argv[0], arg, value("--repeats="), INT_MIN, INT_MAX));
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--csv") {
      o.csv = true;
    } else if (arg.rfind("--slow=", 0) == 0 ||
               arg.rfind("--initial=", 0) == 0 ||
               arg.rfind("--bursty=", 0) == 0) {
      const bool slow = arg.rfind("--slow=", 0) == 0;
      const bool initial = arg.rfind("--initial=", 0) == 0;
      const auto parts = SplitColons(
          arg.substr(arg.find('=') + 1));
      if (parts.size() < 2) Usage(argv[0], "bad delay override");
      CliOptions::DelayOverride ov;
      ov.relation = parts[0];
      if (slow) {
        ov.kind = wrapper::DelayKind::kSlow;
        ov.p1 = ParseDouble(argv[0], arg, parts[1]);
      } else if (initial) {
        ov.kind = wrapper::DelayKind::kInitial;
        ov.p1 = ParseDouble(argv[0], arg, parts[1]);
      } else {
        if (parts.size() < 3) Usage(argv[0], "bursty needs REL:LEN:GAPMS");
        ov.kind = wrapper::DelayKind::kBursty;
        ov.burst_length = ParseInt(argv[0], arg, parts[1]);
        ov.p1 = ParseDouble(argv[0], arg, parts[2]);
      }
      o.overrides.push_back(ov);
    } else {
      Usage(argv[0], ("unknown flag " + arg).c_str());
    }
  }
  if (o.repeats < 1) Usage(argv[0], "--repeats must be >= 1");
  if (!std::isfinite(o.scale) || o.scale <= 0) {
    Usage(argv[0], "--scale must be a finite number > 0");
  }
  // The largest cardinality the scale derives (BuildSetup) must fit
  // int64_t: the paper query's relation C and the random query's maximum.
  const double largest = o.query == "paper"    ? o.scale * 200000.0
                         : o.query == "random" ? 60000 * o.scale / 0.3
                                               : 0.0;
  if (!FitsInt64(largest)) {
    char complaint[96];
    std::snprintf(complaint, sizeof(complaint),
                  "--scale=%g derives a cardinality that overflows a 64-bit "
                  "count",
                  o.scale);
    Usage(argv[0], complaint);
  }
  return o;
}

Result<plan::QuerySetup> BuildSetup(const CliOptions& o) {
  const double w = o.w_us > 0 ? o.w_us : 20.0;
  if (o.query == "paper") return plan::PaperFigure5Query(o.scale, w);
  if (o.query == "tiny") return plan::TinyTwoSourceQuery(20000, 15000, w);
  if (o.query == "chain") return plan::ChainThreeSourceQuery(w);
  if (o.query == "random") {
    plan::GeneratorConfig gen;
    gen.num_sources = o.sources;
    gen.seed = o.seed;
    gen.mean_delay_us = w;
    gen.min_cardinality = static_cast<int64_t>(5000 * o.scale / 0.3);
    gen.max_cardinality = static_cast<int64_t>(60000 * o.scale / 0.3);
    return plan::GenerateBushyQuery(gen, /*use_optimizer=*/true);
  }
  return Status::InvalidArgument("unknown --query=" + o.query);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = Parse(argc, argv);
  Result<plan::QuerySetup> setup = BuildSetup(o);
  if (!setup.ok()) {
    std::fprintf(stderr, "%s\n", setup.status().ToString().c_str());
    return 2;
  }
  for (const auto& ov : o.overrides) {
    const SourceId s = setup->catalog.Find(ov.relation);
    if (s == kInvalidId) {
      std::fprintf(stderr, "no relation named %s\n", ov.relation.c_str());
      return 2;
    }
    wrapper::DelayConfig& d = setup->catalog.source(s).delay;
    d.kind = ov.kind;
    d.slow_factor = ov.kind == wrapper::DelayKind::kSlow ? ov.p1 : 1.0;
    d.initial_delay_ms =
        ov.kind == wrapper::DelayKind::kInitial ? ov.p1 : 0.0;
    if (ov.kind == wrapper::DelayKind::kBursty) {
      d.burst_length = ov.burst_length;
      d.burst_gap_ms = ov.p1;
    }
  }

  core::MediatorConfig config;
  config.seed = o.seed;
  config.memory_budget_bytes =
      static_cast<int64_t>(o.memory_mb * 1024 * 1024);
  config.strategy.dqs.bmt = o.bmt;
  config.strategy.dqp.batch_size = o.batch;
  config.comm.queue_capacity = o.queue;

  std::printf("query: %s\n", setup->plan.ToString(setup->catalog).c_str());
  Result<core::Mediator> first = core::Mediator::Create(
      setup->catalog, setup->plan, config);
  if (!first.ok()) {
    std::fprintf(stderr, "%s\n", first.status().ToString().c_str());
    return 1;
  }
  std::printf("result: %lld tuples | LWB %.3f s\n\n",
              static_cast<long long>(first->reference().result_card),
              ToSecondsF(first->LowerBound().bound()));

  struct Row {
    const char* name;
    bool selected;
  };
  const bool all = o.strategy == "all";
  TablePrinter table({"strategy", "response (s)", "stalled (s)",
                      "peak mem (MB)", "disk pages W/R", "notes"});
  auto add = [&](const char* name,
                 Result<core::ExecutionMetrics> (*runner)(
                     const core::Mediator&, const CliOptions&)) {
    double total = 0;
    Result<core::ExecutionMetrics> last = Status::Internal("never ran");
    for (int r = 0; r < o.repeats; ++r) {
      core::MediatorConfig rc = config;
      rc.seed = config.seed + static_cast<uint64_t>(r) * 7919;
      Result<core::Mediator> m =
          core::Mediator::Create(setup->catalog, setup->plan, rc);
      if (!m.ok()) {
        last = m.status();
        break;
      }
      last = runner(*m, o);
      if (!last.ok()) break;
      total += ToSecondsF(last->response_time);
    }
    if (!last.ok()) {
      table.AddRow({name, "FAIL", "-", "-", "-",
                    last.status().ToString()});
      return;
    }
    table.AddRow(
        {name, TablePrinter::Num(total / o.repeats),
         TablePrinter::Num(ToSecondsF(last->stalled_time)),
         TablePrinter::Num(
             static_cast<double>(last->peak_memory_bytes) / 1048576.0, 1),
         std::to_string(last->disk.pages_written) + "/" +
             std::to_string(last->disk.pages_read),
         std::to_string(last->degradations) + " degr, " +
             std::to_string(last->dqo_splits) + " splits"});
  };

  if (all || o.strategy == "seq") {
    add("SEQ", +[](const core::Mediator& m, const CliOptions&) {
      return m.Execute(core::StrategyKind::kSeq);
    });
  }
  if (all || o.strategy == "dse") {
    add("DSE", +[](const core::Mediator& m, const CliOptions&) {
      return m.Execute(core::StrategyKind::kDse);
    });
  }
  if (all || o.strategy == "ma") {
    add("MA", +[](const core::Mediator& m, const CliOptions&) {
      return m.Execute(core::StrategyKind::kMa);
    });
  }
  if (all || o.strategy == "scr") {
    add("SCR", +[](const core::Mediator& m, const CliOptions& opt) {
      return m.ExecuteScrambling(Milliseconds(opt.scr_timeout_ms));
    });
  }
  if (all || o.strategy == "dphj") {
    add("DPHJ", +[](const core::Mediator& m, const CliOptions&) {
      return m.ExecuteDphj();
    });
  }
  if (table.row_count() == 0) Usage(argv[0], "unknown --strategy");
  if (o.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }

  if (o.trace) {
    Result<core::Mediator::TracedExecution> run =
        first->ExecuteTraced(core::StrategyKind::kDse);
    if (run.ok()) {
      std::printf("\n--- DSE decision log (first 40 events) ---\n%s",
                  run->trace.RenderEventLog(40).c_str());
      std::printf("\n%s",
                  run->trace.RenderTimeline(run->fragment_names).c_str());
    }
  }
  return 0;
}

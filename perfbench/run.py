#!/usr/bin/env python3
"""Runs one workload of the dqsched benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the perfbench binary
(CMake, Release -O2) under $CARGO_TARGET_DIR, or .bench_build when that is
unset. --trace 0 times repeated passes with tracing off and reports the
end-to-end metrics of BENCHMARK.json, with host times scaled to a nominal
host speed by the binary's host-speed probe; --trace 1 runs one traced
pass and reports the per-layer metrics, prints per-layer self time, and
writes the spans as Chrome trace-event JSON (chrome://tracing,
ui.perfetto.dev).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Each run also leaves a record (result, nproc, CPU model, build
flags) in the results directory for perfbench/compare.py.
"""

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "fleet_storm")
# A timed run ends at the first pass boundary after --seconds; the margin
# covers that last pass, the untimed set-up and a traced run's extras.
RUN_MARGIN_S = 120
# Host times are reported at the host speed at which one run of the
# binary's host-speed probe takes PROBE_NOMINAL_S. They follow the probe's
# time to this power: a slow host slows the program a fifth more than the
# probe (NOTES N7).
PROBE_NOMINAL_S = 0.022
HOST_SPEED_EXPONENT = 1.2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build_binary(out):
    """Configures and builds the binary; after the first run both steps
    only confirm it is up to date. A lock serializes concurrent runs."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dqsched sources at {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log, "a") as log_file:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT).returncode:
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    return out / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---- end-to-end metrics (--trace 0) -------------------------------------

ANSWERED = ("ok", "partial")


def grid_pass_summary(p):
    """Virtual results and operation counts of one paper_grid pass."""
    qs = p["queries"]
    done = [q for q in qs if q.get("ok")]
    failed = [q for q in qs if not q.get("ok") or q["result_count"] != q["ref_count"]
              or q["checksum"] != q["ref_checksum"]]
    responses = [q["response_s"] for q in done]
    dse = [q["response_s"] / q["lwb_s"] for q in done if q["strategy"] == "DSE"]
    return {
        "sim_response_s": sum(responses),
        "sim_dse_over_lwb": stats.geomean(dse) if dse else 0.0,
        # One client runs the grid back to back: the closed loop's makespan.
        "sim_makespan_s": sum(responses),
        "sim_latency_p50_s": stats.nearest_rank(responses, 0.5) if responses else 0.0,
        "sim_latency_p90_s": stats.nearest_rank(responses, 0.9) if responses else 0.0,
        "answered_share": len(done) / len(qs),
        "complete_share": sum(1 for q in done if not q["partial"]) / len(qs),
    }, len(qs), len(failed)


def fleet_fingerprint(p):
    """Everything virtual a fleet pass produced; repeats must match it."""
    keys = ("template", "status", "attempts", "latency_s", "response_s",
            "result_count", "checksum")
    return p["makespan_s"], p["rounds"], [tuple(q[k] for k in keys) for q in p["queries"]]


def fleet_passes(d):
    """Checks every fleet pass; returns the first pass of each stream and
    the operation counts. `consensus` maps (stream, template) to the
    (count, checksum) every complete answer of it shares."""
    n = d["queries_per_pass"]
    first, consensus = {}, {}
    attempted = failed = 0
    deterministic = True
    for p in d["passes"]:
        attempted += n
        if "error" in p:
            failed += n
            continue
        k = p["stream"]
        for q in p["queries"]:
            if q["status"] == "ok":
                answer = (q["result_count"], q["checksum"])
                if consensus.setdefault((k, q["template"]), answer) != answer:
                    failed += 1
        if k in first:
            deterministic &= fleet_fingerprint(first[k]) == fleet_fingerprint(p)
        else:
            first[k] = p
    complete = len(first) == d["streams"]
    return [first[k] for k in sorted(first)], attempted, failed, deterministic and complete


def fleet_sim(firsts, lwb):
    """Virtual results pooled over one pass of each stream."""
    qs = [(q, lwb[p["stream"]][q["template"]]) for p in firsts for q in p["queries"]]
    answered = [(q, b) for q, b in qs if q["status"] in ANSWERED]
    latencies = [q["latency_s"] for q, _ in answered]
    return {
        "sim_response_s": sum(q["response_s"] for q, _ in answered),
        # Totals: a partial answer from open breakers can take no virtual
        # time at all, which a geometric mean cannot take.
        "sim_dse_over_lwb": sum(q["response_s"] for q, _ in answered) /
                            sum(b for _, b in answered) if answered else 0.0,
        "sim_makespan_s": statistics.mean(p["makespan_s"] for p in firsts),
        "sim_latency_p50_s": stats.nearest_rank(latencies, 0.5) if latencies else 0.0,
        "sim_latency_p90_s": stats.nearest_rank(latencies, 0.9) if latencies else 0.0,
        "answered_share": len(answered) / len(qs),
        "complete_share": sum(1 for q, _ in qs if q["status"] == "ok") / len(qs),
    }


def host_scale(p):
    """(Nominal / measured probe time around one pass) ** exponent. A host
    time of the pass times this is its time at the nominal host speed."""
    return (PROBE_NOMINAL_S / statistics.median(p["probe_s"])) ** HOST_SPEED_EXPONENT


def end_to_end(d):
    passes = d["passes"]
    # Passes that failed early carry no probes and no host times.
    timed = [p for p in passes if p.get("probe_s") and "queries" in p]
    scales = [host_scale(p) for p in timed]
    if d["workload"] == "paper_grid":
        summaries = [grid_pass_summary(p) for p in passes]
        attempted = sum(s[1] for s in summaries)
        failed = sum(s[2] for s in summaries)
        # Identical inputs every pass: every virtual result must repeat.
        sims = [s[0] for s in summaries]
        deterministic = all(s == sims[0] for s in sims)
        sim = sims[0]
        raw_walls = [sum(q.get("exec_s", 0.0) for q in p["queries"]) for p in timed]
        host_ms = [1e3 * f * q["exec_s"] for f, p in zip(scales, timed)
                   for q in p["queries"] if "exec_s" in q]
    else:
        firsts, attempted, failed, deterministic = fleet_passes(d)
        sim = fleet_sim(firsts, d["template_lwb_s"]) if firsts else {}
        raw_walls = [p["exec_s"] for p in timed]
        # Fleet queries share the shards' threads, so no single query's
        # host time is observable: one sample per pass, its host time
        # per query of the stream.
        host_ms = [1e3 * f * w / d["queries_per_pass"] for f, w in zip(scales, raw_walls)]
    walls = [f * w for f, w in zip(scales, raw_walls)]
    setups = [f * p["setup_s"] for f, p in zip(scales, timed)]
    metrics = dict(sim)
    metrics.update({
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": d["peak_rss_mb"],
        "query_host_ms_p50": stats.nearest_rank(host_ms, 0.5) if host_ms else 0.0,
        "query_host_ms_p90": stats.nearest_rank(host_ms, 0.9) if host_ms else 0.0,
    })
    notes = [f"passes={len(passes)} queries/pass={d['queries_per_pass']}",
             f"wall_s per pass: {' '.join(f'{w:.3f}' for w in walls)}"]
    if timed:
        probes = [s for p in timed for s in p["probe_s"]]
        notes += [f"unscaled wall_s per pass: {' '.join(f'{w:.3f}' for w in raw_walls)}",
                  f"host speed: probe median {1e3 * statistics.median(probes):.2f} ms "
                  f"(nominal {1e3 * PROBE_NOMINAL_S:.0f} ms); unscaled medians: wall_s "
                  f"{statistics.median(raw_walls):.4f} s, setup_s "
                  f"{statistics.median(p['setup_s'] for p in timed):.4f} s"]
    if not deterministic:
        notes.append("virtual results differ between passes of the same inputs")
    return metrics, attempted, failed, deterministic and failed == 0, notes


# ---- per-layer metrics (--trace 1) --------------------------------------


def per_layer(d):
    grid = d["workload"] == "paper_grid"
    if grid:
        p = d["passes"][0]
        qs = [q for q in p["queries"] if q.get("ok")]
        _, attempted, failed = grid_pass_summary(p)
        checks = {"Execute and ExecuteTraced agree": d["traced_matches"],
                  "replayed reference equals the mediator's": d["reference_matches"]}
        shards = qs  # per-query device counters stand in for one shard each
    else:
        passes, attempted, failed, _ = fleet_passes(d)
        if len(passes) != len(d["passes"]):
            fail("a traced fleet pass failed")
        qs = [q for p in passes for q in p["queries"]]
        refs = d["template_reference"]
        failed += sum(1 for p in passes for q in p["queries"] if q["status"] == "ok" and
                      (q["result_count"], q["checksum"]) !=
                      (refs[p["stream"]][q["template"]]["count"],
                       refs[p["stream"]][q["template"]]["checksum"]))
        checks = {"1-thread and 2-thread executions agree":
                  all(p["threads_match"] for p in passes)}
        shards = [s for p in passes for s in p["shards"]]
    r = d["replays"]

    def total(key, rows):
        return sum(x[key] for x in rows)

    plans = total("planning_phases", qs)
    m = {
        "plan.compile_ms": 1e3 * r["compile_s"],
        "storage.generate_ms": 1e3 * r["generate_s"],
        "plan.reference_ms": 1e3 * r["reference_s"],
        "wrapper.delay_replay_ms": 1e3 * r["delay_replay_s"],
        "core.dqp.phases": total("execution_phases", qs),
        "exec.hash_build_ns_per_row": r["hash_build_ns_per_row"],
        "core.dqs.plans": plans,
        "core.dqs.host_ms": 1e3 * total("planning_host_s", qs),
        "core.dqs.host_us_per_plan": 1e6 * total("planning_host_s", qs) / plans if plans else 0.0,
        "comm.rate_changes": total("rate_change_events", qs),
        "comm.tuples_received": total("tuples_received", shards),
        "comm.sources_per_shard": d["sources_per_shard"],
        "comm.rate_check_ns": r["rate_check_ns"],
        "comm.deliver_ns_per_tuple": r["deliver_ns_per_tuple"],
        "storage.temp_tuples_written": total("temp_tuples_written", shards),
        "storage.temp_tuples_read": total("temp_tuples_read", shards),
        "sim.disk.pages_written": total("pages_written", shards),
        "sim.disk.pages_read": total("pages_read", shards),
        "sim.busy_s": total("busy_s", shards),
        "sim.stalled_s": total("stalled_s", shards),
        "core.lifecycle.partials": sum(1 for q in qs if (q["partial"] if grid else q["status"] == "partial")),
        "comm.suspicions": total("sources_suspected", qs),
    }
    # Layers a workload does not reach read 0.
    zero = ["core.dqp.batches", "core.dqp.tuples_per_batch_p50", "core.dqp.tuples_per_batch_p90",
            "core.dqp.host_us_per_batch", "core.broker.queued", "core.broker.shed",
            "core.broker.admission_wait_p50_s", "core.broker.admission_wait_p90_s",
            "core.fleet.rounds", "core.fleet.shard_busy_skew", "common.parallel_runner.speedup",
            "core.breaker.trips", "core.lifecycle.deadline_cancels", "core.lifecycle.retries",
            "trace.overhead_pct"]
    m.update({k: 0 for k in zero})
    if grid:
        hist = d["batch_hist"]
        m.update({
            "core.dqp.batches": d["batches"],
            "core.dqp.tuples_per_batch_p50": stats.nearest_rank_hist(hist, 0.5),
            "core.dqp.tuples_per_batch_p90": stats.nearest_rank_hist(hist, 0.9),
            "core.dqp.host_us_per_batch": 1e6 * d["execute_s"] / d["batches"] if d["batches"] else 0.0,
            "core.cache.misses": total("cache_misses", qs),
            "core.cache.admitted": total("cache_admitted", qs),
            "trace.overhead_pct": 100.0 * (d["execute_traced_s"] / d["execute_s"] - 1.0),
        })
    else:
        waits = [q["admission_wait_s"] for q in qs if q["status"] != "shed"]
        skews = [max(s["busy_s"] for s in p["shards"]) /
                 statistics.mean(s["busy_s"] for s in p["shards"]) for p in passes]
        m.update({
            "core.broker.queued": total("broker_queued", passes),
            "core.broker.shed": total("broker_shed", passes),
            "core.broker.admission_wait_p50_s": stats.nearest_rank(waits, 0.5) if waits else 0.0,
            "core.broker.admission_wait_p90_s": stats.nearest_rank(waits, 0.9) if waits else 0.0,
            "core.fleet.rounds": total("rounds", passes),
            "core.fleet.shard_busy_skew": statistics.mean(skews),
            "common.parallel_runner.speedup": total("exec_1thread_s", passes) / total("exec_s", passes),
            "core.breaker.trips": total("breaker_trips", passes),
            "core.lifecycle.deadline_cancels": sum(1 for q in qs if q["status"] == "deadline"),
            "core.lifecycle.retries": sum(max(0, q["attempts"] - 1) for q in qs),
            "core.cache.misses": total("cache_misses", passes),
            "core.cache.admitted": total("cache_admitted", passes),
        })
    ok = failed == 0 and all(checks.values())
    notes = [f"check {name}: {'yes' if good else 'NO'}" for name, good in checks.items()]
    return m, attempted, failed, ok, notes


def print_self_times(spans_path):
    spans = stats.read_chrome_trace(spans_path)
    by_layer = stats.self_time_by(spans, "layer")
    whole = sum(by_layer.values())
    print(f"self time by layer ({len(spans)} spans, {spans_path}):")
    for layer, us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {us / 1e3:12.3f} ms {100 * us / whole:6.1f}%")
    by_name = stats.self_time_by(spans, "name")
    print("self time by call:")
    for name, us in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:42s} {us / 1e3:12.3f} ms")


def run_workload(workload, args, spec, binary, results):
    """Runs the binary on one workload; prints its metrics, leaves a run
    record, and returns the result object."""
    spans_path = results / f"spans-{workload}-s{args.seed}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--mode={'traced' if args.trace else 'timed'}"]
    if args.trace:
        cmd.append(f"--spans={spans_path}")
    timeout = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {timeout:g} s")
    if run.returncode != 0:
        fail(f"perfbench exited with {run.returncode}")
    d = json.loads(run.stdout)

    compute = per_layer if args.trace else end_to_end
    values, attempted, failed, correct, notes = compute(d)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{workload} seed={args.seed} trace={args.trace} build={d['build_flags']}")
    for note in notes:
        print(f"  {note}")
    if args.trace:
        print_self_times(spans_path)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.time(),
              "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                       "build_flags": d["build_flags"]},
              "result": result}
    name = f"{workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or those of BENCHMARK.json in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", help="where to leave the run records "
                    "(default: results/ under the build directory)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    binary = build_binary(out)
    results = Path(args.results_dir).resolve() if args.results_dir else out / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, spec, binary, results)))
        return
    # Every workload of BENCHMARK.json in turn, each in its own
    # process; the summary line names each metric <workload>.<metric>.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        r = run_workload(workload, args, spec, binary, results)
        merged["correct"] &= r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(merged))


if __name__ == "__main__":
    main()

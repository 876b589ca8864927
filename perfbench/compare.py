#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are run records written by perfbench/run.py (directories
of them, or single files). For every end-to-end metric of BENCHMARK.json it
prints one row per workload: each set's median and quartiles over its
timed runs, their spread (quartile distance over median), and the change's
gap against the base median, signed so that a positive gap is worse, next
to the metric's bound. With one set it prints the spreads only. Exits 1
when a gap or a spread exceeds its bound.
"""

import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    hosts = set()
    for f in files:
        record = json.loads(f.read_text())
        if not isinstance(record, dict) or record.get("trace") != 0 or "result" not in record:
            continue  # span files, traced runs
        runs.setdefault(record["workload"], []).append(record["result"])
        h = record["host"]
        hosts.add(f"nproc={h['nproc']} cpu={h['cpu_model']} build={h['build_flags']}")
    return runs, hosts


def summary(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, stats.spread(values) if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(a) for a in argv[1:]]
    for label, (runs, hosts) in zip(("base", "change"), sets):
        counts = " ".join(f"{w}={len(rs)}" for w, rs in sorted(runs.items()))
        failed = sum(r["failed"] for rs in runs.values() for r in rs)
        wrong = sum(not r["correct"] for rs in runs.values() for r in rs)
        print(f"{label}: runs {counts}; failed ops {failed}; incorrect runs {wrong}")
        for h in sorted(hosts):
            print(f"  {h}")
    workloads = [w["name"] for w in spec["workloads"]]
    bad = False
    for m in spec["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {100 * bound:.0f}%)")
        print(f"  {'workload':14s} {'base median [q1, q3]':>36s} {'spread':>7s}"
              + (f" {'change median [q1, q3]':>36s} {'spread':>7s} {'gap':>7s}" if len(sets) == 2 else ""))
        for w in workloads:
            cols = []
            meds = []
            for runs, _ in sets:
                if w not in runs:
                    cols.append(f"{'-':>36s} {'-':>7s}")
                    continue
                med, q1, q3, spr = summary(runs[w], name)
                meds.append(med)
                bad |= spr > bound
                cols.append(f"{med:12.6g} [{q1:10.6g}, {q3:10.6g}] {100 * spr:6.1f}%")
            row = f"  {w:14s} " + " ".join(cols)
            if len(meds) == 2 and meds[0]:
                gap = sign * (meds[1] - meds[0]) / meds[0]
                bad |= gap > bound
                row += f" {100 * gap:+6.1f}%{'  WORSE' if gap > bound else ''}"
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

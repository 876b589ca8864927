"""Arithmetic shared by the benchmark scripts (stdlib only).

Percentiles are nearest-rank: the smallest sample with at least p of the
samples at or below it, i.e. sorted[ceil(p * n) - 1]. Self time of a span
is its duration minus the part of it that its child spans cover.
"""

import json
import math
import statistics


def nearest_rank(values, p):
    """Nearest-rank p-quantile (0 < p <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("nearest_rank of an empty sample")
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def nearest_rank_hist(hist, p):
    """Nearest-rank p-quantile of a histogram: hist[v] samples equal v."""
    total = sum(hist)
    if total == 0:
        return 0
    rank = min(total, max(1, math.ceil(p * total)))
    seen = 0
    for value, count in enumerate(hist):
        seen += count
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank within total")


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4, the default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span id. `spans` are dicts with id, parent, start and
    end; a child's interval counts only where it lies inside its parent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered_length(clipped)
    return out


def self_time_by(spans, key):
    """Sums self time over spans grouped by span[key] (e.g. "layer")."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s[key]] = totals.get(s[key], 0.0) + own[s["id"]]
    return totals


def read_chrome_trace(path):
    """Spans of a Chrome trace-event file written by the perfbench binary."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"id": e["args"]["id"], "parent": e["args"]["parent"],
             "request": e["args"]["request"], "name": e["name"],
             "layer": e["cat"], "start": e["ts"], "end": e["ts"] + e["dur"]}
            for e in events if e.get("ph") == "X"]

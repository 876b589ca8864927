#!/usr/bin/env python3
"""bench_diff — compare two bench_suite JSON files cell by cell.

    bench_diff.py BASE.json NEW.json [--skip=EXPERIMENT ...]

Cells are matched on (experiment, label) and compared on every non-wall
field: ok, simulated_seconds and error. Exits 1 on any difference or on a
cell present in only one file, except for cells of experiments named with
--skip (e.g. the cache_warm cells that exist only under --cache=cold).
Wall-clock fields never affect the exit status: they are the one thing
allowed to differ. The summary line reports each file's
wall_seconds_total and their ratio (new / base), for information only.
"""

import argparse
import json
import sys

FIELDS = ("ok", "simulated_seconds", "error")


def load_cells(path, skip):
    """Returns the file's cells by (experiment, label) and its
    wall_seconds_total (None when absent)."""
    with open(path) as fh:
        doc = json.load(fh)
    cells = {}
    for cell in doc["cells"]:
        if cell["experiment"] in skip:
            continue
        key = (cell["experiment"], cell["label"])
        if key in cells:
            sys.exit(f"bench_diff: {path}: duplicate cell {key}")
        cells[key] = tuple(cell.get(f) for f in FIELDS)
    return cells, doc.get("wall_seconds_total")


def walls(base_s, new_s):
    """The informational wall-time part of the summary line."""
    if base_s is None or new_s is None:
        return "wall_seconds_total n/a"
    ratio = f"{new_s / base_s:.3f}" if base_s > 0 else "n/a"
    return f"wall_seconds_total {base_s:.3f} s -> {new_s:.3f} s (x{ratio})"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench_diff", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--skip", action="append", default=[],
                        metavar="EXPERIMENT",
                        help="ignore this experiment's cells (repeatable)")
    args = parser.parse_args(argv)

    base, base_wall = load_cells(args.base, set(args.skip))
    new, new_wall = load_cells(args.new, set(args.skip))
    problems = []
    for key in sorted(base.keys() | new.keys()):
        if key not in new:
            problems.append(f"only in {args.base}: {key}")
        elif key not in base:
            problems.append(f"only in {args.new}: {key}")
        elif base[key] != new[key]:
            problems.append(f"MISMATCH {key}: {base[key]} != {new[key]} "
                            f"({', '.join(FIELDS)})")
    for line in problems:
        print(line)
    wall = walls(base_wall, new_wall)
    if problems:
        print(f"bench_diff: {len(problems)} problem(s) over "
              f"{len(base.keys() | new.keys())} cells; {wall}")
        return 1
    print(f"bench_diff: {len(base)} cells identical on {', '.join(FIELDS)}; "
          f"{wall}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

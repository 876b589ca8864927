#!/usr/bin/env python3
"""bench_diff — compare two bench_suite JSON files cell by cell.

    bench_diff.py BASE.json NEW.json [--skip=EXPERIMENT ...]

Cells are matched on (experiment, label) and compared on every non-wall
field: ok, simulated_seconds and error. Exits 1 on any difference or on a
cell present in only one file, except for cells of experiments named with
--skip (e.g. the cache_warm cells that exist only under --cache=cold).
Wall-clock fields are ignored: they are the one thing allowed to differ.
"""

import argparse
import json
import sys

FIELDS = ("ok", "simulated_seconds", "error")


def load_cells(path, skip):
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
    return cells


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

    base = load_cells(args.base, set(args.skip))
    new = load_cells(args.new, set(args.skip))
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
    if problems:
        print(f"bench_diff: {len(problems)} problem(s) over "
              f"{len(base.keys() | new.keys())} cells")
        return 1
    print(f"bench_diff: {len(base)} cells identical on {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

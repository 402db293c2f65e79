#!/usr/bin/env python3
"""Check that a regenerated grid BENCH file matches a committed one.

Every cell's declaration and success count must be identical, in the same
order; every rerun of the threads sweep must report the cell's success
count; the document must stay all_deterministic. Timing fields and the
host's hardware_concurrency (which sets the threads sweep) are ignored.

    python3 tools/compare_bench_cells.py regenerated.json BENCH_scenarios.json
"""
import json
import sys


def cells(path):
    with open(path) as f:
        doc = json.load(f)
    if not doc.get("all_deterministic"):
        sys.exit(f"{path}: all_deterministic is not true")
    for cell in doc["cells"]:
        for run in cell["reruns"]:
            if run["successes"] != cell["result"]["successes"]:
                sys.exit(f"{path}: thread count {run['threads']} disagrees: {cell['declaration']}")
    return [(cell["declaration"], cell["result"]["successes"]) for cell in doc["cells"]]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    fresh, committed = cells(sys.argv[1]), cells(sys.argv[2])
    if len(fresh) != len(committed):
        sys.exit(f"cell count differs: {len(fresh)} vs {len(committed)} committed")
    mismatches = [(a, b) for a, b in zip(fresh, committed) if a != b]
    for (decl, got), (_, want) in mismatches:
        print(f"mismatch: {decl}: {got} successes vs {want} committed")
    if mismatches:
        sys.exit(1)
    print(f"{len(fresh)} cells match {sys.argv[2]}")


if __name__ == "__main__":
    main()

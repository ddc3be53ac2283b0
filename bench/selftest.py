"""Self-test of the benchmark's trace: exact counts must repeat.

    python3 bench/selftest.py

For every workload, two traced passes at the first seed must give equal
work counts (every per-layer metric that is not a time), and a traced
pass at the second seed must leave the size counts unchanged, because a
seed changes values but never the amount of work.  Exits 1 on failure.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, layer_unit, run_pass, workspace

SEEDS = (1, 2)
SIZE_COUNTS = ("verify.grid_points", "verify.csv_rows", "revolution.faces")


def traced_layers(workload: str, seed: int) -> dict:
    with workspace(workload, seed) as (work, env):
        result = run_pass(workload, "traced", work, env)
    failed = [op["name"] for op in result["ops"] if not op["ok"]]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: ops failed: {failed}")
    return {k: v for k, v in result["layers"].items() if layer_unit(k) not in ("s", "us")}


def main() -> int:
    first, second = SEEDS
    ok = True
    for workload in WORKLOADS:
        a, again, other = (traced_layers(workload, s) for s in (first, first, second))
        diff = {k: (a[k], again[k]) for k in a if a[k] != again[k]}
        size_diff = {k: (a[k], other[k]) for k in SIZE_COUNTS if a[k] != other[k]}
        for what, bad in (("repeat at one seed", diff), ("sizes across seeds", size_diff)):
            print(f"{'FAIL' if bad else 'PASS'} {workload}: counts {what}", bad or "")
            ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

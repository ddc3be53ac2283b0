"""Benchmark of ricci-liouville: end-to-end timings and an outside-in layer trace.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  The run draws
the seeded inputs (bench/inputs.py), then repeats whole passes of the
workload, each in a fresh interpreter (bench/passes.py), until the time
budget is used.  It times a fresh-interpreter import of the library
(``setup_s``) once at the start and once before each pass, so set-up
samples spread over the run.
Step times are medians over passes, taken per step; ``wall_s`` is their
sum, and on ``interactive`` ``call_p50_s`` is their median.

``--trace 0`` runs CLI steps as subprocesses and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced in-process passes
(bench/tracer.py) and reports the per-layer metrics, with the tracing
overhead as their difference.  Every op's outputs are checked and their
sha256 digests must agree across passes and across runs of the same
library source at the same seed; a failed check or a digest mismatch
counts as a failed op.  Each run writes .bench_out/results/BENCH_*.json
with a machine header.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "surface", "crosscheck", "interactive")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STEP_METRICS = {  # printed and recorded with the end-to-end metrics, not gated
    "certify": {"verify_s": "verify", "sweep_s": "sweep", "sweep_pool_s": "sweep_pool"},
    "surface": {"mesh_ply_s": "mesh_ply", "mesh_obj_s": "mesh_obj"},
    "crosscheck": {"roundtrip_s": "roundtrip", "defect_chain_s": "defect_chain"},
    "interactive": {},  # call_p50_s: the median over its short calls
}
SETUP_IMPORT = {"crosscheck": "ricci_liouville"}  # others: ricci_liouville.cli
SETUP_PER_PASS = 1
PASS_TIMEOUT_S = 170.0
SOURCE_DATE_EPOCH = "1700000000"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("RICCI_LIOUVILLE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env["TMPDIR"] = str(tmp)
    return env


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ricci_liouville").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def import_seconds(module: str, env: dict) -> float:
    """Time ``import module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import importlib; "
        f"m = importlib.import_module({module!r}); "
        "print(time.perf_counter() - t); import ricci_liouville; print(ricci_liouville.__file__)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split("\n")
    where = Path(out[1]).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"ricci_liouville imported from {where}, not from {ROOT / 'src'}")
    return float(out[0])


def machine_header(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # not the commit of some enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model, caches = platform.processor() or None, {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "commit": commit,
        "source_hash": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "seed": seed,
    }


def run_pass(workload: str, mode: str, work: Path, env: dict) -> dict:
    result = work / "pass.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "passes.py"), "--workload", workload,
           "--mode", mode, "--workdir", str(work), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode == 0:
            return json.loads(result.read_text())
        error = proc.stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:
        error = f"pass timed out after {PASS_TIMEOUT_S} s"
    op = {"name": "pass", "ok": False, "seconds": None, "digests": {}, "error": error}
    return {"workload": workload, "mode": mode, "ops": [op], "crashed": True}


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def check_digests(passes: list, store: Path) -> None:
    """Mark ops whose outputs differ from the first run at this seed as failed."""
    reference = json.loads(store.read_text()) if store.is_file() else {}
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                continue
            want = reference.setdefault(op["name"], op["digests"])
            if op["digests"] != want:
                op["ok"] = False
                op["error"] = f"output digests differ from the reference: {op['digests']}"
    if not store.is_file() and all(op["ok"] for p in passes for op in p["ops"]):
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference, indent=1, sort_keys=True))
        os.replace(tmp, store)


def end_to_end(passes: list, setup: list, workload: str) -> tuple[dict, dict]:
    """Medians over the run's passes, taken per op so one slow pass moves none of them."""
    times = {}
    for p in passes:
        for op in p["ops"]:
            if op["ok"]:
                times.setdefault(op["name"], []).append(op["seconds"])
    per_op = {name: median_of(values) for name, values in times.items()}
    metrics = {
        "wall_s": sum(per_op.values()),
        "setup_s": median_of(setup),
        "peak_rss_mb": median_of(p.get("peak_rss_mb") for p in passes),
    }
    steps = {name: per_op.get(op, 0.0) for name, op in STEP_METRICS[workload].items()}
    if workload == "interactive":
        steps["call_p50_s"] = median_of(per_op.values())
    return metrics, steps


def per_layer(passes: list) -> tuple[dict, int]:
    """Median layer times over traced passes; counts must repeat exactly."""
    traced = [p for p in passes if p["mode"] == "traced" and "layers" in p]
    untraced = [p for p in passes if p["mode"] == "inproc" and not p.get("crashed")]
    mismatches = 0
    layers = {}
    if traced:
        for name, first in traced[0]["layers"].items():
            values = [p["layers"][name] for p in traced]
            if layer_unit(name) in ("s", "us"):
                layers[name] = statistics.median(values)
            else:
                layers[name] = first
                mismatches += sum(v != first for v in values[1:])
    layers["cli.import_s"] = median_of(p.get("import_s") for p in traced)
    layers["trace.overhead_s"] = (median_of(p.get("wall_s") for p in traced)
                                  - median_of(p.get("wall_s") for p in untraced))
    return layers, mismatches


@contextlib.contextmanager
def workspace(workload: str, seed: int):
    """A fresh work directory holding the seeded inputs; yields (dir, child env)."""
    from inputs import draw, profiles

    work = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        inputs = draw(seed)
        (work / "inputs.json").write_text(json.dumps(inputs, indent=1))
        for name, data in profiles(inputs).items():
            (work / name).write_bytes(data)
        yield work, child_env(work / "tmp")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with workspace(workload, seed) as (work, env):
        module = SETUP_IMPORT.get(workload, "ricci_liouville.cli")
        import_seconds(module, env)  # compiles bytecode; untimed

        modes = ("inproc", "traced") if trace else ("cli",)
        setups = 0 if trace else SETUP_PER_PASS
        passes, durations = [], []
        deadline = time.perf_counter() + seconds
        setup = [import_seconds(module, env) for _ in range(setups)]
        while True:
            mode = modes[len(passes) % len(modes)]
            start = time.perf_counter()
            # set-up samples spread over the run average out slow drifts of the machine
            setup += [import_seconds(module, env) for _ in range(setups)]
            passes.append(run_pass(workload, mode, work, env))
            durations.append(time.perf_counter() - start)
            # at least two passes of each mode, so traced counts are compared
            if len(passes) >= 2 * len(modes) and time.perf_counter() + max(durations) > deadline:
                break
        check_digests(passes, OUT / "digests" / source_hash() / f"{workload}-seed{seed}.json")

        attempted = sum(len(p["ops"]) for p in passes)
        failed = sum(not op["ok"] for p in passes for op in p["ops"])
        metrics, steps = end_to_end(passes, setup, workload)
        if trace:
            metrics, mismatches = per_layer(passes)
            attempted += 1
            failed += mismatches > 0  # the count check is one more op
        report = {
            "header": machine_header(seed),
            "workload": workload,
            "trace": trace,
            "seconds": seconds,
            "inputs": json.loads((work / "inputs.json").read_text()),
            "setup_s": setup,
            "passes": passes,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "steps": steps,
        }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    for name, value in report["metrics"].items():
        unit = END_TO_END.get(name) or layer_unit(name)
        print(f"{w:12s} {name:34s} {value:14.6g} {unit}")
    for name, value in report["steps"].items() if not report["trace"] else ():
        print(f"{w:12s} {name:34s} {value:14.6g} s")
    frac = report["failed"] / report["attempted"]
    print(f"{w:12s} {'failed_frac':34s} {frac:14.6g} ({report['failed']}/{report['attempted']} ops)")
    for p in report["passes"]:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"{w:12s} FAILED {p['mode']} {op['name']}: {op['error']}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ricci_liouville" / "__init__.py").is_file():
        print(f"error: no src/ricci_liouville under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = {name: {"value": value, "unit": END_TO_END.get(name) or layer_unit(name)}
                   for name, value in reports[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": value,
                                                "unit": END_TO_END.get(name) or layer_unit(name)}
                   for r in reports for name, value in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, run in a fresh interpreter by run.py.

    python3 bench/passes.py --workload certify --mode cli --workdir DIR --result FILE

Modes:
  cli     CLI steps run as subprocesses (``python3 -m ricci_liouville.cli``),
          each timed by its own wall clock and max-RSS (``os.wait4``).
  inproc  CLI steps call ``ricci_liouville.cli.main(argv)`` in this process.
  traced  as inproc, with every library function wrapped by tracer.Tracer.

``crosscheck`` makes library calls in this process in every mode.  The
pool step of ``certify`` runs serially outside ``cli`` mode, because
worker processes cannot report spans.  Every step is one op; an op fails
on an unexpected exit code, an exception, or a failed output check.  The
pass writes its ops, their timings and the sha256 of every output to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

OP_TIMEOUT_S = 150.0
TWO_PI = repr(2.0 * math.pi)


class CheckFailed(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Runner:
    """Runs CLI steps in the chosen mode inside the pass directory."""

    def __init__(self, mode: str, rundir: Path):
        self.mode = mode
        self.rundir = rundir
        self.threads = len(os.sched_getaffinity(0))
        if mode != "cli":
            import ricci_liouville.cli as cli  # imported by run_pass before timing

            self.cli = cli

    def __call__(self, argv, *, pool: bool = False):
        """Run one CLI step; returns (exit code, stdout bytes, seconds, max-RSS KB)."""
        argv = [str(a) for a in argv]
        if self.mode == "cli":
            return self._subprocess(argv, pool)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        return rc, out.getvalue().encode(), seconds, 0

    def _subprocess(self, argv, pool):
        env = dict(os.environ)
        env.pop("RICCI_LIOUVILLE_THREADS", None)
        if pool:
            env["RICCI_LIOUVILLE_THREADS"] = str(self.threads)  # never above nproc
        out_path = self.rundir / ".stdout"
        with open(out_path, "wb") as out, open(self.rundir / ".stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ricci_liouville.cli", *argv],
                cwd=self.rundir, env=env, stdout=out, stderr=err,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), seconds, usage.ru_maxrss


class Pass:
    """The ops of one pass and the directory their outputs go to."""

    def __init__(self, workdir: Path):
        self.inputs = json.loads((workdir / "inputs.json").read_text())
        self.rundir = workdir / "run"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.ops: list[dict] = []

    def op(self, name: str, body) -> None:
        """Run one op; body returns (seconds, max-RSS KB, {output: sha256})."""
        record = {"name": name, "ok": False, "seconds": None, "rss_kb": 0,
                  "digests": {}, "error": None}
        try:
            seconds, rss_kb, digests = body()
            record.update(ok=True, seconds=seconds, rss_kb=rss_kb, digests=digests)
        except CheckFailed as exc:
            record["error"] = f"check failed: {exc}"
        except Exception:  # an op that raises is a failed op, not a crashed pass
            record["error"] = traceback.format_exc(limit=5)
        self.ops.append(record)

    def cli_step(self, run: Runner, argv, outdir: str, expect_rc: int, *, pool=False):
        """Run a CLI step and return (seconds, rss, stdout, outdir path)."""
        rc, stdout, seconds, rss = run([*argv, f"--outdir={outdir}"], pool=pool)
        check(rc == expect_rc, f"{argv[0]} exited {rc}, expected {expect_rc}")
        path = self.rundir / outdir
        check((path / "manifest.json").is_file(), f"{argv[0]} left no manifest.json")
        return seconds, rss, stdout, path


def _params(ref) -> list[str]:
    return [f"--b={ref['b']!r}", f"--c1={ref['c1']!r}", f"--c2={ref['c2']!r}"]


def _digests(path: Path, *names: str) -> dict:
    return {f"{path.name}/{n}": sha256(path / n) for n in names}


def certify(p: Pass, run: Runner) -> None:
    ins, z = p.inputs, p.inputs["sizes"]

    def verify():
        seconds, rss, _, out = p.cli_step(run, [
            "verify", *_params(ins["ref"]), f"--u-lo={-z['verify_span']!r}",
            f"--u-hi={z['verify_span']!r}", f"--h={z['verify_h']!r}",
            f"--levels={z['verify_levels']}",
        ], "verify", 0)
        summary = json.loads((out / "summary.json").read_text())
        check(summary["verdict"] is True, "verify verdict is not true")
        check(1.8 <= summary["order"] <= 2.2, f"verify order {summary['order']}")
        n = int(round(2 * z["verify_span"] / z["verify_h"])) + 1
        rows = (out / "residuals.csv").read_bytes().count(b"\r\n")
        check(rows == n * n + 1, f"residuals.csv has {rows} lines, expected {n * n + 1}")
        return seconds, rss, _digests(out, "residuals.csv", "summary.json", "manifest.json")

    sw = ins["sweep"]
    sweep_argv = [
        "sweep", "--b-values=" + ",".join(map(repr, sw["b"])),
        "--c1-values=" + ",".join(map(repr, sw["c1"])),
        "--c2-values=" + ",".join(map(repr, sw["c2"])),
        f"--u-lo={-z['sweep_span']!r}", f"--u-hi={z['sweep_span']!r}",
        "--h-levels=" + ",".join(map(repr, z["sweep_h_levels"])),
    ]
    triples = [(c1, c2, b) for c1 in sw["c1"] for c2 in sw["c2"] for b in sw["b"]]

    def sweep(outdir, pool):
        def body():
            seconds, rss, _, out = p.cli_step(run, sweep_argv, outdir, 0, pool=pool)
            lines = (out / "sweep.csv").read_bytes().decode("ascii").split("\r\n")
            check(lines[0] == "c1,c2,b,residual,order,status", "sweep.csv header")
            check(lines[-1] == "" and len(lines) == len(triples) + 2,
                  f"sweep.csv has {len(lines) - 2} rows, expected {len(triples)}")
            for line, triple in zip(lines[1:-1], triples):
                cells = line.split(",")
                check(cells[5] == "ok", f"sweep row not ok: {line}")
                check(tuple(float(c) for c in cells[:3]) == triple, f"sweep row order: {line}")
                check(float(cells[3]) >= 0.0 and math.isfinite(float(cells[4])),
                      f"sweep row values: {line}")
            return seconds, rss, _digests(out, "sweep.csv", "manifest.json")
        return body

    p.op("verify", verify)
    p.op("sweep", sweep("sweep", False))
    p.op("sweep_pool", sweep("sweep_pool", True))
    serial, pooled = p.ops[-2], p.ops[-1]
    if serial["ok"] and pooled["ok"]:
        same = list(serial["digests"].values()) == list(pooled["digests"].values())
        if not same:
            pooled.update(ok=False, error="pool sweep output differs from the serial sweep")


def surface(p: Pass, run: Runner) -> None:
    ins, z = p.inputs, p.inputs["sizes"]

    def mesh(fmt, nu, nv):
        def body():
            seconds, rss, _, out = p.cli_step(run, [
                "mesh", *_params(ins["ref"]), f"--u-lo={-z['mesh_span']!r}",
                f"--u-hi={z['mesh_span']!r}", f"--nu={nu}", "--v-lo=0.0",
                f"--v-hi={TWO_PI}", f"--nv={nv}", f"--format={fmt}",
            ], f"mesh_{fmt}", 0)
            data = (out / f"surface.{fmt}").read_bytes()
            n_vert, n_face = nu * nv, 2 * (nu - 1) * nv
            if fmt == "ply":
                end = data.index(b"end_header\n") + len(b"end_header\n")
                header = data[:end].decode("ascii").split("\n")
                check(f"element vertex {n_vert}" in header, "PLY vertex count")
                check(f"element face {n_face}" in header, "PLY face count")
                check(len(data) == end + 40 * n_vert + 13 * n_face, "PLY body size")
            else:
                check(data.count(b"\nv ") == n_vert, "OBJ vertex count")
                check(data.count(b"\nvn ") == n_vert, "OBJ normal count")
                check(data.count(b"\nf ") == n_face, "OBJ face count")
            del data
            return seconds, rss, _digests(out, f"surface.{fmt}", "manifest.json")
        return body

    p.op("mesh_ply", mesh("ply", z["ply_nu"], z["ply_nv"]))
    p.op("mesh_obj", mesh("obj", z["obj_nu"], z["obj_nv"]))


def interactive(p: Pass, run: Runner) -> None:
    ins, z = p.inputs, p.inputs["sizes"]
    expect = ins["expect"]

    def derive(i, triple):
        def body():
            b, c1, c2 = triple
            seconds, rss, stdout, out = p.cli_step(
                run, ["derive", f"--b={b!r}", f"--c1={c1!r}", f"--c2={c2!r}"], f"derive_{i}", 0)
            got = json.loads(stdout)
            for key, want in expect["derive"][i].items():
                check(rel_close(got[key], want, 1e-9), f"derive {key} = {got[key]} vs {want}")
            (out / "stdout.json").write_bytes(stdout)
            return seconds, rss, _digests(out, "stdout.json", "manifest.json")
        return body

    def pmc(i, c1):
        def body():
            seconds, rss, stdout, out = p.cli_step(run, [
                "pmc", f"--c1={c1!r}", f"--u-lo={-z['pmc_span']!r}",
                f"--u-hi={z['pmc_span']!r}", f"--n={z['pmc_n']}",
            ], f"pmc_{i}", 0)
            report = json.loads((out / "pmc_report.json").read_text())
            check(stdout == (out / "pmc_report.json").read_bytes(), "pmc stdout != report")
            check(report["verdict"].startswith("hypotheses satisfied"),
                  f"pmc verdict: {report['verdict']}")
            check(report["branch"] == ("low" if c1 < 1.5 else "high"), "pmc branch")
            check(rel_close(report["k2"], expect["pmc_k2"][i], 1e-9), "pmc k2")
            return seconds, rss, _digests(out, "pmc_report.json", "manifest.json")
        return body

    def classify(name, expect_rc, verdict):
        def body():
            seconds, rss, _, out = p.cli_step(run, [
                "classify", f"--profile=../{name}.csv",
                f"--resample-n={z['classify_resample']}",
            ], f"classify_{name}", expect_rc)
            got = json.loads((out / "verdict.json").read_text())["verdict"]
            check(got.startswith(verdict), f"classify {name} verdict: {got}")
            return seconds, rss, _digests(out, "verdict.json", "manifest.json")
        return body

    for i, triple in enumerate(ins["derive"]):
        p.op(f"derive_{i}", derive(i, triple))
    for i, c1 in enumerate(ins["pmc_c1"]):
        p.op(f"pmc_{i}", pmc(i, c1))
    p.op("classify_trumpet", classify("trumpet", 0, "in family"))
    p.op("classify_sphere", classify("sphere", 1, "rejected"))


def crosscheck(p: Pass, run: Runner) -> None:
    import numpy as np
    from scipy.interpolate import CubicSpline

    import ricci_liouville as rl
    from inputs import Closed

    ref, z = p.inputs["ref"], p.inputs["sizes"]
    closed = Closed(ref["b"], ref["c1"], ref["c2"])
    params = rl.MetricParams(b=ref["b"], c1=ref["c1"], c2=ref["c2"])
    half = z["roundtrip_share"] * p.inputs["expect"]["embeddable_half_width"]

    def digest(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()

    def arc_length_resample(u, x, y, n):
        # benchmark-side, untimed: spline arc length, then uniform samples
        xs, ys = CubicSpline(u, x), CubicSpline(u, y)
        speed = np.hypot(xs.derivative()(u), ys.derivative()(u))
        s = CubicSpline(u, speed).antiderivative()(u)
        s -= s[0]
        s_uni = np.linspace(0.0, s[-1], n)
        return s_uni, CubicSpline(s, xs(u))(s_uni), CubicSpline(s, ys(u))(s_uni)

    def roundtrip():
        start = time.perf_counter()
        prof = rl.profile_from_metric(params, (-half, half), tol=1e-10, n=z["roundtrip_n"])
        profile_s = time.perf_counter() - start
        s, x, y = arc_length_resample(prof.u, prof.x, prof.y, z["roundtrip_n"])
        start = time.perf_counter()
        u_rec, lam_rec = rl.metric_from_profile(s, x, y, z["roundtrip_resample"])
        h = float(u_rec[1] - u_rec[0])
        order, maxima = rl.ricci_order_1d(np.log(lam_rec), params.b, h)
        fit = rl.fit_normalization(lam_rec, params.b, h, u0=0.0)
        seconds = profile_s + time.perf_counter() - start
        err = float(np.max(np.abs(lam_rec - closed.lam(u_rec - half))))
        check(err < 1e-5, f"round trip error {err:.3e} >= 1e-5")
        check(abs(fit.c1_fit - math.sqrt(ref["c1"])) < 1e-4, f"fit c1 {fit.c1_fit}")
        check(abs(fit.c2_fit) < 10.0 * h * h, f"fit c2 {fit.c2_fit}")
        check(math.isfinite(order), "1-d order is not finite")
        return seconds, 0, {"roundtrip": digest(prof.x, prof.y, lam_rec, maxima,
                                                [fit.c1_fit, fit.c2_fit])}

    def defect_chain():
        start = time.perf_counter()
        prof = rl.profile_from_metric(params, (-z["mesh_span"], z["mesh_span"]), tol=1e-10,
                                      n=z["defect_nu"])
        mesh = rl.tessellate(prof, 0.0, 2.0 * math.pi, z["defect_nv"])
        ids, k_est, areas, skipped = rl.angle_defect_curvature(mesh)
        induced = rl.induced_metric_check(mesh, params)
        seconds = time.perf_counter() - start
        check(len(skipped) == 0, f"{len(skipped)} degenerate vertices")
        # the exact curvature per profile row, so the check adds few large arrays
        rows, row_of = np.unique(mesh.uv[ids, 0], return_inverse=True)
        k_true = closed.curvature(rows)[row_of]
        pointwise = float(np.max(np.abs(k_est - k_true) / np.abs(k_true)))
        integrated = abs(float(np.sum(k_est * areas)) / float(np.sum(k_true * areas)) - 1.0)
        check(pointwise < 0.05, f"angle defect pointwise {pointwise:.2%} >= 5%")
        check(integrated < 0.02, f"angle defect integrated {integrated:.2%} >= 2%")
        check(induced < 1e-3, f"induced metric deviation {induced:.2e} >= 1e-3")
        return seconds, 0, {"defect": digest(mesh.vertices, k_est, areas, [induced])}

    p.op("roundtrip", roundtrip)
    p.op("defect_chain", defect_chain)


WORKLOADS = {"certify": certify, "surface": surface, "crosscheck": crosscheck,
             "interactive": interactive}


def run_pass(workload: str, mode: str, workdir: Path) -> dict:
    start = time.perf_counter()
    import_s = None
    tracer = None
    if mode != "cli" or workload == "crosscheck":
        # the library import is set-up, outside every op
        t0 = time.perf_counter()
        importlib.import_module("ricci_liouville" if mode == "cli" else "ricci_liouville.cli")
        import_s = time.perf_counter() - t0
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    p = Pass(workdir)
    os.chdir(p.rundir)  # relative paths keep manifests byte-identical across passes
    WORKLOADS[workload](p, Runner(mode, p.rundir))
    os.chdir(workdir)
    if workload == "crosscheck" or mode != "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(op["rss_kb"] for op in p.ops)
    result = {
        "workload": workload,
        "mode": mode,
        "ops": p.ops,
        "wall_s": sum(op["seconds"] for op in p.ops if op["ok"]),
        "peak_rss_mb": rss_kb / 1024.0,
        "import_s": import_s,
        "elapsed_s": time.perf_counter() - start,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["spans"] = len(tracer.spans)
    shutil.rmtree(p.rundir, ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("cli", "inproc", "traced"))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args()
    result = run_pass(args.workload, args.mode, args.workdir.resolve())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

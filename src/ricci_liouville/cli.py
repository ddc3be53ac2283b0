"""Command line front end.

Subcommands: derive, verify, mesh, classify, sweep, pmc.  Exit codes:
0 success, 1 negative verification verdict, 2 usage or parameter error
(a data file or manifest that cannot be written included), 3 numerical
failure.  Each cmd_* returns (exit code, {file name: data}, summary,
stdout text) and writes nothing; main writes the data files, then
manifest.json, for a run that ends with a result (exit 0, or exit 1 with
a verdict file), and prints the stdout text only after them.  A run
that ends with an error message writes no file and prints nothing on
stdout.  The manifest records every parsed flag except --outdir, with
defaults resolved.  Data outputs are byte-deterministic for identical
inputs.

sweep studies all its triples together (verify.refinement_rows): each
refinement level is one closed-form call, one residual pass and one max
over one row per triple.  A triple that fails keeps its row, with the
status "domain: ..." (invalid parameters, a grid outside its domain or
too small for the stencil, K >= -2 b^2) or "numerical: ..." (no order
fit); such rows leave the exit code at 0.

A start pays only for what its subcommand runs: each command imports the
library modules it calls, and NumPy, inside its body.  derive, --help and
--version load no NumPy and take about 0.10 s end to end; the commands
that need NumPy take 0.2-0.25 s (2-vCPU guest, Python 3.11, bytecode not
cached).  verify and sweep skip revolution and pmc, mesh skips verify
and pmc, pmc skips revolution, and classify skips pmc.  No subcommand
loads SciPy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConvergenceError, NotInFamilyError, ParameterError
from .fileio import json_text, source_date_epoch, write_atomic, write_manifest

DEFAULT_B = 1.0 / math.sqrt(6.0)
_SWEEP_DEFAULT_B = (DEFAULT_B, 0.5, 1.0)
_SWEEP_DEFAULT_C1 = (0.25, 1.0, 4.0)
_SWEEP_DEFAULT_C2 = (-2.0, 0.0, 3.0)
_SWEEP_DEFAULT_H = (0.02, 0.01, 0.005)
# Largest point count one array of any command may hold, checked before it is
# allocated (2^21 CSV rows is about 0.2 GB of text).
POINT_BUDGET = 1 << 21


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _check_budget(points: int, request: str) -> None:
    """Reject ``request`` (naming its flags) before it allocates over POINT_BUDGET points."""
    if points > POINT_BUDGET:
        raise ParameterError(f"{request}, over the budget of {POINT_BUDGET}")


def _check_range(lo: float, hi: float, name: str) -> None:
    """Reject a NaN or infinite --{name}-lo/--{name}-hi bound, or a span that overflows."""
    for flag, x in ((f"--{name}-lo", lo), (f"--{name}-hi", hi)):
        if not math.isfinite(x):
            raise ParameterError(f"{flag} must be finite, got {x!r}")
    if not math.isfinite(hi - lo):
        raise ParameterError(f"the {name} range [{lo!r}, {hi!r}] is too wide")


def _check_steps(lo: float, hi: float, h: float, name: str, flag: str) -> float:
    """(hi - lo) / h, rejected when it overflows."""
    steps = (hi - lo) / h
    if not math.isfinite(steps):
        raise ParameterError(f"{flag} = {h!r} is too small for the {name} range")
    return steps


def _points_for(lo: float, hi: float, h: float, name: str) -> int:
    if not (math.isfinite(h) and h > 0.0):
        raise ParameterError(f"--h must be finite and positive, got {h!r}")
    _check_range(lo, hi, name)
    if not lo < hi:
        raise ParameterError(f"--{name}-lo must be below --{name}-hi, got {lo!r} and {hi!r}")
    n = int(round(_check_steps(lo, hi, h, name, "--h"))) + 1
    if n < 2 or abs((hi - lo) / (n - 1) - h) > 1e-9 * max(1.0, h):
        raise ParameterError(f"h = {h} does not evenly divide the {name} range")
    return n


def _grid_from_args(args):
    from .verify import GridSpec

    v_lo = args.v_lo if args.v_lo is not None else args.u_lo
    v_hi = args.v_hi if args.v_hi is not None else args.u_hi
    nu = _points_for(args.u_lo, args.u_hi, args.h, "u")
    nv = _points_for(v_lo, v_hi, args.h, "v")
    return GridSpec(args.u_lo, args.u_hi, v_lo, v_hi, nu, nv)


def cmd_derive(args):
    from .metric import MetricParams, derive_constants

    p = MetricParams(b=args.b, c1=args.c1, c2=args.c2)
    dc = derive_constants(p)
    payload = {
        "b": p.b,
        "c1": p.c1,
        "c2": p.c2,
        "disc": dc.disc,
        "s": dc.s,
        "k": dc.k.k,
        "k2": dc.k.k2,
        "lambda_plus": dc.lambda_plus,
        "lambda_minus": dc.lambda_minus,
        "u_max": dc.u_max,
    }
    return 0, {}, payload, json_text(payload)


def cmd_verify(args):
    from .metric import MetricParams
    from .verify import (
        fit_normalization,
        grid_to_csv,
        in_family_verdict,
        refinement_study,
        summary_to_json,
    )

    p = MetricParams(b=args.b, c1=args.c1, c2=args.c2)
    spec = _grid_from_args(args)
    if args.levels < 2:
        raise ParameterError("--levels must be at least 2")
    if spec.nu < 7 or spec.nv < 5:
        raise ParameterError(
            f"--h {args.h!r} gives {spec.nu} points along u and {spec.nv} along v; "
            "verify needs at least 7 along u and 5 along v"
        )
    # the shift is capped so that a huge --levels builds no huge integer
    shift = min(args.levels - 1, POINT_BUDGET.bit_length())
    _check_budget(
        ((spec.nu - 1) << shift) + 1,
        f"--levels {args.levels} with --h {args.h!r} asks for a finest column of "
        f"{spec.nu - 1} * 2^{args.levels - 1} + 1 points",
    )
    _check_budget(
        spec.nu * spec.nv, f"--h {args.h!r} gives a CSV of {spec.nu} x {spec.nv} rows"
    )

    _, rs, order, grid = refinement_study(
        p, (spec.refined(2**lev) for lev in range(args.levels))
    )
    max_res = rs[0]
    fit = fit_normalization(grid.lambda_column, p.b, spec.h, u0=spec.u_lo)
    verdict = in_family_verdict(max_res, order, spec.h)
    # the manifest records the grid's v range and spacing
    args.v_lo, args.v_hi, args.h = spec.v_lo, spec.v_hi, spec.h
    files = {
        "residuals.csv": grid_to_csv(grid),
        "summary.json": summary_to_json(max_res, order, fit, spec.h, verdict),
    }
    summary = {"max_residual": max_res, "order": order, "verdict": verdict}
    return 0 if verdict else 1, files, summary, ""


def cmd_mesh(args):
    from .metric import MetricParams
    from .revolution import mesh_to_obj, mesh_to_ply, profile_from_metric, tessellate

    p = MetricParams(b=args.b, c1=args.c1, c2=args.c2)
    _check_range(args.u_lo, args.u_hi, "u")
    v_lo, v_hi = args.v_lo, args.v_hi
    if not (math.isfinite(v_lo) and math.isfinite(v_hi) and math.isfinite(v_hi - v_lo)):
        raise ParameterError(
            f"--v-lo {v_lo!r} and --v-hi {v_hi!r} must be finite with a finite span"
        )
    _check_budget(args.nu, f"--nu {args.nu} asks for {args.nu} profile samples")
    _check_budget(
        args.nu * args.nv,
        f"--nu {args.nu} with --nv {args.nv} asks for {args.nu} x {args.nv} mesh vertices",
    )
    profile = profile_from_metric(
        p, (args.u_lo, args.u_hi), tol=args.tol, n=args.nu
    )
    mesh = tessellate(profile, args.v_lo, args.v_hi, args.nv)
    data = mesh_to_obj(mesh) if args.format == "obj" else mesh_to_ply(mesh)
    summary = {"vertices": len(mesh.vertices), "faces": mesh.face_count, "closed": mesh.closed}
    return 0, {f"surface.{args.format}": data}, summary, ""


def _read_profile_csv(path):
    import csv

    import numpy as np

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(cell) for cell in row] for row in reader if row]
    except (OSError, StopIteration, ValueError, csv.Error) as exc:
        raise ParameterError(f"cannot parse profile CSV {path}: {exc}") from exc
    cols = [c.strip().lower() for c in header]
    if len(cols) != 3 or cols[0] not in ("s", "u") or cols[1] != "x" or cols[2] != "y":
        raise ParameterError(
            f"profile CSV must have header s,x,y (or u,x,y), got {header}"
        )
    if len(rows) < 4:
        raise ParameterError("profile CSV needs at least 4 samples")
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2]


def cmd_classify(args):
    import numpy as np

    from .revolution import metric_from_profile
    from .verify import fit_normalization, in_family_verdict, ricci_order_1d

    _check_budget(
        args.resample_n, f"--resample-n {args.resample_n} asks for {args.resample_n} samples"
    )
    s, x, y = _read_profile_csv(args.profile)
    u_grid, lam = metric_from_profile(s, x, y, args.resample_n)
    h = u_grid[1] - u_grid[0]
    try:
        order, maxima = ricci_order_1d(np.log(lam), args.b, h)
        fit = fit_normalization(lam, args.b, h, u0=float(u_grid[0]))
    except NotInFamilyError as exc:
        code, payload = 1, {"verdict": f"rejected: {exc}", "sample_index": exc.index}
    else:
        # the affine deviation of F = log(lambda^2 sqrt(-2 b^2 - K)) carries one
        # stencil layer instead of two, so its O(h^2) constant suits the floor
        ok = in_family_verdict(fit.max_affine_residual, order, h)
        code, payload = 0 if ok else 1, {
            "verdict": "in family" if ok else "not in family at sampled resolution",
            "max_residual": maxima[0],
            "order": order,
            "h": h,
            "c1_fit": fit.c1_fit,
            "c2_fit": fit.c2_fit,
            "max_affine_residual": fit.max_affine_residual,
        }
    return code, {"verdict.json": json_text(payload)}, payload, ""


def _parse_values(text: str, name: str):
    if text.strip() == "":
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse {name} value list {text!r}") from exc


def cmd_sweep(args):
    import io

    from .verify import GridSpec, refinement_rows

    h_text = args.h_levels
    # the manifest records the parsed value lists
    args.b_values = _parse_values(args.b_values, "--b-values")
    args.c1_values = _parse_values(args.c1_values, "--c1-values")
    args.c2_values = _parse_values(args.c2_values, "--c2-values")
    args.h_levels = _parse_values(h_text, "--h-levels")
    _check_range(args.u_lo, args.u_hi, "u")
    if args.u_lo >= args.u_hi:
        raise ParameterError("need --u-lo < --u-hi")
    sizes = []
    for h in args.h_levels:
        if not (math.isfinite(h) and h > 0.0):
            raise ParameterError(f"--h-levels must be finite and positive, got {h!r}")
        steps = _check_steps(args.u_lo, args.u_hi, h, "u", "--h-levels value")
        sizes.append(int(round(steps)) + 1)
        _check_budget(sizes[-1], f"--h-levels value {h!r} asks for a column of {sizes[-1]} points")
    if len(set(sizes)) < 2:
        raise ParameterError(
            f"--h-levels needs at least two spacings that give distinct grids for the "
            f"order fit, got {h_text!r}"
        )

    triples = [
        (b, c1, c2) for c1 in args.c1_values for c2 in args.c2_values for b in args.b_values
    ]
    # square grids of each size, one row per triple on each
    specs = (GridSpec(args.u_lo, args.u_hi, args.u_lo, args.u_hi, n, n) for n in sizes)
    buf = io.StringIO()
    buf.write("c1,c2,b,residual,order,status\r\n")
    n_ok = 0
    for (b, c1, c2), result in zip(triples, refinement_rows(triples, specs)):
        if isinstance(result, Exception):
            kind = "numerical" if isinstance(result, ConvergenceError) else "domain"
            res = order = ""
            status = f"{kind}: {result}".replace('"', "'")
            if "," in status:
                status = f'"{status}"'
        else:
            res, order, status = _fmt(result[0][-1]), _fmt(result[1]), "ok"
            n_ok += 1
        buf.write(f"{_fmt(c1)},{_fmt(c2)},{_fmt(b)},{res},{order},{status}\r\n")
    return 0, {"sweep.csv": buf.getvalue()}, {"rows": len(triples), "ok": n_ok}, ""


def cmd_pmc(args):
    from .pmc import SubfamilyBranch, pmc_report

    _check_range(args.u_lo, args.u_hi, "u")
    if not args.u_lo < args.u_hi:
        raise ParameterError("need --u-lo < --u-hi for the residual stencil")
    if args.n < 5:
        raise ParameterError(f"--n must be at least 5 for the residual stencil, got {args.n}")
    _check_budget(args.n, f"--n {args.n} asks for {args.n} samples")
    branch = SubfamilyBranch(c1=args.c1)
    report = pmc_report(branch, (args.u_lo, args.u_hi), args.n)
    text = report.to_json()
    code = 0 if report.verdict.startswith("hypotheses satisfied") else 1
    return code, {"pmc_report.json": text}, {"verdict": report.verdict}, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricci-liouville",
        description=(
            "Construct, evaluate and certify special Liouville metrics whose "
            "curvature satisfies the Ricci-type condition, and realize them "
            "as surfaces of revolution."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, with_c: bool = True):
        sp.add_argument("--b", type=float, default=DEFAULT_B,
                        help="half mean curvature norm (default 1/sqrt(6))")
        if with_c:
            sp.add_argument("--c1", type=float, required=True)
            sp.add_argument("--c2", type=float, required=True)
        sp.add_argument("--outdir", default=".", help="output directory (default .)")

    sp = sub.add_parser("derive", help="print the derived constants as JSON")
    add_params(sp)
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("verify", help="finite-difference residual of the curvature condition")
    add_params(sp)
    sp.add_argument("--u-lo", type=float, required=True)
    sp.add_argument("--u-hi", type=float, required=True)
    sp.add_argument("--v-lo", type=float, default=None, help="default: u range")
    sp.add_argument("--v-hi", type=float, default=None, help="default: u range")
    sp.add_argument("--h", type=float, required=True, help="grid spacing (square cells)")
    sp.add_argument("--levels", type=int, default=3,
                    help="refinement levels for the order fit; the finest column and the "
                    f"CSV rows may each hold at most {POINT_BUDGET} points")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("mesh", help="tessellate the revolution surface, OBJ or binary PLY")
    add_params(sp)
    sp.add_argument("--u-lo", type=float, required=True)
    sp.add_argument("--u-hi", type=float, required=True)
    sp.add_argument("--nu", type=int, required=True, help="profile samples")
    sp.add_argument("--v-lo", type=float, required=True)
    sp.add_argument("--v-hi", type=float, required=True)
    sp.add_argument("--nv", type=int, required=True, help="mesh columns around the axis")
    sp.add_argument("--format", required=True, choices=("obj", "ply"))
    sp.add_argument("--tol", type=float, default=1e-10, help="profile quadrature tolerance")
    sp.set_defaults(func=cmd_mesh)

    sp = sub.add_parser("classify", help="test whether a profile CSV induces a family metric")
    add_params(sp, with_c=False)
    sp.add_argument("--profile", required=True, help="CSV with header s,x,y (arc length)")
    sp.add_argument("--resample-n", type=int, required=True,
                    help="uniform u samples for the stencil (e.g. 51)")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("sweep", help="residual and convergence order over a parameter box")
    sp.add_argument("--b-values", default=",".join(map(str, _SWEEP_DEFAULT_B)))
    sp.add_argument("--c1-values", default=",".join(map(str, _SWEEP_DEFAULT_C1)))
    sp.add_argument("--c2-values", default=",".join(map(str, _SWEEP_DEFAULT_C2)))
    sp.add_argument("--u-lo", type=float, default=-0.5)
    sp.add_argument("--u-hi", type=float, default=0.5)
    sp.add_argument("--h-levels", default=",".join(map(str, _SWEEP_DEFAULT_H)))
    sp.add_argument("--outdir", default=".")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("pmc", help="report for the parallel mean curvature subfamily")
    sp.add_argument("--c1", type=float, required=True)
    sp.add_argument("--u-lo", type=float, required=True)
    sp.add_argument("--u-hi", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="samples over the interval")
    sp.add_argument("--outdir", default=".")
    sp.set_defaults(func=cmd_pmc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        source_date_epoch()  # a bad value must fail before any output is written
        code, files, summary, stdout = args.func(args)
        for name, data in files.items():
            write_atomic(Path(args.outdir) / name, data)
        parameters = {
            k: v for k, v in vars(args).items() if k not in ("command", "func", "outdir")
        }
        write_manifest(args.outdir, args.command, parameters, files, summary, __version__)
        print(stdout, end="")
        return code
    except NotInFamilyError as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ParameterError, DomainError and friends are usage errors; an
        # OSError is an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

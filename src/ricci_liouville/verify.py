"""Finite-difference certification of the Ricci-type curvature condition.

For the conformal metric lambda(u)^2 (du^2 + dv^2) the Laplace-Beltrami
operator is Delta f = (f_uu + f_vv) / lambda^2, and the condition under
test is

    Delta log sqrt(-2 b^2 - K) = 2 K,     K < -2 b^2.

Family members satisfy it exactly, so the discrete residual of the
classical 5-point stencil is pure O(h^2) discretization error; that order
is what the convergence study certifies.  A 1-d specialization classifies
arbitrary sampled special Liouville metrics, and the normalization fit
recovers the affine-log law log(lambda^2 sqrt(-2 b^2 - K)) = log a + c u
that characterizes solutions.

Boundary layers are trimmed (no one-sided stencils), keeping a uniform
O(h^2) error model.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotInFamilyError, ParameterError
from .metric import (
    MetricParams,
    _curvature_from_factor,
    _domain_rows,
    _factor_rows,
    derive_constants,
)

__all__ = [
    "NormalizationFit",
    "ricci_residual_column",
    "refinement_rows",
    "estimate_order",
    "ricci_residual_1d",
    "ricci_order_1d",
    "fit_normalization",
    "residual_floor",
    "in_family_verdict",
    "grid_to_csv",
]

RESIDUAL_UNDERFLOW = 1e-13
# coarsening strides of ricci_order_1d, finest first
ORDER_STRIDES = (1, 2, 4)
# fewest samples of ricci_order_1d: its coarsest stride keeps the 7 of ricci_residual_1d
ORDER_SAMPLES = 6 * ORDER_STRIDES[-1] + 1


@dataclass(frozen=True)
class NormalizationFit:
    """Affine fit of F(u) = log(lambda^2 sqrt(-2 b^2 - K)).

    c1_fit is exp(intercept) and c2_fit the slope; for a metric of the
    closed-form family c2_fit ~ 0 and c1_fit ~ sqrt(c1).  The deviation of
    the data from the fitted line is reported, never hidden.
    """

    c1_fit: float
    c2_fit: float
    max_affine_residual: float

    def __post_init__(self):
        if self.c1_fit <= 0.0:
            raise ParameterError("fitted multiplicative constant must be positive")
        if self.max_affine_residual < 0.0:
            raise ParameterError("max_affine_residual must be nonnegative")


def _curvature_gap(curv, b):
    """w = -2 b^2 - K, and whether each row (along the last axis) has w <= 0 somewhere."""
    w = -2.0 * b * b - curv
    return w, np.any(w <= 0.0, axis=-1)


def _not_in_family(w) -> NotInFamilyError:
    """The error of a u-column whose w = -2 b^2 - K is not positive, at its minimum."""
    i = int(np.argmin(w))
    return NotInFamilyError(
        f"K >= -2 b^2 at u-sample {i}; log sqrt(-2 b^2 - K) is undefined there", index=i
    )


def ricci_residual_column(lam, curv, b, h: float) -> np.ndarray:
    """Delta log sqrt(-2 b^2 - K) - 2 K on the interior of each u-column.

    ``lam`` and ``curv`` hold lambda and K at uniform spacing h along the
    last axis, one column per row of a 2-d input; ``b`` is a float or a
    column with one entry per row.  The result drops the first and last
    sample.  Every certification path runs this kernel.  The sum
    f[2:] + f[:-2] + c + c - 4 c is the 5-point stencil of a v-independent
    f (both v-neighbours equal the centre) in the 2-d order of operations,
    so it is bit-identical to the full-grid stencil.  Requires K < -2 b^2
    at every sample (NotInFamilyError, naming the u-sample, for the first
    column that breaks it).
    """
    w, bad = _curvature_gap(curv, b)
    if np.any(bad):
        raise _not_in_family(np.atleast_2d(w)[np.argmax(bad)])
    f = 0.5 * np.log(w)
    c = f[..., 1:-1]
    lap = (f[..., 2:] + f[..., :-2] + c + c - 4.0 * c) / (h * h)
    return lap / lam[..., 1:-1] ** 2 - 2.0 * curv[..., 1:-1]


def _stencil_spacing_ok(h: float) -> bool:
    """Whether the residual stencil can divide by h * h: the square is a normal float.

    Below sys.float_info.min the square is subnormal or 0, so the stencil's
    quotient is rounding noise or NaN; every certifier checks this one rule
    before it forms the stencil.
    """
    return h * h >= sys.float_info.min


def _require_stencil_spacing(h: float, stencil: str = "the residual stencil") -> None:
    """ParameterError naming ``stencil`` and the spacing ``h`` unless _stencil_spacing_ok(h)."""
    if not _stencil_spacing_ok(h):
        raise ParameterError(
            f"{stencil} needs a spacing whose square is at least "
            f"{sys.float_info.min!r}, got spacing {h!r}"
        )


def estimate_order(hs, residuals) -> float:
    """Least-squares slope of log(residual) against log(h).

    Levels whose residual underflows below RESIDUAL_UNDERFLOW are excluded;
    fewer than two usable levels is an error.
    """
    order = _orders(hs, [residuals])[0]
    if isinstance(order, ConvergenceError):
        raise order
    return order


def _orders(hs, rows) -> list:
    """estimate_order of each residual list in ``rows``, or its ConvergenceError.

    Rows that keep the same levels share one polyfit with one column per
    row; each column carries the bits of a fit of its row alone.
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(rows, dtype=float)
    keep = rs > RESIDUAL_UNDERFLOW
    orders = [None] * len(rows)
    for mask in {tuple(k) for k in keep.tolist()}:
        same = np.flatnonzero((keep == mask).all(axis=1)).tolist()
        mask = np.array(mask, dtype=bool)
        if int(np.count_nonzero(mask)) < 2:
            for i in same:
                orders[i] = ConvergenceError(
                    "fewer than 2 levels with residual above the underflow floor "
                    f"{RESIDUAL_UNDERFLOW}"
                )
            continue
        slopes, _ = np.polyfit(np.log(hs[mask]), np.log(rs[same][:, mask]).T, 1)
        for i, slope in zip(same, slopes.tolist()):
            orders[i] = slope
    return orders


def refinement_rows(triples, u_lo, u_hi, sizes):
    """Residual maxima and convergence order of every (b, c1, c2) in ``triples``.

    The one refinement loop: verify runs it with one triple, sweep with
    many.  Each level samples the u-interval [u_lo, u_hi] at the node
    count of ``sizes`` (coarsest first), spacing (u_hi - u_lo) / (n - 1);
    the metric does not depend on v, so u-columns are all it needs.  Each
    level evaluates all triples still running with one Jacobi call, one
    residual pass (ricci_residual_column) and one max, one row per
    triple, and the orders are fitted together (_orders, behind
    estimate_order).  When a level halves the previous spacing and its
    even nodes equal the previous nodes, lambda there is taken from the
    previous level and only the odd nodes are evaluated.

    A reversed or NaN interval, a level of fewer than 5 nodes (the
    residual stencil's minimum), or a level whose spacing squared is not
    a normal float (_stencil_spacing_ok: the stencil would divide by a
    subnormal or zero h * h) raises ParameterError before any row is
    evaluated.  Otherwise a row stops at its first error, in the order a
    level-by-level study of its triple alone meets them: MetricParams,
    derive_constants and the domain check (once, before the first level,
    on the interval ends, which every level shares), K >= -2 b^2, then
    estimate_order.  Returns one entry per triple: (maxima, order, lambda, K,
    residual), where maxima holds the max |residual| of each level and
    the last three are the first level's u-columns (the residual on its
    interior), or the exception that ends the row (ParameterError,
    NotInFamilyError or ConvergenceError).
    """
    if not u_lo < u_hi:
        raise ParameterError(f"need u_lo < u_hi, got {u_lo!r} and {u_hi!r}")
    coarse = [n for n in sizes if n < 5]
    if coarse:
        raise ParameterError(
            f"the residual stencil needs levels of at least 5 nodes, got {coarse[0]}"
        )
    for n in sizes:
        _require_stencil_spacing((u_hi - u_lo) / (n - 1))
    results = [None] * len(triples)
    live = []  # (row, MetricParams, DerivedConstants)
    for r, (b, c1, c2) in enumerate(triples):
        try:
            p = MetricParams(b=b, c1=c1, c2=c2)
            live.append((r, p, derive_constants(p)))
        except ParameterError as exc:
            results[r] = exc
    for (r, *_), exc in zip(live, _domain_rows([dc for *_, dc in live], (u_lo, u_hi))):
        results[r] = exc
    live = [row for row in live if results[row[0]] is None]
    hs, maxima, first = [], [[] for _ in triples], {}
    last = None  # the previous level's nodes, lambda rows and their row indices
    for n in sizes:
        if not live:
            break
        u, h = np.linspace(u_lo, u_hi, n), (u_hi - u_lo) / (n - 1)
        constants = [dc for *_, dc in live]
        rows = [r for r, *_ in live]
        nested = last is not None and len(u) == 2 * len(last[0]) - 1
        if nested and np.array_equal(u[::2], last[0]):
            # a halved spacing whose even nodes are the previous level's, bit for bit:
            # lambda is elementwise, so only the new odd nodes are evaluated
            lam = np.empty((len(rows), len(u)))
            lam[:, ::2] = last[1][np.isin(last[2], rows)]
            lam[:, 1::2] = _factor_rows(constants, u[1::2])
        else:
            lam = _factor_rows(constants, u)
        last = (u, lam, rows)
        b = np.array([p.b for _, p, _ in live])[:, None]
        curv = _curvature_from_factor(b, np.array([p.c1 for _, p, _ in live])[:, None], lam)
        w, bad = _curvature_gap(curv, b)
        if bad.any():
            for j in np.flatnonzero(bad).tolist():
                results[live[j][0]] = _not_in_family(w[j])
            keep = ~bad
            live = [row for row, ok in zip(live, keep.tolist()) if ok]
            lam, curv, b = lam[keep], curv[keep], b[keep]
        res = ricci_residual_column(lam, curv, b, h)
        for (r, *_), top in zip(live, np.max(np.abs(res), axis=1).tolist()):
            maxima[r].append(top)
        if not hs:  # each row's first-level columns, returned with its result
            first = {r: (lam[j], curv[j], res[j]) for j, (r, *_) in enumerate(live)}
        hs.append(h)
    ok = [r for r, result in enumerate(results) if result is None]
    for r, order in zip(ok, _orders(hs, [maxima[r] for r in ok])):
        if isinstance(order, ConvergenceError):
            results[r] = order
        else:
            results[r] = (maxima[r], order, *first[r])
    return results


def _fd_curvature(phi: np.ndarray, b: float, h: float):
    """K = -phi'' e^{-2 phi} by 3-point differences of phi = log(lambda).

    Returns (K, -2 b^2 - K) on the interior samples; raises
    ParameterError unless the spacing h and b are finite and positive and
    h passes _stencil_spacing_ok, and NotInFamilyError naming the first
    sample where -2 b^2 - K <= 0.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ParameterError(f"spacing h must be finite and positive, got {h!r}")
    _require_stencil_spacing(h)
    if not (math.isfinite(b) and b > 0.0):
        raise ParameterError(f"b must be finite and positive, got {b!r}")
    curv = -((phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (h * h)) * np.exp(-2.0 * phi[1:-1])
    w = -2.0 * b * b - curv
    if np.any(w <= 0.0):
        bad = int(np.argmax(w <= 0.0)) + 1
        raise NotInFamilyError(
            f"K >= -2 b^2 at sample index {bad}: not in family at sampled resolution",
            index=bad,
        )
    return curv, w


def ricci_residual_1d(phi, b: float, h: float) -> np.ndarray:
    """Residual of the curvature condition for v-independent sampled data.

    ``phi`` holds log(lambda) on a uniform u-grid with spacing h.  The
    curvature K = -phi'' e^{-2 phi} is formed with the 3-point stencil,
    then the residual kernel ricci_residual_column runs on K and
    lambda = e^phi; two layers are trimmed per side, so the result has
    len(phi) - 4 entries.

    Raises NotInFamilyError naming the first offending sample when
    -2 b^2 - K <= 0 somewhere: such data definitely violates the curvature
    inequality of the family at the sampled resolution.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size < 7:
        raise ParameterError("need at least 7 samples of log(lambda)")
    curv, _ = _fd_curvature(phi, b, h)
    return ricci_residual_column(np.exp(phi[1:-1]), curv, b, h)


def ricci_order_1d(phi, b: float, h: float):
    """Convergence order of the 1-d residual under the ORDER_STRIDES coarsenings.

    Residuals are compared at the physical points common to all strides
    (the interior of the coarsest grid), which removes the drift that the
    advancing trim boundary would otherwise add to the slope.  Returns
    (order, residuals) with one max per stride, from ORDER_SAMPLES samples or more.
    """
    phi = np.asarray(phi, dtype=float)
    coarsest = ORDER_STRIDES[-1]
    if phi.size < ORDER_SAMPLES:
        raise ParameterError(f"need at least {ORDER_SAMPLES} samples for stride {coarsest}")
    n_sub = (phi.size - 1) // coarsest + 1
    common = coarsest * np.arange(2, n_sub - 2)  # interior of the coarsest grid
    hs, maxima = [], []
    for stride in ORDER_STRIDES:
        res = ricci_residual_1d(phi[::stride], b, h * stride)
        # residual index i corresponds to sample index stride * (i + 2)
        idx = common // stride - 2
        hs.append(h * stride)
        maxima.append(float(np.max(np.abs(res[idx]))))
    return estimate_order(hs, maxima), maxima


def fit_normalization(lambda_samples, b: float, h: float, *, u0: float | None = None) -> NormalizationFit:
    """Fit F(u) = log(lambda^2 sqrt(-2 b^2 - K)) by an affine law in u.

    K comes from central differences of log(lambda).  Ordinary least
    squares over the interior points; ``u0`` fixes the u-coordinate of the
    first sample (default centres the grid at 0, which only affects the
    intercept).  Exact solutions of the curvature condition have an exactly
    affine F, so max_affine_residual is O(h^2) for them.
    """
    lam = np.asarray(lambda_samples, dtype=float)
    if lam.ndim != 1 or lam.size < 7:
        raise ParameterError("need at least 7 lambda samples")
    if np.any(lam <= 0.0):
        raise ParameterError("lambda samples must be positive")
    phi = np.log(lam)
    _, w = _fd_curvature(phi, b, h)
    big_f = 2.0 * phi[1:-1] + 0.5 * np.log(w)
    n = lam.size
    if u0 is None:
        u = (np.arange(1, n - 1) - (n - 1) / 2.0) * h
    else:
        u = u0 + np.arange(1, n - 1) * h
    slope, intercept = np.polyfit(u, big_f, 1)
    resid = big_f - (intercept + slope * u)
    return NormalizationFit(
        c1_fit=float(math.exp(intercept)),
        c2_fit=float(slope),
        max_affine_residual=float(np.max(np.abs(resid))),
    )


def residual_floor(h: float) -> float:
    """Bound the max residual must stay below at spacing h: max(1e-6, 10 h^2)."""
    return max(1e-6, 10.0 * h * h)


def in_family_verdict(max_residual: float, order: float, h: float) -> bool:
    """Membership rule: residual below residual_floor(h) and order in [1.8, 2.2]."""
    return max_residual < residual_floor(h) and 1.8 <= order <= 2.2


def grid_to_csv(u, v, lam, curv, res) -> bytes:
    """Render a grid as RFC-4180 CSV with columns u, v, lambda, K, residual.

    ``u`` and ``v`` hold the grid's nodes.  A special Liouville metric does
    not depend on v, so the fields are u-columns: ``lam`` and ``curv``
    hold len(u) samples and ``res`` the len(u) - 2 interior residuals of
    ricci_residual_column.  One row per grid point, u-major, as ASCII
    bytes.  Floats carry 17 significant digits; the residual is empty on
    the boundary, where the stencil is undefined.  Each distinct value is
    formatted once, and the len(v) lines of one u share all fields but v,
    so they are joined in one call, encoded together and written into one
    io.BytesIO, whose bytes are the result: the text is never held whole
    as a str, and the rows are never held apart from the output.
    """
    lam, curv, res = (np.asarray(x, dtype=float) for x in (lam, curv, res))
    nu = len(u)
    if len(v) < 2 or not lam.shape == curv.shape == (nu,) or res.shape != (nu - 2,):
        raise ParameterError(
            f"column shapes must equal ({nu},) and ({nu - 2},) for the residual, with at "
            f"least 2 v-nodes; got {lam.shape}, {curv.shape}, {res.shape} and {len(v)} v-nodes"
        )
    u, lam, curv, res = _fmt17(u), _fmt17(lam), _fmt17(curv), ["", *_fmt17(res), ""]
    first, *inner, last = _fmt17(v)
    out = io.BytesIO()
    out.write(b"u,v,lambda,K,residual\r\n")
    for ui, li, ki, ri in zip(u, lam, curv, res):
        head = ui + ","
        edge = f",{li},{ki},\r\n"  # first and last v: no residual
        tail = f",{li},{ki},{ri}\r\n"
        middle = head + (tail + head).join(inner) + tail if inner else ""
        out.write(f"{head}{first}{edge}{middle}{head}{last}{edge}".encode("ascii"))
    return out.getvalue()


def _fmt17(values) -> list[str]:
    """Each float of ``values`` with 17 significant digits: the cells of every CSV."""
    return [f"{x:.17g}" for x in np.asarray(values, dtype=float).tolist()]

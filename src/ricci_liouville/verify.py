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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotInFamilyError, ParameterError
from .fileio import json_text
from .metric import (
    MetricParams,
    _curvature_from_factor,
    _domain_rows,
    _factor_rows,
    conformal_factor,
    derive_constants,
)

__all__ = [
    "GridSpec",
    "MetricGrid",
    "NormalizationFit",
    "sample_grid",
    "ricci_residual_grid",
    "refinement_study",
    "refinement_rows",
    "estimate_order",
    "ricci_residual_1d",
    "ricci_order_1d",
    "fit_normalization",
    "residual_floor",
    "in_family_verdict",
    "grid_to_csv",
    "summary_to_json",
    "RESIDUAL_UNDERFLOW",
]

RESIDUAL_UNDERFLOW = 1e-13
# coarsening strides of ricci_order_1d, finest first
ORDER_STRIDES = (1, 2, 4)


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid with square cells.

    The 5-point Laplacian requires the spacing to be identical in u and v;
    construction rejects mismatched spacings (tolerance 1e-12).
    """

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float
    nu: int
    nv: int

    def __post_init__(self):
        if not (self.u_lo < self.u_hi and self.v_lo < self.v_hi):
            raise ParameterError("grid bounds must satisfy lo < hi")
        if self.nu < 2 or self.nv < 2:
            raise ParameterError("grid needs at least 2 points per direction")
        hu = (self.u_hi - self.u_lo) / (self.nu - 1)
        hv = (self.v_hi - self.v_lo) / (self.nv - 1)
        if abs(hu - hv) > 1e-12:
            raise ParameterError(
                f"cells must be square: spacing {hu!r} in u vs {hv!r} in v"
            )

    @property
    def h(self) -> float:
        return (self.u_hi - self.u_lo) / (self.nu - 1)

    def u_nodes(self) -> np.ndarray:
        return np.linspace(self.u_lo, self.u_hi, self.nu)

    def v_nodes(self) -> np.ndarray:
        return np.linspace(self.v_lo, self.v_hi, self.nv)

    def refined(self, factor: int) -> "GridSpec":
        """Same rectangle with spacing divided by ``factor``."""
        return GridSpec(
            self.u_lo,
            self.u_hi,
            self.v_lo,
            self.v_hi,
            (self.nu - 1) * factor + 1,
            (self.nv - 1) * factor + 1,
        )


class MetricGrid:
    """Sampled conformal factor and curvature over a GridSpec.

    A special Liouville metric does not depend on v, so the grid holds 1-d
    columns of length nu along u: lambda_column, curvature_column and, once
    ricci_residual_grid has run, ricci_residual_column (NaN on the first
    and last rows).  v enters only through the spec: the square-cell
    spacing and the rows of grid_to_csv.
    """

    def __init__(self, spec: GridSpec, lambda_column, curvature_column):
        lam = np.asarray(lambda_column, dtype=float)
        curv = np.asarray(curvature_column, dtype=float)
        if not lam.shape == curv.shape == (spec.nu,):
            raise ParameterError(
                f"column shapes must equal ({spec.nu},), got {lam.shape} and {curv.shape}"
            )
        self.spec = spec
        self.lambda_column = lam
        self.curvature_column = curv
        self.ricci_residual_column: np.ndarray | None = None


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


def sample_grid(p: MetricParams, g: GridSpec) -> MetricGrid:
    """Sample the lambda and K columns at the grid's u-nodes.

    One closed-form call gives lambda; K = -2 b^2 - c1 / lambda^4 is formed
    from it exactly as gaussian_curvature does.  The u-range must sit
    inside the metric domain (DomainError otherwise).
    """
    lam = conformal_factor(p, g.u_nodes())
    return MetricGrid(g, lam, _curvature_from_factor(p.b, p.c1, lam))


def _curvature_gap(curv, b):
    """w = -2 b^2 - K, and whether each row (along the last axis) has w <= 0 somewhere."""
    w = -2.0 * b * b - curv
    return w, np.any(w <= 0.0, axis=-1)


def _not_in_family(w) -> NotInFamilyError:
    """The error of a u-column whose w = -2 b^2 - K is not positive, at its minimum."""
    i = int(np.argmin(w))
    return NotInFamilyError(
        f"K >= -2 b^2 at grid point ({i}, 0); log sqrt(-2 b^2 - K) is undefined there",
        index=(i, 0),
    )


def _residual_column(lam, curv, b, h: float) -> np.ndarray:
    """Delta log sqrt(-2 b^2 - K) - 2 K on the interior of each u-column.

    ``lam`` and ``curv`` hold lambda and K at uniform spacing h along the
    last axis, one column per row of a 2-d input; ``b`` is a float or a
    column with one entry per row.  The result drops the first and last
    sample.  Every certification path runs this kernel.  The sum
    f[2:] + f[:-2] + c + c - 4 c is the 5-point stencil of a v-independent
    f (both v-neighbours equal the centre) in the 2-d order of operations,
    so it is bit-identical to the full-grid stencil.  Requires K < -2 b^2
    at every sample (NotInFamilyError for the first column that breaks it).
    """
    w, bad = _curvature_gap(curv, b)
    if np.any(bad):
        raise _not_in_family(np.atleast_2d(w)[np.argmax(bad)])
    f = 0.5 * np.log(w)
    c = f[..., 1:-1]
    lap = (f[..., 2:] + f[..., :-2] + c + c - 4.0 * c) / (h * h)
    return lap / lam[..., 1:-1] ** 2 - 2.0 * curv[..., 1:-1]


def _stencil_error(g: GridSpec) -> ParameterError | None:
    """The error of a grid too small for the residual stencil, or None."""
    if g.nu < 5 or g.nv < 5:
        return ParameterError("residual stencil needs a grid of at least 5x5")
    return None


def ricci_residual_grid(m: MetricGrid, b: float) -> float:
    """Max |Delta log sqrt(-2 b^2 - K) - 2 K| over interior grid points.

    The 5-point stencil for f_uu + f_vv, divided by lambda^2 for the
    Laplace-Beltrami operator of the conformal metric, runs on the
    u-column.  Stores the residual column (NaN on the boundary rows) on
    the grid and returns the interior max.  Requires K < -2 b^2 at every
    grid point.
    """
    g = m.spec
    exc = _stencil_error(g)
    if exc is not None:
        raise exc
    res = _residual_column(m.lambda_column, m.curvature_column, b, g.h)
    m.ricci_residual_column = np.full(g.nu, np.nan)
    m.ricci_residual_column[1:-1] = res
    return float(np.max(np.abs(res)))


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


def refinement_study(p: MetricParams, specs):
    """Ricci residual on each grid of ``specs`` and the fitted order.

    Samples each grid in turn, takes its interior max residual with
    ricci_residual_grid and fits the log-log slope with estimate_order.
    ``specs`` is consumed lazily, so a generator raises its errors in grid
    order.  Returns (hs, residuals, order, base), where base is the first
    sampled grid with its residual stored.
    """
    hs, rs, base = [], [], None
    for spec in specs:
        grid = sample_grid(p, spec)
        rs.append(ricci_residual_grid(grid, p.b))
        hs.append(spec.h)
        base = grid if base is None else base
    return hs, rs, estimate_order(hs, rs), base


def refinement_rows(triples, specs):
    """refinement_study of every (b, c1, c2) in ``triples`` at once.

    Each level evaluates all triples still running with one Jacobi call,
    one residual pass (_residual_column) and one max, one row per triple,
    and the orders are fitted together (_orders).  When a level halves the
    previous spacing and its even nodes equal the previous nodes, lambda
    there is taken from the previous level and only the odd nodes are
    evaluated.

    A row stops at its first error, in the order a study of its triple
    alone meets them: MetricParams, a ParameterError of the spec iterator,
    derive_constants, the domain check, the 5x5 stencil minimum,
    K >= -2 b^2, then estimate_order.  ``specs`` is consumed lazily and
    only while a row runs.  Returns one entry per triple: (residuals,
    order) as refinement_study gives them, or the exception its study
    would raise (ParameterError, NotInFamilyError or ConvergenceError).
    """
    results = [None] * len(triples)
    live = []  # (row, MetricParams), then (row, MetricParams, DerivedConstants)
    for r, (b, c1, c2) in enumerate(triples):
        try:
            live.append((r, MetricParams(b=b, c1=c1, c2=c2)))
        except ParameterError as exc:
            results[r] = exc
    hs, maxima = [], [[] for _ in triples]
    last = None  # the previous level's nodes, lambda rows and their row indices
    specs = iter(specs)
    while live:
        try:
            spec = next(specs)
        except StopIteration:
            break
        except ParameterError as exc:
            for r, *_ in live:
                results[r] = exc
            break
        if not hs:  # the first level derives the constants
            pending, live = live, []
            for r, p in pending:
                try:
                    live.append((r, p, derive_constants(p)))
                except ParameterError as exc:
                    results[r] = exc
        u = spec.u_nodes()
        for (r, *_), exc in zip(live, _domain_rows([dc for *_, dc in live], u)):
            results[r] = exc
        live = [row for row in live if results[row[0]] is None]
        exc = _stencil_error(spec)
        if exc is not None or not live:
            for r, *_ in live:
                results[r] = exc
            break
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
        res = _residual_column(lam, curv, b, spec.h)
        for (r, *_), m in zip(live, np.max(np.abs(res), axis=1).tolist()):
            maxima[r].append(m)
        hs.append(spec.h)
    ok = [r for r, result in enumerate(results) if result is None]
    for r, order in zip(ok, _orders(hs, [maxima[r] for r in ok])):
        results[r] = order if isinstance(order, ConvergenceError) else (maxima[r], order)
    return results


def _fd_curvature(phi: np.ndarray, b: float, h: float):
    """K = -phi'' e^{-2 phi} by 3-point differences of phi = log(lambda).

    Returns (K, -2 b^2 - K) on the interior samples; raises
    ParameterError unless the spacing h and b are finite and positive, and
    NotInFamilyError naming the first sample where -2 b^2 - K <= 0.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ParameterError(f"spacing h must be finite and positive, got {h!r}")
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
    then the residual column kernel of ricci_residual_grid runs on K and
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
    return _residual_column(np.exp(phi[1:-1]), curv, b, h)


def ricci_order_1d(phi, b: float, h: float):
    """Convergence order of the 1-d residual under the ORDER_STRIDES coarsenings.

    Residuals are compared at the physical points common to all strides
    (the interior of the coarsest grid), which removes the drift that the
    advancing trim boundary would otherwise add to the slope.  Returns
    (order, residuals) with one max per stride.
    """
    phi = np.asarray(phi, dtype=float)
    coarsest = ORDER_STRIDES[-1]
    if phi.size < 4 * coarsest + 3:
        raise ParameterError(
            f"need at least {4 * coarsest + 3} samples for stride {coarsest}"
        )
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


def grid_to_csv(m: MetricGrid) -> bytes:
    """Render the grid as RFC-4180 CSV with columns u, v, lambda, K, residual.

    One row per grid point, u-major, as ASCII bytes.  Floats carry 17
    significant digits; the residual column is empty where the stencil is
    undefined.  Each distinct value is formatted once, and the nv lines of
    one u share all fields but v, so they are joined in one call and
    encoded together; the text is never held whole as a str.
    """
    u = _fmt17(m.spec.u_nodes())
    lam = _fmt17(m.lambda_column)
    curv = _fmt17(m.curvature_column)
    res = m.ricci_residual_column
    if res is None:
        res = [""] * m.spec.nu
    else:
        res = ["" if math.isnan(x) else f"{x:.17g}" for x in res.tolist()]
    first, *inner, last = _fmt17(m.spec.v_nodes())
    parts = [b"u,v,lambda,K,residual\r\n"]
    for ui, li, ki, ri in zip(u, lam, curv, res):
        head = ui + ","
        edge = f",{li},{ki},\r\n"  # first and last v: no residual
        tail = f",{li},{ki},{ri}\r\n"
        middle = head + (tail + head).join(inner) + tail if inner else ""
        parts.append(f"{head}{first}{edge}{middle}{head}{last}{edge}".encode("ascii"))
    return b"".join(parts)


def _fmt17(values: np.ndarray) -> list[str]:
    return [f"{x:.17g}" for x in values.tolist()]


def summary_to_json(
    max_residual: float, order: float, fit: NormalizationFit, h: float, verdict: bool
) -> str:
    """JSON summary with stable key order."""
    return json_text({
        "max_residual": max_residual,
        "order": order,
        "h": h,
        "c1_fit": fit.c1_fit,
        "c2_fit": fit.c2_fit,
        "max_affine_residual": fit.max_affine_residual,
        "verdict": verdict,
    })

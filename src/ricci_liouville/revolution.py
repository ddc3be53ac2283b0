"""Surfaces of revolution carrying a special Liouville metric.

A metric lambda(u)^2 (du^2 + dv^2) with lambda^2 >= lambda'^2 is realized
on the surface of revolution (x(u), y(u) cos v, y(u) sin v) with

    y(u) = lambda(u),      x(u) = integral of sqrt(lambda^2 - lambda'^2) du,

and conversely an arc-length profile (x(s), y(s)), y > 0, induces the
metric with conformal factor lambda(u) = y(s(u)) where u(s) = integral of
ds / y(s).  This module implements both directions: profile_from_metric
integrates x(u) for a family metric by batched adaptive Simpson, and
metric_from_profile reads lambda(u) back from an arc-length profile.  It
also meshes the surface as a structured tube with OBJ / binary PLY export,
and cross-checks a mesh against its metric by induced edge lengths and
angle-defect curvature.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import incomplete_elliptic_f
from .errors import ConvergenceError, ParameterError
from .metric import (
    DEFAULT_EPS_DOM,
    MetricParams,
    conformal_factor,
    conformal_factor_derivatives,
    derive_constants,
)

__all__ = [
    "ProfileCurve",
    "RevolutionMesh",
    "embeddable_interval",
    "profile_from_metric",
    "metric_from_profile",
    "tessellate",
    "induced_metric_check",
    "angle_defect_curvature",
    "mesh_to_obj",
    "mesh_to_ply",
]

ARC_LENGTH_TOL = 1e-6
_INTEGRAND_FLOOR = -1e-12
_SIMPSON_MAX_DEPTH = 20  # subdivision cap 2**20 intervals
_EPS = float(np.finfo(float).eps)


def _profile_columns(t, x, y, name: str, least: int, label: str):
    """The columns (t, x, y) of a sampled profile as float arrays, once checked.

    ParameterError unless they are matching 1-d arrays of at least ``least``
    samples, all finite (naming the column, t as ``name``, and the sample),
    t strictly increasing (its samples called ``label``) and y > 0.
    """
    t, x, y = (np.asarray(a, dtype=float) for a in (t, x, y))
    if not (t.shape == x.shape == y.shape) or t.ndim != 1 or t.size < least:
        raise ParameterError(f"need matching 1-d {name}, x, y arrays with >= {least} samples")
    for col, a in ((name, t), ("x", x), ("y", y)):
        finite = np.isfinite(a)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ParameterError(f"profile column {col} is not finite at sample {bad} ({a[bad]})")
    if np.any(np.diff(t) <= 0.0):
        raise ParameterError(f"{label} samples must be strictly increasing")
    if np.any(y <= 0.0):
        bad = int(np.argmax(y <= 0.0))
        raise ParameterError(f"rotation radius y <= 0 at sample {bad}")
    return t, x, y


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Sampled plane curve (x(u), y(u)) generating a surface of revolution.

    At least 2 samples, all finite, u strictly increasing and the rotation
    radius y positive (the column check of metric_from_profile).  ``params``
    tags profiles built from a family metric for provenance checks downstream.
    Equality is identity: a profile equals only itself.
    """

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    params: MetricParams | None = None

    def __post_init__(self):
        u, x, y = _profile_columns(self.u, self.x, self.y, "u", 2, "profile u")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True, eq=False)
class RevolutionMesh:
    """Structured triangulated tube (x(u), y(u) cos v, y(u) sin v).

    Grid node (i, j), vertex i * nv + j, is profile sample i turned by the
    angle v[j].  The angles must be at least 3, finite and strictly
    increasing (ParameterError naming the angle otherwise), so every vertex
    is finite.  ``closed`` marks a full 2 pi seam in v: the angles of a
    closed mesh must span less than 2 pi and leave a seam step
    2 pi - (v[-1] - v[0]) no wider than their widest step, up to 1e-12
    plus 4 ulp of max(|v[0]|, |v[-1]|, 2 pi) (ParameterError naming the
    span or both steps otherwise).  The faces follow from (nu, nv,
    closed).  Equality is identity, as for ProfileCurve.
    """

    profile: ProfileCurve
    v: np.ndarray
    closed: bool

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ParameterError(f"need a 1-d array of nv >= 3 mesh angles, got shape {v.shape}")
        if not np.isfinite(v).all():
            j = int(np.argmin(np.isfinite(v)))
            raise ParameterError(f"mesh angle v[{j}] is not finite ({v[j]})")
        steps = np.diff(v)
        if np.any(steps <= 0.0):
            j = int(np.argmax(steps <= 0.0)) + 1
            raise ParameterError(f"mesh angle v[{j}] = {v[j]} is not above v[{j - 1}] = {v[j - 1]}")
        span = v[-1] - v[0]
        if self.closed and span >= 2.0 * math.pi:
            raise ParameterError(
                f"a closed mesh needs angles spanning less than 2 pi, got v[-1] - v[0] = {span}"
            )
        seam, widest = 2.0 * math.pi - span, steps.max()
        ulp = math.ulp(max(abs(v[0]), abs(v[-1]), 2.0 * math.pi))
        if self.closed and seam - widest > 1e-12 + 4.0 * ulp:
            raise ParameterError(
                f"a closed mesh needs a seam step 2 pi - (v[-1] - v[0]) = {seam} no wider "
                f"than its widest angle step {widest}"
            )
        object.__setattr__(self, "v", v)

    nu = property(lambda self: self.profile.u.size, doc="Grid rows, one per profile sample.")
    nv = property(lambda self: self.v.size, doc="Grid columns, one per angle.")
    params = property(lambda self: self.profile.params, doc="The profile's family metric, if any.")

    @property
    def vertices(self) -> np.ndarray:
        """(nu * nv, 3) coordinates, vertex i * nv + j in row i * nv + j; built on each access."""
        x, y, v = self.profile.x, self.profile.y, self.v
        return np.column_stack(
            [np.repeat(x, v.size), np.outer(y, np.cos(v)).ravel(), np.outer(y, np.sin(v)).ravel()]
        )

    @property
    def uv(self) -> np.ndarray:
        """(nu * nv, 2) parameters (u, v) of each vertex, as ``vertices`` orders them."""
        return np.column_stack([np.repeat(self.profile.u, self.nv), np.tile(self.v, self.nu)])

    @property
    def face_count(self) -> int:
        """Number of triangles, 2 (nu - 1) cols; see ``faces``."""
        return 2 * (self.nu - 1) * (self.nv if self.closed else self.nv - 1)

    @property
    def faces(self) -> np.ndarray:
        """(2 (nu - 1) cols, 3) int64 vertex indices with outward orientation.

        cols = nv on a closed seam, whose last column of quads wraps back to
        the first, and nv - 1 otherwise.  Quad (i, j) has corners
        a = (i, j), d = (i, j+1), b = (i+1, j), c = (i+1, j+1) and splits
        into (a, d, b) and (b, d, c).
        """
        return _fill_faces(self, np.empty((self.face_count, 3), dtype=np.int64))


def _fill_faces(mesh: RevolutionMesh, out):
    """Write the triangles of ``mesh.faces``, in its order, into an integer (face_count, 3) ``out``.

    ``out`` may be any strided view, such as a field of packed records:
    reshaping it to (nu - 1, cols, 2, 3) only splits the face axis, so it
    stays a view, and each corner is summed from a row offset and a column
    straight into it.  Returns ``out``.
    """
    nu, nv = mesh.nu, mesh.nv
    cols = nv if mesh.closed else nv - 1
    top = np.arange(nu - 1, dtype=np.int64)[:, None] * nv
    bottom = top + nv
    j = np.arange(cols, dtype=np.int64)
    jn = (j + 1) % nv
    a, d, b, c = (top, j), (top, jn), (bottom, j), (bottom, jn)
    quads = out.reshape(nu - 1, cols, 2, 3)
    for t, corners in enumerate(((a, d, b), (b, d, c))):
        for k, (row, col) in enumerate(corners):
            np.add(row, col, out=quads[:, :, t, k])
    return out


def _simpson(x0, x2, f0, f1, f2):
    return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)


def _interleave(first, second):
    return np.column_stack([first, second]).ravel()


def _simpson_segments(f, nodes, tol: float) -> np.ndarray:
    """Adaptive Simpson integrals of f over every segment [nodes[i], nodes[i+1]].

    ``tol`` is the total tolerance, split evenly over the segments.
    ``f`` maps an array of abscissae to an array of values; its first call
    gets the n nodes followed by the n - 1 segment midpoints.  All segments
    are refined together, breadth first: each level holds the frontier of
    intervals not yet accepted and evaluates all their quarter points in
    one call of f.  The per-leaf rule is that of the recursive algorithm
    (Gander & Gautschi, BIT 40, 2000): a leaf is accepted when
    |S_fine - S_coarse| / 15 <= tol and contributes S_fine + that
    estimate.  Each leaf keeps its segment's full tolerance instead of
    halving it with each split, which lets the square-root zeros of a
    profile integrand at the embeddable boundary converge within the cap.
    The accepted leaves are then summed bottom-up in the order
    the recursion adds them (left + right at every node), so each segment
    value is exactly what the depth-first recursion returns.  A frontier
    still open after _SIMPSON_MAX_DEPTH levels raises ConvergenceError, at
    once when after the first level an open segment's tolerance lies below
    eps |S| / 2**_SIMPSON_MAX_DEPTH, S its Simpson value: the rounding of
    the error estimate keeps every leaf above that before the cap.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    seg_tol = tol / (n - 1)
    x0, x2 = nodes[:-1], nodes[1:]
    vals = f(np.concatenate([nodes, 0.5 * (x0 + x2)]))
    f0, f1, f2 = vals[: n - 1], vals[n:], vals[1:n]
    whole = _simpson(x0, x2, f0, f1, f2)
    levels = []  # (accepted mask, leaf value) of each level's frontier
    for depth in range(_SIMPSON_MAX_DEPTH + 1):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = np.split(f(np.concatenate([xl, xr])), 2)
        left = _simpson(x0, x1, f0, fl, f1)
        right = _simpson(x1, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        done = np.abs(err) <= seg_tol
        levels.append((done, left + right + err))
        if done.all():
            break
        if depth == 0 and seg_tol < _EPS * np.max(np.abs(whole[~done])) / 2**_SIMPSON_MAX_DEPTH:
            raise ConvergenceError(
                f"quadrature tolerance {tol!r} is below the rounding floor of adaptive "
                f"Simpson; {_SIMPSON_MAX_DEPTH} subdivision levels cannot meet it"
            )
        if depth == _SIMPSON_MAX_DEPTH:
            worst = int(np.argmin(done))
            raise ConvergenceError(
                f"adaptive Simpson exceeded {_SIMPSON_MAX_DEPTH} subdivision "
                f"levels on [{x0[worst]}, {x2[worst]}]"
            )
        # children of open interval k sit at 2k (left half) and 2k + 1
        o = ~done
        x0, x2 = _interleave(x0[o], x1[o]), _interleave(x1[o], x2[o])
        f0, f2 = _interleave(f0[o], f1[o]), _interleave(f1[o], f2[o])
        f1 = _interleave(fl[o], fr[o])
        whole = _interleave(left[o], right[o])
    total = levels[-1][1]
    for done, value in reversed(levels[:-1]):
        value[~done] = total[0::2] + total[1::2]
        total = value
    return total


def embeddable_interval(p: MetricParams):
    """Maximal symmetric interval around 0 where lambda^2 >= lambda'^2, in closed form.

    With theta = am(s u, k), lambda = sqrt(lambda_plus) / cos(theta) and
    lambda' = lambda s sin(theta) dn / cos(theta), so the gap vanishes where
    cos^2 = s^2 sin^2 (1 - k^2 sin^2): x = sin^2 theta is the smaller root
    of s^2 k^2 x^2 - (s^2 + 1) x + 1 = 0.  The boundary is
    u* = F(theta*, k) / s, clipped to u_max - max(DEFAULT_EPS_DOM, 1e-12 u_max).
    The root depends on s and k alone, and with R = hypot(s^2 - 1, 2 s k')
    the amplitude is theta* = atan2(sqrt(2), sqrt(s^2 - 1 + R)), where
    s^2 - 1 + R = 4 s^2 k'^2 / (R + 1 - s^2) for s < 1, so no form cancels.
    """
    dc = derive_constants(p)
    hi = dc.u_max - max(DEFAULT_EPS_DOM, 1e-12 * dc.u_max)
    s2, kc = dc.s * dc.s, dc.k.complement
    r = math.hypot(s2 - 1.0, 2.0 * dc.s * kc)
    cos_part = s2 - 1.0 + r if s2 >= 1.0 else 4.0 * s2 * kc * kc / (r + 1.0 - s2)
    theta = math.atan2(math.sqrt(2.0), math.sqrt(cos_part))
    u_star = min(incomplete_elliptic_f(theta, dc.k) / dc.s, hi)
    return (-u_star, u_star)


def profile_from_metric(p: MetricParams, interval, *, tol: float = 1e-10, n: int = 801):
    """Profile curve of the revolution realization of a family metric.

    y(u) = lambda(u), and x(u) accumulates the adaptive-Simpson integral of
    sqrt(lambda^2 - lambda'^2) from the left end (x = 0 there), with the
    total estimated quadrature error below ``tol``.  The interval must sit
    inside both the metric domain and the embeddability interval of p.
    All n - 1 segments are refined together, and each refinement level
    takes lambda and lambda' from one closed-form call.  The first level
    evaluates the n profile nodes themselves, so y is a copy of its
    lambda there and the closed form is evaluated at the Simpson nodes
    alone.  A gap value below -1e-12 at a quadrature node is a
    precondition breach and is reported with its location.  x never
    decreases: each Simpson leaf (16 (L + R) - W) / 15 of the
    nonnegative integrand is nonnegative.
    """
    u_lo, u_hi = float(interval[0]), float(interval[1])
    emb_lo, emb_hi = embeddable_interval(p)
    if u_lo < emb_lo - 1e-12 or u_hi > emb_hi + 1e-12:
        raise ParameterError(
            f"interval [{u_lo}, {u_hi}] exceeds the embeddable interval "
            f"[{emb_lo:.6g}, {emb_hi:.6g}]"
        )
    if not u_lo < u_hi:
        raise ParameterError("interval must satisfy u_lo < u_hi")
    if n < 2:
        raise ParameterError("need at least 2 profile samples")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"quadrature tolerance must be finite and positive, got {tol!r}")

    y = None

    def integrand(t):
        nonlocal y
        lam, dlam, _ = conformal_factor_derivatives(p, t)
        if y is None:
            # the first call: the nodes u, then the segment midpoints
            y = lam[:n].copy()
        gap = lam * lam - dlam * dlam
        bad = gap < _INTEGRAND_FLOOR
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(
                f"lambda^2 - lambda'^2 = {gap[i]:.3e} < 0 at u = {t[i]:.17g}: "
                "not embeddable there"
            )
        return np.sqrt(np.maximum(gap, 0.0))

    u = np.linspace(u_lo, u_hi, n)
    x = np.cumsum(np.concatenate([[0.0], _simpson_segments(integrand, u, tol)]))
    return ProfileCurve(u=u, x=x, y=y, params=p)


def metric_from_profile(s, x, y, resample_n: int):
    """Conformal factor of the metric induced by an arc-length profile.

    Checks the columns as ProfileCurve does (at least 4 samples, a NaN or
    infinite one named), that the square of the smallest s step is a
    normal float (verify._stencil_spacing_ok), then x'^2 + y'^2 = 1
    (np.gradient, tolerance 1e-6), and returns (u_grid, lambda) with
    lambda(u) = y(s(u)) on a uniform grid of ``resample_n`` points
    starting at u = 0.  The profile hands over every slope: with g = 1/y,
    u(s) = integral of g ds and g' = -y'/y^2, so u at the knots is the
    end-corrected trapezoid h/2 (g_i + g_i+1) + h^2/12 (g'_i - g'_i+1),
    exact for cubic g, and dlambda/du = y y'.  lambda is the cubic
    Hermite interpolant of (u_i, y_i) with those slopes, so no inverse
    s(u) and no linear solve is formed.
    """
    from .verify import _require_stencil_spacing

    s, x, y = _profile_columns(s, x, y, "s", 4, "arc-length")
    if resample_n < 7:
        raise ParameterError("resample_n must be at least 7")
    _require_stencil_spacing(float(np.diff(s).min()), "the arc-length check")

    dx = np.gradient(x, s, edge_order=2)
    dy = np.gradient(y, s, edge_order=2)
    speed_err = np.abs(dx * dx + dy * dy - 1.0)
    worst = int(np.argmax(speed_err))
    if speed_err[worst] > ARC_LENGTH_TOL:
        raise ParameterError(
            f"profile is not arc-length parametrized: |x'^2 + y'^2 - 1| = "
            f"{speed_err[worst]:.3e} at sample {worst} (s = {s[worst]:.17g})"
        )

    h, g = np.diff(s), 1.0 / y
    dg = -dy * g * g
    steps = 0.5 * h * (g[:-1] + g[1:]) + h * h / 12.0 * (dg[:-1] - dg[1:])
    u = np.concatenate(([0.0], np.cumsum(steps)))
    hu = np.diff(u)
    rising = (hu > 0.0) & np.isfinite(hu)
    if not rising.all():
        bad = int(np.argmin(rising)) + 1
        raise ParameterError(
            f"u(s) = integral of ds / y is not strictly increasing at sample {bad}"
        )

    u_grid = np.linspace(0.0, u[-1], resample_n)
    i = np.clip(np.searchsorted(u, u_grid, side="right") - 1, 0, hu.size - 1)
    step, m = hu[i], y * dy
    t = (u_grid - u[i]) / step
    a = 1.0 - t
    lam = a * a * ((1.0 + 2.0 * t) * y[i] + t * step * m[i]) + t * t * (
        (3.0 - 2.0 * t) * y[i + 1] - a * step * m[i + 1]
    )
    return u_grid, lam


def tessellate(profile: ProfileCurve, v_lo: float, v_hi: float, nv: int) -> RevolutionMesh:
    """Structured triangle mesh of the revolution surface of a profile.

    Full revolutions (v_hi - v_lo = 2 pi) close the seam: the last column
    of quads wraps back to the first, giving 2 (nu - 1) nv triangles; open
    sweeps keep a boundary in v.  Triangles wind counter-clockwise seen
    from outside (normals point away from the axis).  RevolutionMesh
    rejects the angles of nv < 3, a non-finite v_lo, v_hi or span, or
    v_lo >= v_hi with ParameterError.
    """
    span = v_hi - v_lo
    closed = abs(span - 2.0 * math.pi) <= 1e-12
    # a non-finite range gives non-finite angles, which the mesh rejects
    with np.errstate(all="ignore"):
        v = v_lo + span * np.arange(nv) / nv if closed else np.linspace(v_lo, v_hi, max(nv, 0))
    return RevolutionMesh(profile, v, closed)


def induced_metric_check(mesh: RevolutionMesh, p: MetricParams) -> float:
    """Max relative deviation of squared edge lengths from the metric.

    u-edges are compared against lambda(u_mid)^2 du^2 and v-edges against
    lambda(u)^2 dv^2, lambda evaluated at the edge-midpoint u from the
    closed form.  Rejects meshes that were not built from p with
    ParameterError.

    Every edge length follows from the profile and the angles: a u-edge
    is the profile chord (dx, dy), the same in every column, and the
    v-edge of row i over the angle step dv is the chord 2 y_i sin(dv/2).
    The v-deviation |a_i c_j - 1|, a = y^2 / lambda^2 per row and
    c = (2 sin(dv/2) / dv)^2 per step, both positive, is largest at
    a_min c_min or a_max c_max: no (nu, nv) array is formed.  A NaN propagates.
    """
    if mesh.params != p:
        raise ParameterError("mesh provenance mismatch: not tessellated from p")
    prof, v = mesh.profile, mesh.v
    u, dx, dy = prof.u, np.diff(prof.x), np.diff(prof.y)
    lam_mid = conformal_factor(p, 0.5 * (u[1:] + u[:-1]))
    dev_u = np.max(np.abs((dx * dx + dy * dy) / (lam_mid**2 * np.diff(u) ** 2) - 1.0))

    a = (prof.y / conformal_factor(p, u)) ** 2
    dv = np.diff(v)
    if mesh.closed:
        dv = np.append(dv, v[0] - v[-1] + 2.0 * math.pi)
    c = (2.0 * np.sin(0.5 * dv) / dv) ** 2
    dev_v = np.abs(np.array([a.min() * c.min(), a.max() * c.max()]) - 1.0)
    return float(np.max([dev_u, np.max(dev_v)]))


def _corner_terms(area2, dots, sq_opposite):
    """Mixed Voronoi area shares at the three corners of triangles.

    area2 is the doubled area, dots[c] the dot product of the two edges
    leaving corner c and sq_opposite[c] the squared length of the edge
    opposite it.  The share is the cotangent formula, with the
    obtuse-triangle fallback of A/2 at the obtuse corner (dots[c] < 0)
    and A/4 at the others.
    """
    # squared length of the edge opposite each corner, times its cotangent
    opp = [sq * (d / area2) for sq, d in zip(sq_opposite, dots)]
    obtuse = [d < 0.0 for d in dots]
    any_obtuse = obtuse[0] | obtuse[1] | obtuse[2]
    half, quarter = area2 / 4.0, area2 / 8.0
    shares = []
    for c in range(3):
        share = (opp[c - 1] + opp[c - 2]) / 8.0
        np.copyto(share, quarter, where=any_obtuse)
        np.copyto(share, half, where=obtuse[c])
        shares.append(share)
    return shares


def _defect_rows(x, y, s, c2):
    """(row, step) tables of the fans of the inner rows of a profile slice.

    x and y hold profile rows 0 .. m - 1; s = |sin(dv / 2)| and
    c2 = cos(dv / 2)^2 hold one value per distinct angle step dv.  A
    vertex of row i takes the corners of its own quad column at one step
    and those of the column before it at another.  Returns three
    (m - 2, steps) tables for rows 1 .. m - 2, the area shares of the own
    column ("here") and of the column before ("left") and the defect
    t_i-1 - t_i that each of the two adds, and the zero-area mask of the
    (m - 1, steps) quads.
    """
    dx, dy = np.diff(x)[:, None], np.diff(y)[:, None]
    y0, y1 = y[:-1, None], y[1:, None]
    ysum, s2 = y0 + y1, s * s
    h2 = dx * dx + dy * dy * c2
    height = np.sqrt(h2)
    diag2, leg2 = h2 + ysum * ysum * s2, dx * dx + dy * dy
    top, bottom = 2.0 * y0 * s, 2.0 * y1 * s
    # corners a, d, b of triangle (a, d, b) and b, d, c of triangle (b, d, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_a, a_d, a_b = _corner_terms(
            top * height,
            (-top * dy * s, top * ysum * s, h2 + dy * ysum * s2),
            (diag2, leg2, top * top),
        )
        b_b, b_d, b_c = _corner_terms(
            bottom * height,
            (bottom * ysum * s, h2 - dy * ysum * s2, bottom * dy * s),
            (leg2, bottom * bottom, diag2),
        )
    here = (b_b + a_b)[:-1] + a_a[1:]
    left = (a_d + b_d)[1:] + b_c[:-1]
    tilt = np.arctan2(dy * s, height)
    return here, left, tilt[:-1] - tilt[1:], height == 0.0


def angle_defect_curvature(mesh: RevolutionMesh):
    """Discrete Gaussian curvature (2 pi - sum of incident angles) / area.

    The area share is the mixed Voronoi cell (cotangent formula with the
    obtuse-triangle fallback).  Only interior vertices (full triangle fans)
    are estimated: rows 1..nu-2, and for open meshes also columns
    1..nv-2.  Zero-area triangles are skipped and their vertices reported.

    No vertex is formed.  Quad (i, j) is a planar isosceles trapezoid:
    parallel sides 2 y_i s and 2 y_i+1 s, s = |sin(dv_j / 2)| over its
    angle step dv_j (v[0] - v[-1] + 2 pi across a closed seam), legs
    (dx, dy) and height H = sqrt(dx^2 + dy^2 cos^2(dv_j / 2)).  So every
    squared side, doubled area and corner dot product is a function of
    the profile row and the angle step, evaluated once per (row, distinct
    step) in row bands with temporaries of 128 KiB.  A vertex's fan
    spans the step of its own column and that of the column before it,
    so its area and defect are summed once per (row, distinct pair of
    those steps), and each output is one gather of that table along the
    columns.  The trapezoid's angles are pi/2 + t at a and d and
    pi/2 - t at b and c, t = atan2(dy s, H); a diagonal splits an angle
    and adds none, so the defect at vertex (i, j) sums t_i-1 - t_i over
    the steps of columns j - 1 and j.  A triangle has zero area exactly
    where H = 0, since y > 0 and s > 0.

    Returns (vertex_indices, curvature_estimates, areas, skipped_vertices).
    """
    closed, nu, nv, v = mesh.closed, mesh.nu, mesh.nv, mesh.v
    x, y = mesh.profile.x, mesh.profile.y
    dv = np.diff(v)
    if closed:
        # v[0] - v[-1] + 2 pi correctly rounded, 2 pi as the float
        # 2.0 * math.pi plus its rounding error
        dv = np.append(dv, math.fsum((v[0], -v[-1], 2.0 * math.pi, 2.4492935982947064e-16)))
    steps, step_of = np.unique(dv, return_inverse=True)
    s, c2 = np.abs(np.sin(0.5 * steps)), np.cos(0.5 * steps) ** 2
    # bands of 16k table entries: each temporary then takes 128 KiB,
    # under glibc's default mmap threshold
    band = 16384
    share_here, share_left, tilt = (np.empty((max(nu - 2, 0), steps.size)) for _ in range(3))
    flat = np.empty((nu - 1, steps.size), dtype=bool)
    rows = max(1, band // steps.size)
    for lo in range(0, max(nu - 2, 1), rows):
        hi = min(lo + rows, nu - 2)
        share_here[lo:hi], share_left[lo:hi], tilt[lo:hi], flat[lo : hi + 1] = _defect_rows(
            x[lo : hi + 2], y[lo : hi + 2], s, c2
        )

    # the (own step, step before) pair of each interior column, and the
    # area and curvature tables of the distinct pairs; each step table
    # goes as soon as it is read
    here, left = (step_of, np.roll(step_of, 1)) if closed else (step_of[1:], step_of[:-1])
    pairs, pair_of = np.unique(here * steps.size + left, return_inverse=True)
    ph, pl = np.divmod(pairs, steps.size)
    areas = share_here.take(ph, axis=1)
    del share_here
    areas += share_left.take(pl, axis=1)
    del share_left
    k = tilt.take(ph, axis=1)
    k += tilt.take(pl, axis=1)
    del tilt
    k /= areas

    first = 0 if closed else 1
    k, areas = (a.take(pair_of, axis=1).ravel() for a in (k, areas))
    if not flat.any():
        ids = (np.arange(1, nu - 1)[:, None] * nv + np.arange(first, nv - first)).ravel()
        return ids, k, areas, np.empty(0, dtype=np.intp)

    # vertices of zero-area quads; column nv stands for column 0 of a
    # closed seam
    cols, flat = step_of.size, flat[:, step_of]
    hit = np.zeros((nu, nv + 1), dtype=bool)
    for r in (slice(0, nu - 1), slice(1, nu)):
        for j in (slice(0, cols), slice(1, cols + 1)):
            hit[r, j] |= flat
    hit[:, 0] |= hit[:, nv]
    hit = hit[:, :nv]
    skipped = np.flatnonzero(hit)

    keep = ~hit
    keep[[0, -1]] = False
    if not closed:
        keep[:, [0, -1]] = False
    # mask one output at a time, freeing each full one before the next
    inner = keep[1:-1, first : nv - first].ravel()
    k = k[inner]
    areas = areas[inner]
    return np.flatnonzero(keep), k, areas, skipped


def mesh_to_obj(mesh: RevolutionMesh) -> bytes:
    """Wavefront OBJ bytes of ``mesh``, with LF line ends.

    v and vn records give each value as '%.17g' writes it, then f records
    list each face's 1-based corners as k//k, counter-clockwise.  Vertex
    normals are the revolved unit normal (-t_y, t_x) / |t| of the
    profile's tangent t: the chord sum (p[i+1] - p[i]) + (p[i] - p[i-1])
    of p = (x, y) inside the profile and the one chord at each end, scaled
    by its larger component before it is squared.  A zero t gives the zero
    normal, each zero signed as cos v or sin v is.  The text is built on
    whole arrays, band by band (see _objtext); v and vn rows alike are
    first[i], radius[i] cos v[j], radius[i] sin v[j], from the profile and
    angles as ``vertices`` forms them, and no vertex or normal grid is
    built.
    """
    from ._objtext import obj_bytes

    prof, nv = mesh.profile, mesh.nv
    cos, sin = np.cos(mesh.v), np.sin(mesh.v)
    # each chord turned a quarter turn, (-dy, dx), so that their sums point
    # along the normal; a repeated sample gives +0.0
    chords = np.diff(np.stack([-prof.y, prof.x]), axis=1)
    normal = np.concatenate(
        [chords[:, :1], chords[:, :-1] + chords[:, 1:], chords[:, -1:]], axis=1
    )
    scale = np.abs(normal).max(axis=0)
    normal /= np.where(scale > 0.0, scale, 1.0)
    # the norm is at least 1 once scaled, unless the tangent is zero
    normal /= np.maximum(np.sqrt(normal[0] * normal[0] + normal[1] * normal[1]), 1.0)

    def revolved(first, radius):
        def rows(lo, hi):
            i, j = np.divmod(np.arange(lo, hi), nv)
            return np.column_stack([first[i], radius[i] * cos[j], radius[i] * sin[j]])

        return rows

    return obj_bytes(
        b"# surface of revolution, outward orientation\n",
        mesh.nu * nv,
        revolved(prof.x, prof.y),
        revolved(*normal),
        mesh.faces,
    )


def mesh_to_ply(mesh: RevolutionMesh) -> bytes:
    """Binary little-endian PLY with per-vertex x, y, z, u, v (float64).

    The file is allocated once, at its final size.  The vertex columns,
    from the profile and angles as ``vertices`` forms them, and the packed
    face records are written in place into that one buffer, so no vertex,
    uv or face array is built or cached and no part is copied.
    """
    n, m = mesh.nu * mesh.nv, mesh.face_count
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n}\n"
        + "".join(f"property double {c}\n" for c in "xyzuv")
        + f"element face {m}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    out = io.BytesIO()
    out.seek(len(header) + 40 * n + 13 * m - 1)
    out.write(b"\0")
    with out.getbuffer() as buf:
        buf[: len(header)] = header
        cols = np.frombuffer(buf, dtype="<f8", count=5 * n, offset=len(header))
        cols = cols.reshape(mesh.nu, mesh.nv, 5).transpose(2, 0, 1)
        prof = mesh.profile
        cols[0], cols[3], cols[4] = prof.x[:, None], prof.u[:, None], mesh.v
        np.multiply(prof.y[:, None], np.cos(mesh.v), out=cols[1])
        np.multiply(prof.y[:, None], np.sin(mesh.v), out=cols[2])
        records = np.frombuffer(
            buf, dtype=[("n", "<u1"), ("i", "<i4", (3,))], count=m, offset=len(header) + 40 * n
        )
        records["n"] = 3
        _fill_faces(mesh, records["i"])
        # the views must go before the buffer is released (BufferError otherwise)
        del cols, records
    # with no export alive, CPython hands back the BytesIO's own bytes object
    # instead of a copy
    return out.getvalue()

"""Shared oracles for the test suite.

Everything here is deliberately independent of the code paths under test:
ODE integration instead of the elliptic closed form, quadrature of defining
integrals, spline resampling for profile round trips, loop-form
references for the array-native quadrature, meshing and export code, and
SciPy's splines as an accuracy oracle for metric_from_profile.  It also
builds the environment of the suite's child processes.
"""

import math
import os
import struct
import sys

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator

import ricci_liouville
from ricci_liouville import (
    MetricParams,
    ParameterError,
    conformal_factor,
    conformal_factor_derivatives,
    derive_constants,
)
from ricci_liouville.revolution import ARC_LENGTH_TOL


def child_env(**overrides):
    """Environment for a child Python that imports the ricci_liouville under test.

    A copy of os.environ with PYTHONPATH set to the directory holding the
    imported package, so the child finds it whether or not the suite was
    started with PYTHONPATH=src, plus ``overrides``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ricci_liouville.__file__))
    env.update(overrides)
    return env


def log_uniform(lo, hi):
    """Floats in [lo, hi] drawn uniform in log."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def sweep_params():
    """The 3 x 3 x 3 parameter box used across the verification suite."""
    return [
        MetricParams(b=b, c1=c1, c2=c2)
        for b in (1.0 / math.sqrt(6.0), 0.5, 1.0)
        for c1 in (0.25, 1.0, 4.0)
        for c2 in (-2.0, 0.0, 3.0)
    ]


def lambda_ode_oracle(p, u_points, rtol=1e-12, atol=1e-13):
    """Integrate lambda'' = c2 lambda + 4 b^2 lambda^3 from the minimum.

    Initial data lambda(0) = sqrt(lambda_plus), lambda'(0) = 0 selects the
    same solution as the first-order equation, since the first integral is
    conserved.  Returns lambda at the requested points (may include
    negative u; integrated in two sweeps from 0).
    """
    dc = derive_constants(p)
    lam0 = math.sqrt(dc.lambda_plus)
    b2 = p.b * p.b

    def rhs(_, y):
        return [y[1], p.c2 * y[0] + 4.0 * b2 * y[0] ** 3]

    u_points = np.asarray(u_points, dtype=float)
    out = np.empty_like(u_points)
    for sign in (1.0, -1.0):
        mask = (u_points >= 0.0) if sign > 0 else (u_points < 0.0)
        if not np.any(mask):
            continue
        pts = u_points[mask]
        order = np.argsort(np.abs(pts))
        t_eval = pts[order]
        span = float(np.max(np.abs(pts)))
        if span == 0.0:
            out[mask] = lam0
            continue
        sol = solve_ivp(
            rhs,
            (0.0, sign * span),
            [lam0, 0.0],
            method="DOP853",
            rtol=rtol,
            atol=atol,
            t_eval=t_eval,
        )
        vals = np.empty_like(pts)
        vals[order] = sol.y[0]
        out[mask] = vals
    return out


def amplitude_ode_oracle(u, k, rtol=1e-12, atol=1e-14):
    """Integrate theta' = sqrt(1 - k^2 sin^2 theta), theta(0) = 0, up to u."""

    def rhs(_, y):
        return [math.sqrt(max(0.0, 1.0 - k * k * math.sin(y[0]) ** 2))]

    if u == 0.0:
        return 0.0
    sol = solve_ivp(rhs, (0.0, u), [0.0], method="DOP853", rtol=rtol, atol=atol)
    return float(sol.y[0][-1])


def arc_length_resample(u, x, y, n):
    """Resample a profile curve to n uniform arc-length samples.

    Returns (s, x, y) with s starting at 0.  Arc length is accumulated from
    spline derivatives of the input samples.
    """
    u = np.asarray(u, dtype=float)
    xs = CubicSpline(u, x)
    ys = CubicSpline(u, y)
    speed = np.hypot(xs.derivative()(u), ys.derivative()(u))
    s_samples = CubicSpline(u, speed).antiderivative()(u)
    s_samples -= s_samples[0]
    s_uni = np.linspace(0.0, s_samples[-1], n)
    x_of_s = CubicSpline(s_samples, xs(u))
    y_of_s = CubicSpline(s_samples, ys(u))
    return s_uni, x_of_s(s_uni), y_of_s(s_uni)


def perturbed_metric_columns(p, u, q=0.01):
    """lambda (1 + q u^2) and its K at the u-nodes ``u``: a metric violating the condition.

    The curvature field is exact for the perturbed factor:
    (log lam~)'' = (c1 + 2 b^2 lam^4) / lam^2 + d^2/du^2 log(1 + q u^2),
    so the residual measures model error, not discretization error.
    """
    from ricci_liouville import conformal_factor

    lam = conformal_factor(p, u)
    lam_t = lam * (1.0 + q * u**2)
    log_lam_dd = (p.c1 + 2.0 * p.b**2 * lam**4) / lam**2 + 2.0 * q * (
        1.0 - q * u**2
    ) / (1.0 + q * u**2) ** 2
    curv = -log_lam_dd / lam_t**2
    return lam_t, curv


def ricci_condition_4th_order_oracle(b, y0, half_span, h_sample, substeps=20):
    """Integrate the curvature condition as a 4th-order scalar ODE in phi.

    State (phi, phi', phi'', phi''').  With W = phi'' e^{-2 phi} - 2 b^2
    (which must stay positive) the condition
    (log sqrt(W))'' e^{-2 phi} = 2 K = -2 phi'' e^{-2 phi} pins phi'''' as

        phi'''' = 2 phi''^2 + 4 phi' phi''' - 4 phi'^2 phi''
                  + e^{2 phi} (-4 phi'' W + W'^2 / W).

    Solutions have log(lambda^2 sqrt(-2 b^2 - K)) exactly affine in u.
    Fixed-step RK4 from u = 0 in both directions, landing exactly on the
    sample grid, so the returned phi carries only a smooth drift error and
    no interpolation noise (which stencils would amplify).  Returns
    (u, phi) over [-half_span, half_span] with spacing h_sample.
    """

    def rhs(y):
        phi, p1, p2, p3 = y
        em2 = math.exp(-2.0 * phi)
        w = p2 * em2 - 2.0 * b * b
        wp = (p3 - 2.0 * p1 * p2) * em2
        wpp = -4.0 * p2 * w + wp * wp / w
        p4 = wpp / em2 + 2.0 * p2**2 + 4.0 * p1 * p3 - 4.0 * p1**2 * p2
        return np.array([p1, p2, p3, p4])

    n_side = int(round(half_span / h_sample))

    def integrate(direction):
        h = direction * h_sample / substeps
        y = np.array(y0, dtype=float)
        out = [y[0]]
        for _ in range(n_side):
            for _ in range(substeps):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(y[0])
        return out

    fwd = integrate(+1.0)
    bwd = integrate(-1.0)
    phi = np.array(bwd[::-1] + fwd[1:])
    u = h_sample * np.arange(-n_side, n_side + 1)
    return u, phi


# Loop-form references for the array-native revolution code.  They keep the
# arithmetic of the per-segment, per-face and per-record implementations the
# library used before it worked on whole arrays, so tests can demand equal
# bits from the vectorized path.


def reference_adaptive_simpson(f, a, b, tol, max_depth=20):
    """Depth-first recursive adaptive Simpson with the per-leaf rule.

    A leaf is accepted when |S_fine - S_coarse| / 15 <= tol and contributes
    S_fine + that estimate; internal nodes return left + right.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, depth):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err
        if depth >= max_depth:
            raise RuntimeError("reference Simpson exceeded its depth cap")
        return recurse(x0, x1, f0, fl, f1, left, depth + 1) + recurse(
            x1, x2, f1, fr, f2, right, depth + 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), 0)


def reference_profile_x(lam, dlam, interval, tol, n):
    """x(u) of a revolution profile, one scalar Simpson call per segment."""

    def integrand(t):
        l, d = lam(t), dlam(t)
        return math.sqrt(max(l * l - d * d, 0.0))

    u = np.linspace(interval[0], interval[1], n)
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = x[i - 1] + reference_adaptive_simpson(integrand, u[i - 1], u[i], tol / (n - 1))
    return x


def reference_faces(nu, nv, closed):
    """Tube triangles (a, d, b), (b, d, c) per quad, built quad by quad."""
    cols = nv if closed else nv - 1
    faces = []
    for i in range(nu - 1):
        for j in range(cols):
            jn = (j + 1) % nv
            a, b = i * nv + j, (i + 1) * nv + j
            c, d = (i + 1) * nv + jn, i * nv + jn
            faces += [(a, d, b), (b, d, c)]
    return np.array(faces, dtype=np.int64)


def reference_mesh_faces(mesh):
    """reference_faces of a mesh's (nu, nv, closed), so no oracle reads mesh.faces."""
    return reference_faces(mesh.nu, mesh.nv, mesh.closed)


def reference_vertex_normals(mesh):
    """Vertex normals by the profile's chord rule, vertex by vertex in Python floats.

    Sample i has the tangent t = (p[i+1] - p[i]) + (p[i] - p[i-1]) of
    p = (x, y), or the one chord at an end, each chord taken turned a
    quarter turn as (-dy, dx) = ((-y[i+1]) - (-y[i]), x[i+1] - x[i]).  t is
    divided by its larger component and then by max(|t|, 1), the zero
    tangent giving the zero normal; the row of vertex (i, j) is
    (n0, n1 cos v[j], n1 sin v[j]), with cos and sin taken by np.cos and
    np.sin of mesh.v as for ``vertices``.
    """
    x, y = mesh.profile.x.tolist(), mesh.profile.y.tolist()
    cos, sin = np.cos(mesh.v).tolist(), np.sin(mesh.v).tolist()
    chords = [((-y[k + 1]) - (-y[k]), x[k + 1] - x[k]) for k in range(len(x) - 1)]
    rows = []
    for i in range(len(x)):
        if i == 0 or i == len(x) - 1:
            t0, t1 = chords[min(i, len(chords) - 1)]
        else:
            (a0, a1), (b0, b1) = chords[i - 1], chords[i]
            t0, t1 = a0 + b0, a1 + b1
        scale = max(abs(t0), abs(t1))
        if scale > 0.0:
            t0, t1 = t0 / scale, t1 / scale
        norm = max(math.sqrt(t0 * t0 + t1 * t1), 1.0)
        n0, n1 = t0 / norm, t1 / norm
        rows += [(n0, n1 * c, n1 * s) for c, s in zip(cos, sin)]
    return np.array(rows)


def reference_exact_normal(p, mesh):
    """The exact unit normal (-lambda', sqrt(lambda^2 - lambda'^2) (cos v, sin v)) / lambda.

    Rows in ``vertices`` order, lambda and lambda' from
    conformal_factor_derivatives at the profile's u.
    """
    lam, dlam, _ = conformal_factor_derivatives(p, mesh.profile.u)
    radial = np.sqrt(lam * lam - dlam * dlam) / lam
    nv = mesh.nv
    return np.column_stack([
        np.repeat(-dlam / lam, nv),
        np.outer(radial, np.cos(mesh.v)).ravel(),
        np.outer(radial, np.sin(mesh.v)).ravel(),
    ])


def reference_angle_defect(mesh, dtype=np.float64):
    """Angle-defect curvature from the face list: per-face gathers, one scatter.

    The face-based form angle_defect_curvature had before it worked on the
    vertex grid.  In float64 it reads mesh.vertices, takes each edge as a
    difference of its corners and scatters with np.bincount, as it did.
    In another dtype, such as np.longdouble, it builds each edge in that
    dtype from the profile and the angles of its corners (chord_edges)
    and scatters with np.add.at, since np.bincount sums float64 weights
    only.  Returns (ids, k, areas, skipped), k and areas in ``dtype``.
    """
    faces = mesh.faces
    if dtype == np.float64:
        verts = mesh.vertices
        p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        # edge c runs from corner c to corner c + 1 and is opposite corner c + 2
        edges = np.stack([p1 - p0, p2 - p1, p0 - p2])
    else:
        edges = chord_edges(mesh, dtype)
    nverts = mesh.nu * mesh.nv
    area2 = np.linalg.norm(np.cross(edges[2], edges[0]), axis=1)
    degenerate = area2 <= 0.0
    skipped = np.unique(faces[degenerate].ravel())
    if skipped.size:
        ok = ~degenerate
        edges, area2, faces = edges[:, ok], area2[ok], faces[ok]

    # corner c sits between edge c and the reversed edge c - 1
    dot = -np.einsum("cfi,cfi->cf", edges, np.roll(edges, 1, axis=0))
    angles = np.arctan2(area2, dot)
    # squared length of the edge opposite each corner, times its cotangent
    opp = np.roll(np.einsum("cfi,cfi->cf", edges, edges), -1, axis=0) * (dot / area2)

    # mixed Voronoi areas (cot formula, obtuse fallback: A/2 at the obtuse
    # corner, A/4 at the others)
    pi = np.arccos(np.asarray(-1.0, dtype=dtype))
    tri_area = 0.5 * area2
    obtuse = angles > 0.5 * pi
    share = np.where(
        obtuse.any(axis=0),
        np.where(obtuse, tri_area / 2.0, tri_area / 4.0),
        (np.roll(opp, -2, axis=0) + np.roll(opp, -1, axis=0)) / 8.0,
    )

    # one scatter over the corners in corner-major order
    corners = faces.T.ravel()
    if dtype == np.float64:
        angle_sum = np.bincount(corners, weights=angles.ravel(), minlength=nverts)
        area_share = np.bincount(corners, weights=share.ravel(), minlength=nverts)
    else:
        angle_sum, area_share = np.zeros(nverts, dtype), np.zeros(nverts, dtype)
        np.add.at(angle_sum, corners, angles.ravel())
        np.add.at(area_share, corners, share.ravel())

    rows = np.arange(1, mesh.nu - 1)
    if mesh.closed:
        cols = np.arange(mesh.nv)
    else:
        cols = np.arange(1, mesh.nv - 1)
    ids = (rows[:, None] * mesh.nv + cols[None, :]).ravel()
    ids = ids[~np.isin(ids, skipped)]
    defect = 2.0 * pi - angle_sum[ids]
    return ids, defect / area_share[ids], area_share[ids], skipped


def chord_edges(mesh, dtype):
    """The (3, faces, 3) edges of reference_angle_defect in ``dtype``, each from its two corners.

    Corner (i, j) is profile sample i turned by the angle v[j], unwrapped
    to v[0] + 2 pi where a closed seam's last quad returns to column 0.
    An edge from (x, y, a) to (x', y', a') with m = (a + a') / 2 and
    h = (a' - a) / 2 is (x' - x, dy cos m - ys sin m, dy sin m + ys cos m)
    with dy = (y' - y) cos h and ys = (y' + y) sin h: the profile chord
    turned to the angle m plus the v-chord 2 y sin(dv / 2).  No two
    coordinates y cos v of neighbouring corners are subtracted, so narrow
    columns do not cancel.
    """
    faces, nv = mesh.faces, mesh.nv
    x, y, v = (np.asarray(a, dtype=dtype) for a in (mesh.profile.x, mesh.profile.y, mesh.v))
    row, col = np.divmod(faces, nv)
    angle = v[col]
    if mesh.closed:
        turn = 2.0 * np.arccos(np.asarray(-1.0, dtype=dtype))
        wrapped = (col == 0) & (col.max(axis=1, keepdims=True) == nv - 1)
        angle = np.where(wrapped, angle + turn, angle)
    # edge c runs from corner c to corner c + 1 and is opposite corner c + 2
    xa, ya, aa = x[row], y[row], angle
    xb, yb, ab = (a[:, [1, 2, 0]] for a in (xa, ya, aa))
    m, h = 0.5 * (aa + ab), 0.5 * (ab - aa)
    dy, ys = (yb - ya) * np.cos(h), (yb + ya) * np.sin(h)
    cos_m, sin_m = np.cos(m), np.sin(m)
    edges = np.stack([xb - xa, dy * cos_m - ys * sin_m, dy * sin_m + ys * cos_m], axis=-1)
    return edges.transpose(1, 0, 2)


def reference_induced_metric_check(mesh, p):
    """Induced-metric deviation measured edge by edge on the whole vertex grid.

    The form induced_metric_check had before it read the profile and the
    angles: every u-edge and v-edge is a 3-d difference of mesh.vertices,
    the seam edges of a closed mesh running from the last column back to
    column 0 over the angle step v[0] - v[-1] + 2 pi.  Squared lengths are
    compared against lambda(u_mid)^2 du^2 and lambda(u)^2 dv^2.
    """
    u, v = mesh.profile.u, mesh.v
    verts = mesh.vertices.reshape(mesh.nu, mesh.nv, 3)
    dv = np.diff(v)
    if mesh.closed:
        verts = np.concatenate([verts, verts[:, :1]], axis=1)
        dv = np.append(dv, v[0] - v[-1] + 2.0 * math.pi)
    edge_u = verts[1:] - verts[:-1]
    edge_v = verts[:, 1:] - verts[:, :-1]
    lam_mid = conformal_factor(p, 0.5 * (u[1:] + u[:-1]))
    lam = conformal_factor(p, u)
    expected_u = (lam_mid * np.diff(u)) ** 2
    dev_u = np.abs(np.sum(edge_u**2, axis=2) / expected_u[:, None] - 1.0)
    dev_v = np.abs(np.sum(edge_v**2, axis=2) / np.outer(lam**2, dv**2) - 1.0)
    return max(float(dev_u.max()), float(dev_v.max()))


def reference_obj(mesh):
    """OBJ text written record by record."""
    out = ["# surface of revolution, outward orientation"]
    for p in mesh.vertices:
        out.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for nrm in reference_vertex_normals(mesh):
        out.append(f"vn {nrm[0]:.17g} {nrm[1]:.17g} {nrm[2]:.17g}")
    for a, b, c in reference_mesh_faces(mesh):
        out.append(f"f {a + 1}//{a + 1} {b + 1}//{b + 1} {c + 1}//{c + 1}")
    return "\n".join(out) + "\n"


def reference_ply(mesh):
    """Binary PLY with one struct.pack call per vertex and per face."""
    faces = reference_mesh_faces(mesh)
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property double u\n"
        "property double v\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    parts = [header]
    for p, (u, v) in zip(mesh.vertices, mesh.uv):
        parts.append(struct.pack("<5d", p[0], p[1], p[2], u, v))
    for a, b, c in faces:
        parts.append(struct.pack("<Biii", 3, int(a), int(b), int(c)))
    return b"".join(parts)


# Full-grid references for the column-based certification code.  They keep
# the nu x nv arithmetic verify used before it worked on 1-d u-columns, so
# tests can demand equal bits and bytes from the column path.


def reference_full_grid(p, u, nv):
    """lambda, K and the Ricci residual as full len(u) x nv arrays.

    ``u`` holds uniform u-nodes, spacing (u[-1] - u[0]) / (len(u) - 1).
    lambda and K come from two closed-form calls and are copied along v
    with np.repeat; the residual is the 2-d 5-point stencil (NaN on the
    trimmed boundary).  Returns (lambda, K, residual, interior max).
    """
    from ricci_liouville import conformal_factor, gaussian_curvature

    lam = np.repeat(conformal_factor(p, u)[:, None], nv, axis=1)
    curv = np.repeat(gaussian_curvature(p, u)[:, None], nv, axis=1)
    f = 0.5 * np.log(-2.0 * p.b * p.b - curv)
    h = (u[-1] - u[0]) / (len(u) - 1)
    lap = (
        f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2] - 4.0 * f[1:-1, 1:-1]
    ) / (h * h)
    res = lap / lam[1:-1, 1:-1] ** 2 - 2.0 * curv[1:-1, 1:-1]
    out = np.full_like(f, np.nan)
    out[1:-1, 1:-1] = res
    return lam, curv, out, float(np.max(np.abs(res)))


def reference_grid_csv(u, v, lam, curv, res):
    """Grid CSV at the nodes u and v, written cell by cell from full len(u) x len(v) fields."""
    out = ["u,v,lambda,K,residual\r\n"]
    for i in range(len(u)):
        for j in range(len(v)):
            r = "" if math.isnan(res[i, j]) else f"{res[i, j]:.17g}"
            out.append(
                f"{u[i]:.17g},{v[j]:.17g},{lam[i, j]:.17g},{curv[i, j]:.17g},{r}\r\n"
            )
    return "".join(out)


def reference_sweep_row(b, c1, c2, u_lo, u_hi, sizes):
    """One sweep triple studied alone, level by level: (residual, order, status).

    ``sizes`` holds node counts of at least 5, the residual stencil's minimum.

    Each level samples K with gaussian_curvature and takes the max of the
    full-grid stencil (reference_full_grid) on one square grid, with no
    batching across triples; residual and order are None unless the
    status is "ok".
    """
    from ricci_liouville import (
        ConvergenceError,
        NotInFamilyError,
        estimate_order,
        gaussian_curvature,
    )

    try:
        p = MetricParams(b=b, c1=c1, c2=c2)
        hs, rs = [], []
        for n in sizes:
            u = np.linspace(u_lo, u_hi, n)
            w = -2.0 * p.b * p.b - gaussian_curvature(p, u)
            if np.any(w <= 0.0):
                raise NotInFamilyError(
                    f"K >= -2 b^2 at u-sample {int(np.argmin(w))}; "
                    "log sqrt(-2 b^2 - K) is undefined there"
                )
            rs.append(reference_full_grid(p, u, n)[3])
            hs.append((u_hi - u_lo) / (n - 1))
        order = estimate_order(hs, rs)
    except (ParameterError, NotInFamilyError) as exc:
        return None, None, f"domain: {exc}"
    except ConvergenceError as exc:
        return None, None, f"numerical: {exc}"
    return rs[-1], order, "ok"


def reference_sweep_csv(b_values, c1_values, c2_values, u_lo, u_hi, sizes):
    """sweep.csv bytes built row by row from reference_sweep_row, c1-major."""

    def cell(x):
        return "" if x is None else f"{x:.17g}"

    lines = ["c1,c2,b,residual,order,status"]
    for c1 in c1_values:
        for c2 in c2_values:
            for b in b_values:
                res, order, status = reference_sweep_row(b, c1, c2, u_lo, u_hi, sizes)
                status = status.replace('"', "'")
                if "," in status:
                    status = f'"{status}"'
                lines.append(",".join([cell(c1), cell(c2), cell(b), cell(res), cell(order), status]))
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


def reference_pmc_report(s, u_interval, n):
    """pmc_report's payload by three closed-form calls and the full-grid stencil.

    lambda and K from conformal_factor and gaussian_curvature, the Kaehler
    angle from theta, and the residual from reference_full_grid on an
    n x 5 grid at the sample spacing.  The curvature bound is the
    family's, -2 b^2 - K > 0; where it fails the residual stays NaN, since
    log(-2 b^2 - K) is undefined there, and where there are fewer than 5
    samples or the spacing squares below the smallest normal float.
    Returns the same dict as pmc_report, None standing for that NaN
    residual.
    """
    from ricci_liouville import (
        conformal_factor,
        gaussian_curvature,
        subfamily_params,
        theta,
    )

    p = subfamily_params(s)
    dc = derive_constants(p)
    u_lo, u_hi = float(u_interval[0]), float(u_interval[1])
    u = np.linspace(u_lo, u_hi, n) if n > 1 else np.asarray([u_lo])
    lam = np.atleast_1d(conformal_factor(p, u))
    curv = np.atleast_1d(gaussian_curvature(p, u))
    alpha = np.arccos(-np.sin(np.atleast_1d(theta(p, u))) / 3.0)
    c_norm = np.sqrt((-2.0 * p.b * p.b - curv) / 4.0)
    curvature_ok = bool(np.all(-2.0 * p.b * p.b - curv > 0.0))
    residual = math.nan
    h = (u_hi - u_lo) / (n - 1) if n > 1 else math.nan
    if curvature_ok and n >= 5 and u_hi > u_lo and h * h >= sys.float_info.min:
        residual = reference_full_grid(p, u, 5)[3]
    if curvature_ok and residual < max(1e-6, 10.0 * h * h):
        verdict = "hypotheses satisfied at sampled resolution"
    elif curvature_ok and math.isnan(residual):
        verdict = "curvature bound holds; interval too small for the residual stencil"
    else:
        verdict = "hypotheses violated at sampled resolution"
    return {
        "c1": p.c1,
        "branch": s.branch,
        "b": p.b,
        "c2": p.c2,
        "k2": dc.k.k2,
        "lambda_plus": dc.lambda_plus,
        "H_norm": 2.0 * p.b,
        "K_min": float(np.min(curv)),
        "K_max": float(np.max(curv)),
        "alpha_min": float(np.min(alpha)),
        "alpha_max": float(np.max(alpha)),
        "c_norm_min": float(np.min(c_norm)),
        "c_norm_max": float(np.max(c_norm)),
        "ricci_max_residual": None if math.isnan(residual) else residual,
        "verdict": verdict,
    }


# theta-based references for the subfamily quantities: sin(theta) comes from
# theta, not from the sn of pmc_report's one Jacobi call, so tests can demand
# equal bits from the single-call path.

def reference_amplitude_equation_check(s, u):
    """Residual of the branch amplitude equation at u, from theta and a second Jacobi call.

    Low branch: theta'^2 - (2 + c1/6 - (c1/6) sin^2 theta), with
    theta' = s dn(s u, k).  High branch: the same specialization through
    the derived constants, theta'^2 - (sqrt(disc)
    - ((c2 + sqrt(disc))/2) sin^2 theta).
    """
    from ricci_liouville import jacobi_sn_cn_dn, subfamily_params, theta

    p = subfamily_params(s)
    dc = derive_constants(p)
    u = np.asarray(u, dtype=float)
    ang = theta(p, u)
    _, _, dn = jacobi_sn_cn_dn(dc.s * u, dc.k)
    dtheta2 = (dc.s * np.asarray(dn)) ** 2
    sin2 = np.sin(ang) ** 2
    if s.branch == "low":
        rhs = 2.0 + s.c1 / 6.0 - (s.c1 / 6.0) * sin2
    else:
        sqrt_disc = math.sqrt(dc.disc)
        rhs = sqrt_disc - 0.5 * (p.c2 + sqrt_disc) * sin2
    res = dtheta2 - rhs
    return float(res) if np.ndim(res) == 0 else res


def reference_kaehler_angle(s, u):
    """Kaehler angle alpha in (0, pi) with 3 cos(alpha) = -sin(theta(u)), from theta."""
    from ricci_liouville import subfamily_params, theta

    ang = theta(subfamily_params(s), u)
    alpha = np.arccos(-np.sin(np.asarray(ang)) / 3.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def reference_metric_from_profile(s, x, y, resample_n: int):
    """metric_from_profile rebuilt on SciPy's CubicSpline and PchipInterpolator.

    u(s) is the antiderivative of the not-a-knot spline of 1/y, s(u) its
    monotone cubic inverse and lambda the spline of y at s(u): a second,
    independent reconstruction.  The library's Hermite path agrees with it
    to about 1e-14 relative on the reference trumpet and 2e-10 on the
    sphere; tests compare the two with a relative tolerance.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (s.shape == x.shape == y.shape) or s.ndim != 1 or s.size < 4:
        raise ParameterError("need matching 1-d s, x, y arrays with >= 4 samples")
    if np.any(np.diff(s) <= 0.0):
        raise ParameterError("arc-length samples must be strictly increasing")
    if np.any(y <= 0.0):
        bad = int(np.argmax(y <= 0.0))
        raise ParameterError(f"rotation radius y <= 0 at sample {bad}")
    if resample_n < 7:
        raise ParameterError("resample_n must be at least 7")

    dx = np.gradient(x, s, edge_order=2)
    dy = np.gradient(y, s, edge_order=2)
    speed_err = np.abs(dx * dx + dy * dy - 1.0)
    worst = int(np.argmax(speed_err))
    if speed_err[worst] > ARC_LENGTH_TOL:
        raise ParameterError(
            f"profile is not arc-length parametrized: |x'^2 + y'^2 - 1| = "
            f"{speed_err[worst]:.3e} at sample {worst} (s = {s[worst]:.17g})"
        )

    u_of_s = CubicSpline(s, 1.0 / y).antiderivative()
    u_samples = u_of_s(s) - u_of_s(s[0])
    s_of_u = PchipInterpolator(u_samples, s)
    u_grid = np.linspace(0.0, u_samples[-1], resample_n)
    s_grid = s_of_u(u_grid)
    lam = CubicSpline(s, y)(s_grid)
    return u_grid, lam

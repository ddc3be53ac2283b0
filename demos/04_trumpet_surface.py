#!/usr/bin/env python3
"""Realizing a family metric as a surface of revolution.

Where lambda^2 >= lambda'^2 the metric embeds with profile curve
y = lambda, x = integral of sqrt(lambda^2 - lambda'^2).  Both coordinate
functions increase for u > 0, so the surface looks like the front part of
a trumpet.  The script exports an OBJ mesh into demo_output/, verifies
edge lengths against the metric, cross-checks angle-defect curvature, and
closes the loop with the profile -> metric direction.  The arc-length
profile it builds for that loop is written as demo_output/trumpet_profile.csv,
which `ricci-liouville classify --profile` accepts.
"""

import math
from pathlib import Path

import numpy as np

from ricci_liouville import (
    MetricParams,
    angle_defect_curvature,
    conformal_factor,
    embeddable_interval,
    gaussian_curvature,
    induced_metric_check,
    mesh_to_obj,
    metric_from_profile,
    profile_from_metric,
    tessellate,
)
from scipy.interpolate import CubicSpline

p = MetricParams(b=1.0 / math.sqrt(6.0), c1=1.0, c2=-11.0 / 6.0)
lo, hi = embeddable_interval(p)
print(f"Embeddable interval: ({lo:.6f}, {hi:.6f})")
print(f"lambda^2 at the boundary = {conformal_factor(p, hi)**2:.6f} "
      "(root of 2 b^2 X^2 + (c2 - 1) X - c1)\n")

interval = (0.8 * lo, 0.8 * hi)
prof = profile_from_metric(p, interval, tol=1e-10, n=201)
print(f"Profile over 80% of the interval: x spans [0, {prof.x[-1]:.6f}], "
      f"y spans [{prof.y.min():.6f}, {prof.y.max():.6f}]")
print(f"x monotone: {bool(np.all(np.diff(prof.x) >= 0.0))}; both x and y increase for u > 0.\n")

mesh = tessellate(prof, 0.0, 2.0 * math.pi, 192)
print(f"Closed tube mesh: {mesh.nu * mesh.nv} vertices, {len(mesh.faces)} triangles")
print(f"Induced-metric edge deviation: {induced_metric_check(mesh, p):.2e}")

ids, k_est, areas, _ = angle_defect_curvature(mesh)
k_true = gaussian_curvature(p, mesh.uv[ids, 0])
print(f"Angle-defect curvature vs analytic: worst rel dev "
      f"{np.max(np.abs(k_est - k_true) / np.abs(k_true)):.2%}")
print(f"Total defect {np.sum(k_est * areas):.6f} vs integral {np.sum(k_true * areas):.6f}\n")

out = Path("demo_output")
out.mkdir(exist_ok=True)
(out / "trumpet.obj").write_bytes(mesh_to_obj(mesh))
print(f"Wrote {out / 'trumpet.obj'}")

# profile -> metric roundtrip
dense = profile_from_metric(p, interval, tol=1e-10, n=4001)
xs, ys = CubicSpline(dense.u, dense.x), CubicSpline(dense.u, dense.y)
speed = np.hypot(xs.derivative()(dense.u), ys.derivative()(dense.u))
s = CubicSpline(dense.u, speed).antiderivative()(dense.u)
s_uni = np.linspace(0.0, s[-1], 4001)
x_uni, y_uni = CubicSpline(s, dense.x)(s_uni), CubicSpline(s, dense.y)(s_uni)
u_rec, lam_rec = metric_from_profile(s_uni, x_uni, y_uni, 801)
err = np.max(np.abs(lam_rec - conformal_factor(p, u_rec + interval[0])))
print(f"\nRoundtrip metric -> profile -> arc length -> metric: "
      f"max |lambda error| = {err:.2e}")

# the arc-length profile as s,x,y with 17 significant digits, for classify
rows = ["s,x,y"] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(s_uni, x_uni, y_uni)]
(out / "trumpet_profile.csv").write_text("\r\n".join(rows) + "\r\n", newline="")
print(f"Wrote {out / 'trumpet_profile.csv'}")

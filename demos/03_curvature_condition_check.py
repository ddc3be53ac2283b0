#!/usr/bin/env python3
"""Finite-difference certification of Delta log sqrt(-2 b^2 - K) = 2 K.

The family satisfies the condition exactly, so the 5-point stencil
residual must vanish at second order under grid refinement.  A perturbed
factor lambda (1 + u^2/100) serves as the negative control: its residual
plateaus.  The affine-log normalization law is fitted last.
"""

import math

import numpy as np

from ricci_liouville import (
    MetricParams,
    conformal_factor,
    estimate_order,
    fit_normalization,
    refinement_rows,
    ricci_residual_column,
)

p = MetricParams(b=1.0 / math.sqrt(6.0), c1=1.0, c2=-11.0 / 6.0)
sizes = [51, 101, 201]  # nodes on [-0.5, 0.5], halving the spacing
hs = [1.0 / (n - 1) for n in sizes]

print("Grid residual of the curvature condition (family member):")
print(f"{'h':>8} {'max residual':>14}")
rs, order, *_ = refinement_rows([(p.b, p.c1, p.c2)], -0.5, 0.5, sizes)[0]
for h, r in zip(hs, rs):
    print(f"{h:8.4f} {r:14.3e}")
print(f" -> estimated order {order:.3f} (discretization error only)\n")

print("Negative control lambda (1 + u^2/100) with its exact curvature:")
rs = []
for n, h in zip(sizes, hs):
    u = np.linspace(-0.5, 0.5, n)
    lam = conformal_factor(p, u)
    lam_t = lam * (1 + 0.01 * u**2)
    log_dd = (p.c1 + 2 * p.b**2 * lam**4) / lam**2 + 0.02 * (1 - 0.01 * u**2) / (
        1 + 0.01 * u**2
    ) ** 2
    curv = -log_dd / lam_t**2
    # v-independent: the stencil runs on one column along u
    r = float(np.max(np.abs(ricci_residual_column(lam_t, curv, p.b, h))))
    rs.append(r)
    print(f"{h:8.4f} {r:14.3e}")
print(f" -> order {estimate_order(hs, rs):.3f}: the residual does not converge;")
print("    this metric genuinely violates the condition.\n")

h = 1e-3
u = np.arange(-0.4, 0.4 + 1e-12, h)
fit = fit_normalization(conformal_factor(p, u), p.b, h)
print("Affine-log normalization F(u) = log(lambda^2 sqrt(-2 b^2 - K)):")
print(f"  fitted multiplicative constant = {fit.c1_fit:.8f}  (sqrt(c1) = 1)")
print(f"  fitted slope                   = {fit.c2_fit:.2e}  (0 for this family)")
print(f"  max deviation from the line    = {fit.max_affine_residual:.2e}")

#!/usr/bin/env python3
"""The parameter subfamily induced by parallel mean curvature immersions.

With 6 b^2 = 1 and c2 coupled to c1 (c2 = c1/6 - 2 below c1 = 3/2,
c2 = 2 - c1/6 above), the metrics are exactly those carried by immersions
into the complex hyperbolic plane of holomorphic sectional curvature -2
with parallel mean curvature vector of norm 2/sqrt(6).
"""

import math

import numpy as np

from ricci_liouville import (
    SubfamilyBranch,
    derive_constants,
    pmc_report,
    subfamily_params,
    theta,
)
from ricci_liouville.fileio import json_text

print("Low branch closed forms: k^2 = c1/(c1 + 12), lambda_plus = 6")
print(f"{'c1':>6} {'c2':>10} {'k^2':>12} {'c1/(c1+12)':>12} {'lambda_plus':>12}")
for c1 in (0.1, 0.5, 1.0, 1.4):
    s = SubfamilyBranch(c1)
    p = subfamily_params(s)
    dc = derive_constants(p)
    print(f"{c1:6.2f} {p.c2:10.5f} {dc.k.k2:12.8f} {c1 / (c1 + 12):12.8f} "
          f"{dc.lambda_plus:12.8f}")

print("\nHigh branch (computed numerically through the same machinery):")
for c1 in (2.0, 6.0, 12.0):
    s = SubfamilyBranch(c1)
    p = subfamily_params(s)
    dc = derive_constants(p)
    print(f"  c1 = {c1:5.1f}: c2 = {p.c2:8.4f}, k^2 = {dc.k.k2:.8f}, "
          f"lambda_plus = {dc.lambda_plus:.8f}")

s = SubfamilyBranch(1.0)
p = subfamily_params(s)
dc = derive_constants(p)
u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 7)
alpha = np.arccos(-np.sin(theta(p, u)) / 3.0)
print("\nKaehler angle along the reference member (3 cos alpha = -sin theta):")
print(f"{'u':>8} {'alpha':>10} {'cos(alpha)':>12}")
for ui, a in zip(u, alpha):
    print(f"{ui:8.4f} {a:10.6f} {math.cos(a):12.8f}")
print("cos(alpha) never leaves [-1/3, 1/3], so the angle stays away from 0 and pi.")

print("\nFull report over [-0.4, 0.4] with 401 samples:")
print(json_text(pmc_report(s, (-0.4, 0.4), 401)))

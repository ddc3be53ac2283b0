"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured figure next to its threshold.  Tolerances are fixed here and
nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ricci_liouville import (
    MetricParams,
    SubfamilyBranch,
    angle_defect_curvature,
    conformal_factor,
    conformal_factor_derivatives,
    derive_constants,
    embeddable_interval,
    estimate_order,
    fit_normalization,
    gaussian_curvature,
    jacobi_sn_cn_dn,
    metric_from_profile,
    profile_from_metric,
    refinement_rows,
    ricci_residual_column,
    second_fundamental_norm,
    subfamily_params,
    tessellate,
)

from helpers import (
    arc_length_resample,
    child_env,
    lambda_ode_oracle,
    perturbed_metric_columns,
    reference_amplitude_equation_check,
    ricci_condition_4th_order_oracle,
    sweep_params,
)

REF = MetricParams(b=1.0 / math.sqrt(6.0), c1=1.0, c2=-11.0 / 6.0)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_01_elliptic_identities_random_pairs():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst_sc = worst_dn = 0.0
    for k in rng.uniform(0.0, 0.999, size=100):
        u = rng.uniform(-20.0, 20.0, size=100)
        sn, cn, dn = jacobi_sn_cn_dn(u, float(k))
        worst_sc = max(worst_sc, float(np.max(np.abs(sn**2 + cn**2 - 1.0))))
        worst_dn = max(worst_dn, float(np.max(np.abs(dn**2 + k * k * sn**2 - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst_sc < 1e-12
    assert worst_dn < 1e-12
    assert elapsed < 1.0
    report(1, f"10^4 pairs, worst {max(worst_sc, worst_dn):.2e} < 1e-12, {elapsed:.2f} s < 1 s")


def test_criterion_02_closed_form_matches_ode_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in sweep_params():
        dc = derive_constants(p)
        u = np.linspace(-0.95 * dc.u_max, 0.95 * dc.u_max, 81)
        lam_oracle = lambda_ode_oracle(p, u)
        lam_closed = conformal_factor(p, u)
        worst = max(worst, float(np.max(np.abs(lam_closed - lam_oracle) / lam_oracle)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    report(2, f"27 triples, worst rel {worst:.2e} < 1e-8, {elapsed:.2f} s < 10 s")


def test_criterion_03_first_integral_constancy():
    # |lambda^4 (-2 b^2 - K) - c1| with K from analytic derivatives:
    # relative to c1 over 90% of the domain, and within the
    # max(1, lambda^4)-scaled tolerance of the residual contract over 99%
    worst_rel = worst_scaled = 0.0
    for p in sweep_params():
        dc = derive_constants(p)
        for cover, mode in ((0.90, "c1"), (0.99, "scaled")):
            u = np.linspace(-cover * dc.u_max, cover * dc.u_max, 100)
            lam, dlam, d2lam = conformal_factor_derivatives(p, u)
            curv = (-lam * d2lam + dlam**2) / lam**4
            dev = np.abs(lam**4 * (-2.0 * p.b**2 - curv) - p.c1)
            if mode == "c1":
                worst_rel = max(worst_rel, float(np.max(dev)) / p.c1)
            else:
                worst_scaled = max(
                    worst_scaled, float(np.max(dev / np.maximum(1.0, lam**4)))
                )
    assert worst_rel < 1e-9
    assert worst_scaled < 1e-9
    report(3, f"worst rel {worst_rel:.2e} < 1e-9 (90% span); scaled {worst_scaled:.2e} (99% span)")


def test_criterion_04_residual_order_two_with_negative_controls():
    sizes = [51, 101, 201]  # on [-0.5, 0.5]: h = 0.02 -> 0.01 -> 0.005
    hs = [1.0 / (n - 1) for n in sizes]
    rows = refinement_rows([(p.b, p.c1, p.c2) for p in sweep_params()], -0.5, 0.5, sizes)
    assert not any(isinstance(row, Exception) for row in rows), rows
    orders = [order for _, order, *_ in rows]
    assert all(1.8 <= o <= 2.2 for o in orders), orders

    control_orders = []
    for p in (REF, MetricParams(b=0.5, c1=1.0, c2=0.0), MetricParams(b=1.0, c1=4.0, c2=-2.0)):
        rs = [
            float(np.max(np.abs(ricci_residual_column(
                *perturbed_metric_columns(p, np.linspace(-0.5, 0.5, n)), p.b, h))))
            for n, h in zip(sizes, hs)
        ]
        control_orders.append(estimate_order(hs, rs))
    assert all(abs(o) < 0.5 for o in control_orders), control_orders
    report(
        4,
        f"orders in [{min(orders):.2f}, {max(orders):.2f}] for 27 triples; "
        f"controls {[f'{o:.2f}' for o in control_orders]} < 0.5",
    )


def test_criterion_05_low_branch_closed_forms():
    worst_k2 = worst_lp = worst_amp = 0.0
    for c1 in (0.1, 0.5, 1.0, 1.4):
        s = SubfamilyBranch(c1)
        dc = derive_constants(subfamily_params(s))
        worst_k2 = max(worst_k2, abs(dc.k.k2 - c1 / (c1 + 12.0)))
        worst_lp = max(worst_lp, abs(dc.lambda_plus - 6.0))
        u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 101)
        amp = reference_amplitude_equation_check(s, u)
        worst_amp = max(worst_amp, float(np.max(np.abs(amp))))
    assert worst_k2 < 1e-12
    assert worst_lp < 1e-11  # 1e-12 relative on a value of 6
    assert worst_amp < 1e-9
    report(
        5,
        f"k2 dev {worst_k2:.1e}, lambda_plus dev {worst_lp:.1e}, "
        f"amplitude residual {worst_amp:.1e} < 1e-9",
    )


def test_criterion_06_gauss_equation_spot_values():
    curv = gaussian_curvature(REF, 0.0)
    norm = second_fundamental_norm(curv, REF.b)
    assert curv == pytest.approx(-13.0 / 36.0, abs=1e-12)
    assert norm == pytest.approx(1.0 / 12.0, abs=1e-12)
    report(6, f"K(0) = {curv:.15f} (-13/36), |c| = {norm:.15f} (1/12), both to 1e-12")


def test_criterion_07_revolution_roundtrip_and_sphere():
    lo, hi = embeddable_interval(REF)
    a_lo, a_hi = 0.8 * lo, 0.8 * hi
    prof = profile_from_metric(REF, (a_lo, a_hi), tol=1e-10, n=4001)
    s, x, y = arc_length_resample(prof.u, prof.x, prof.y, 4001)
    u_rec, lam_rec = metric_from_profile(s, x, y, 1001)
    lam_true = conformal_factor(REF, u_rec + a_lo)
    roundtrip_err = float(np.max(np.abs(lam_rec - lam_true)))
    assert roundtrip_err < 1e-5

    s0 = 0.3
    s_arr = np.linspace(s0, math.pi - s0, 4001)
    u_s, lam_s = metric_from_profile(s_arr, -np.cos(s_arr), np.sin(s_arr), 1001)
    sphere_err = float(np.max(np.abs(lam_s - 1.0 / np.cosh(u_s + math.log(math.tan(s0 / 2.0))))))
    assert sphere_err < 1e-6
    phi = np.log(lam_s)
    h = u_s[1] - u_s[0]
    curv = -(phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2 * np.exp(-2.0 * phi[1:-1])
    curv_err = float(np.max(np.abs(curv - 1.0)))
    assert curv_err < 0.01
    report(
        7,
        f"roundtrip {roundtrip_err:.1e} < 1e-5; sphere lambda {sphere_err:.1e} < 1e-6, "
        f"K within {curv_err:.1e} of +1 (< 1%)",
    )


def test_criterion_08_angle_defect_cross_check():
    # Delta = 0.01 in both parameters on the reference member
    prof = profile_from_metric(REF, (-0.33, 0.33), tol=1e-10, n=67)
    mesh = tessellate(prof, 0.0, 2.0 * math.pi, 628)
    ids, k_est, areas, skipped = angle_defect_curvature(mesh)
    assert len(skipped) == 0
    k_true = gaussian_curvature(REF, mesh.uv[ids, 0])
    pointwise = float(np.max(np.abs(k_est - k_true) / np.abs(k_true)))
    assert pointwise < 0.05
    total_defect = float(np.sum(k_est * areas))
    total_analytic = float(np.sum(k_true * areas))
    integrated = abs(total_defect - total_analytic) / abs(total_analytic)
    assert integrated < 0.02
    report(8, f"pointwise {pointwise:.2%} < 5%, integrated {integrated:.2%} < 2%")


def test_criterion_09_normalization_fit():
    h = 1e-3
    u = np.arange(-0.4, 0.4 + 1e-12, h)
    fit = fit_normalization(conformal_factor(REF, u), REF.b, h)
    assert abs(fit.c2_fit) < 10.0 * h * h
    assert abs(fit.c1_fit - 1.0) < 1e-4  # true value sqrt(c1) = 1

    p4 = MetricParams(b=0.5, c1=4.0, c2=0.0)
    fit4 = fit_normalization(conformal_factor(p4, u), p4.b, h)
    assert abs(fit4.c1_fit - 2.0) < 1e-4  # true value sqrt(4) = 2

    b = 0.5
    u_o, phi = ricci_condition_4th_order_oracle(b, (0.0, 0.1, 1.0, 0.2), 0.3, h)
    slope_fit = fit_normalization(np.exp(phi), b, h, u0=float(u_o[0]))
    assert slope_fit.c2_fit == pytest.approx(0.2, abs=1e-3)
    report(
        9,
        f"c2 {fit.c2_fit:.1e} < 10 h^2, c1 dev {abs(fit.c1_fit - 1):.1e} and "
        f"{abs(fit4.c1_fit - 2):.1e} < 1e-4; oracle slope dev "
        f"{abs(slope_fit.c2_fit - 0.2):.1e} < 1e-3",
    )


def test_criterion_10_cli_determinism_and_sweep_budget(tmp_path):
    base = [sys.executable, "-m", "ricci_liouville.cli"]
    env = child_env()
    verify_args = [
        "verify", "--c1", "1", "--c2", "-1.8333333333333333",
        "--u-lo", "-0.4", "--u-hi", "0.4", "--h", "0.02", "--levels", "2",
    ]
    mesh_args = [
        "mesh", "--c1", "1", "--c2", "-1.8333333333333333",
        "--u-lo", "-0.3", "--u-hi", "0.3", "--nu", "41",
        "--v-lo", "0", "--v-hi", "6.283185307179586", "--nv", "32",
        "--format", "obj",
    ]
    for sub in ("a", "b"):
        subprocess.run(
            base + verify_args + ["--outdir", str(tmp_path / sub / "verify")],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        subprocess.run(
            base + mesh_args + ["--outdir", str(tmp_path / sub / "mesh")],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
    for rel in ("verify/residuals.csv", "verify/summary.json", "mesh/surface.obj"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    t0 = time.perf_counter()
    proc = subprocess.run(
        base + ["sweep", "--outdir", str(tmp_path / "sweep")],
        env=env, stdout=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 1 + 27
    assert all(line.split(",")[5] == "ok" for line in lines[1:])
    assert elapsed < 60.0
    report(10, f"verify/mesh byte-identical; default 27-triple sweep {elapsed:.1f} s < 60 s")

import json
import math

import numpy as np
import pytest

from ricci_liouville import (
    DomainError,
    PMC_B,
    PMC_RHO,
    ParameterError,
    SubfamilyBranch,
    conformal_factor,
    derive_constants,
    gaussian_curvature,
    pmc_report,
    ricci_residual_1d,
    second_fundamental_norm,
    subfamily_params,
)

from helpers import (
    reference_amplitude_equation_check,
    reference_kaehler_angle,
    reference_pmc_report,
)


class TestSubfamilyBranch:
    def test_branch_selection(self):
        assert SubfamilyBranch(1.0).branch == "low"
        assert SubfamilyBranch(6.0).branch == "high"

    def test_rejects_branch_point(self):
        with pytest.raises(ParameterError, match="3/2"):
            SubfamilyBranch(1.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ParameterError):
            SubfamilyBranch(bad)

    def test_fixed_constants(self):
        assert PMC_B == pytest.approx(1.0 / math.sqrt(6.0), abs=0)
        assert PMC_RHO == pytest.approx(-3.0 * PMC_B**2, abs=1e-15)


class TestSubfamilyParams:
    def test_low_branch_reference(self):
        p = subfamily_params(SubfamilyBranch(1.0))
        assert p.c2 == pytest.approx(-11.0 / 6.0, abs=1e-15)
        dc = derive_constants(p)
        assert dc.k.k2 == pytest.approx(1.0 / 13.0, abs=1e-13)
        assert dc.lambda_plus == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("c1", [0.1, 0.5, 1.0, 1.4, 1.45])
    def test_low_branch_closed_forms(self, c1):
        dc = derive_constants(subfamily_params(SubfamilyBranch(c1)))
        assert dc.k.k2 == pytest.approx(c1 / (c1 + 12.0), abs=1e-12)
        assert dc.lambda_plus == pytest.approx(6.0, abs=1e-12)

    def test_small_c1_degenerates_to_trigonometric(self):
        dc = derive_constants(subfamily_params(SubfamilyBranch(1e-5)))
        assert dc.k.k2 < 1e-6

    def test_high_branch_example(self):
        p = subfamily_params(SubfamilyBranch(6.0))
        assert p.c2 == pytest.approx(1.0, abs=1e-15)
        dc = derive_constants(p)
        assert math.sqrt(dc.disc) == pytest.approx(3.0, abs=1e-13)
        assert dc.k.k2 == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert dc.lambda_plus == pytest.approx(3.0, abs=1e-13)


class TestAmplitudeEquation:
    """theta and the derived constants of a branch member solve its amplitude equation."""

    def test_derivative_at_zero_is_scaling(self):
        s = SubfamilyBranch(1.0)
        p = subfamily_params(s)
        dc = derive_constants(p)
        # theta'(0)^2 = s^2 = sqrt(disc) = 2 + c1/6 on the low branch
        assert dc.s**2 == pytest.approx(2.0 + 1.0 / 6.0, abs=1e-13)
        assert reference_amplitude_equation_check(s, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_residual_small_across_domain(self):
        s = SubfamilyBranch(1.0)
        dc = derive_constants(subfamily_params(s))
        u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 101)
        assert np.max(np.abs(reference_amplitude_equation_check(s, u))) < 1e-9

    def test_sin_one_limit_value(self):
        # algebraic limit of the low-branch right side at sin(theta) = +-1
        c1 = 1.0
        assert 2.0 + c1 / 6.0 - c1 / 6.0 * 1.0 == pytest.approx(2.0, abs=1e-15)

    def test_high_branch_residual(self):
        s = SubfamilyBranch(6.0)
        dc = derive_constants(subfamily_params(s))
        u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 101)
        assert np.max(np.abs(reference_amplitude_equation_check(s, u))) < 1e-9


class TestKaehlerAngle:
    """The Kaehler angle alpha, 3 cos(alpha) = -sin(theta), as pmc_report samples it."""

    def test_centre_value(self):
        rep = pmc_report(SubfamilyBranch(1.0), (0.0, 0.0), 1)
        assert rep["alpha_min"] == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert rep["alpha_max"] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_cosine_bounded_by_one_third(self):
        # alpha is monotone in sin(theta), so its range ends bound |cos(alpha)|
        s = SubfamilyBranch(1.2)
        dc = derive_constants(subfamily_params(s))
        rep = pmc_report(s, (-0.95 * dc.u_max, 0.95 * dc.u_max), 301)
        alpha = np.array([rep["alpha_min"], rep["alpha_max"]])
        assert alpha[0] < math.pi / 2.0 < alpha[1]
        assert np.max(np.abs(np.cos(alpha))) <= 1.0 / 3.0 + 1e-15
        assert np.min(np.sin(alpha)) >= math.sqrt(8.0) / 3.0 - 1e-12

    def test_smooth_in_u(self):
        s = SubfamilyBranch(1.0)
        dc = derive_constants(subfamily_params(s))
        u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 2001)
        alpha = reference_kaehler_angle(s, u)
        fd = np.diff(alpha) / np.diff(u)
        assert np.max(np.abs(fd)) < 2.0
        assert np.max(np.abs(np.diff(fd))) < 0.01


class TestSecondFundamentalNorm:
    def test_vanishes_at_curvature_bound(self):
        assert second_fundamental_norm(-2.0 * PMC_B**2, PMC_B) == 0.0

    def test_reference_spot_value(self):
        assert second_fundamental_norm(-13.0 / 36.0, PMC_B) == pytest.approx(
            1.0 / 12.0, abs=1e-13
        )

    def test_matches_sqrt_c1_over_two_lambda_squared(self):
        p = subfamily_params(SubfamilyBranch(1.0))
        dc = derive_constants(p)
        u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 101)
        lam = conformal_factor(p, u)
        c_norm = second_fundamental_norm(gaussian_curvature(p, u), p.b)
        assert np.max(np.abs(c_norm - math.sqrt(p.c1) / (2.0 * lam**2))) < 1e-10

    def test_rejects_curvature_above_bound(self):
        with pytest.raises(DomainError):
            second_fundamental_norm(0.5, PMC_B)


class TestPmcReport:
    def test_reference_report(self):
        rep = pmc_report(SubfamilyBranch(1.0), (-0.4, 0.4), 401)
        assert rep["H_norm"] == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-15)
        assert rep["K_min"] == pytest.approx(-13.0 / 36.0, abs=1e-12)
        assert rep["K_max"] < -1.0 / 3.0
        h = 0.8 / 400.0
        assert rep["ricci_max_residual"] < 10.0 * h * h
        assert rep["verdict"] == "hypotheses satisfied at sampled resolution"

    def test_json_schema_keys(self):
        payload = pmc_report(SubfamilyBranch(1.0), (-0.2, 0.2), 101)
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload
        assert sorted(payload) == sorted(
            [
                "c1",
                "branch",
                "b",
                "c2",
                "k2",
                "lambda_plus",
                "H_norm",
                "K_min",
                "K_max",
                "alpha_min",
                "alpha_max",
                "c_norm_min",
                "c_norm_max",
                "ricci_max_residual",
                "verdict",
            ]
        )

    def test_degenerate_interval(self):
        rep = pmc_report(SubfamilyBranch(1.0), (0.1, 0.1), 1)
        assert rep["K_min"] == rep["K_max"]
        assert rep["alpha_min"] == rep["alpha_max"]
        assert rep["ricci_max_residual"] is None
        assert "residual" in rep["verdict"] or "curvature bound holds" in rep["verdict"]

    def test_high_branch_report(self):
        rep = pmc_report(SubfamilyBranch(6.0), (-0.3, 0.3), 201)
        assert rep["branch"] == "high"
        assert rep["verdict"] == "hypotheses satisfied at sampled resolution"

    @pytest.mark.parametrize("c1", [1.0, 6.0])
    def test_curvature_bound_is_the_familys(self, c1):
        # next to the pole K rounds to -2 b^2 = -0.3333333333333334, one ulp
        # below -1/3: w = -2 b^2 - K = 0 breaks the bound the residual kernel needs
        s = SubfamilyBranch(c1)
        u = 0.99999 * derive_constants(subfamily_params(s)).u_max
        rep = pmc_report(s, (u, u), 1)
        assert rep["K_min"] == rep["K_max"] == -2.0 * PMC_B**2 and rep["K_min"] < -1.0 / 3.0
        assert rep["ricci_max_residual"] is None
        assert rep["verdict"] == "hypotheses violated at sampled resolution"

    @pytest.mark.parametrize(
        "interval, n, message",
        [((0.2, 0.1), 11, "interval must satisfy u_lo <= u_hi"),
         ((-0.1, 0.1), 0, "need at least one sample")],
        ids=["reversed", "no-samples"],
    )
    def test_rejects_bad_interval_or_count(self, interval, n, message):
        with pytest.raises(ParameterError, match=message):
            pmc_report(SubfamilyBranch(1.0), interval, n)

    def test_interval_outside_domain_rejected(self):
        dc = derive_constants(subfamily_params(SubfamilyBranch(1.0)))
        with pytest.raises(ParameterError, match="domain"):
            pmc_report(SubfamilyBranch(1.0), (-dc.u_max, dc.u_max), 51)


def _bits(value):
    """Floats as hex strings (tuples elementwise), so == compares bits and NaN."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("c1", [0.1, 1.0, 1.45, 1.6, 6.0, 30.0])
@pytest.mark.parametrize(
    "share, n",
    [((-0.5, 0.5), 401), ((-0.999, 0.999), 2001), ((0.1, 0.9), 64), ((-0.3, 0.3), 5),
     ((-0.3, 0.3), 4), ((0.0, 0.0), 1), ((-0.999999, 0.999999), 101),
     # spacings whose squares are 0 and subnormal: no residual is formed
     ((0.0, 1e-200), 5), ((0.0, 1e-160), 5)],
)
def test_report_matches_three_call_path(c1, share, n):
    # one Jacobi call per sample and the shared residual kernel against
    # conformal_factor, theta and the full n x 5 grid stencil, bit for bit
    s = SubfamilyBranch(c1)
    u_max = derive_constants(subfamily_params(s)).u_max
    interval = (share[0] * u_max, share[1] * u_max)
    got = pmc_report(s, interval, n)
    want = reference_pmc_report(s, interval, n)
    assert list(got) == list(want)
    for key, value in want.items():
        assert _bits(got[key]) == _bits(value), key


@pytest.mark.parametrize("c1", [0.1, 1.0, 1.45, 1.6, 6.0, 30.0])
def test_one_jacobi_call_matches_theta_path(c1):
    # inside the metric domain sn = sin(am), so the Kaehler angle pmc_report
    # takes from its one Jacobi call keeps the bits of the theta-based path,
    # at both signed zeros too
    s = SubfamilyBranch(c1)
    u_max = derive_constants(subfamily_params(s)).u_max
    for u in (0.0, -0.0, 0.5 * u_max, -0.999 * u_max, 0.999 * u_max):
        alpha = reference_kaehler_angle(s, u)
        rep = pmc_report(s, (u, u), 1)
        assert _bits((rep["alpha_min"], rep["alpha_max"])) == _bits((alpha, alpha))


def test_log_c_norm_residual_equals_curvature_condition_residual():
    # |c| = sqrt(c1) / (2 lambda^2), so the data log|c| feeds the same
    # second-difference condition as log sqrt(-2 b^2 - K); the two residual
    # computations must agree to rounding
    p = subfamily_params(SubfamilyBranch(1.0))
    h = 0.02
    u = np.arange(-0.4, 0.4 + 1e-12, h)
    lam = conformal_factor(p, u)
    phi = np.log(lam)
    res_phi = ricci_residual_1d(phi, p.b, h)

    curv_fd = -(phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2 * np.exp(-2 * phi[1:-1])
    log_c = np.log(np.sqrt(-2.0 * p.b**2 - curv_fd) / 2.0)
    lap = (log_c[2:] - 2 * log_c[1:-1] + log_c[:-2]) / h**2 * np.exp(
        -2.0 * phi[2:-2]
    )
    res_c = lap - 2.0 * curv_fd[1:-1]
    assert np.max(np.abs(res_c - res_phi)) < 1e-12

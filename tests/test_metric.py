import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_liouville import (
    DomainError,
    MetricParams,
    ParameterError,
    SubfamilyBranch,
    conformal_factor,
    conformal_factor_derivatives,
    derive_constants,
    gaussian_curvature,
    ode_residual,
    pmc_report,
    refinement_rows,
    subfamily_params,
    theta,
)
from ricci_liouville.metric import DEFAULT_EPS_DOM

from helpers import lambda_ode_oracle, sweep_params


class TestParams:
    def test_rejects_nonpositive_b(self):
        with pytest.raises(ParameterError, match="b must be positive"):
            MetricParams(b=0.0, c1=1.0, c2=0.0)

    def test_rejects_nonpositive_c1(self):
        with pytest.raises(ParameterError, match="c1 must be positive"):
            MetricParams(b=1.0, c1=-2.0, c2=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            MetricParams(b=1.0, c1=math.inf, c2=0.0)


class TestDerivedConstants:
    def test_reference_member_closed_forms(self, ref_params):
        dc = derive_constants(ref_params)
        assert math.sqrt(dc.disc) == pytest.approx(13.0 / 6.0, abs=1e-14)
        assert dc.k.k2 == pytest.approx(1.0 / 13.0, abs=1e-14)
        assert dc.lambda_plus == pytest.approx(6.0, abs=1e-12)
        assert dc.s == pytest.approx(math.sqrt(13.0 / 6.0), abs=1e-14)

    def test_zero_c2_member(self):
        dc = derive_constants(MetricParams(b=1.0, c1=1.0, c2=0.0))
        assert dc.k.k2 == pytest.approx(0.5, abs=1e-14)
        assert dc.lambda_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    @pytest.mark.parametrize(
        "b, c1, c2, message",
        [
            (0.5, 1e-8, 1e4, "root ordering"),
            (1.0 / math.sqrt(6.0), 1.0, -1e8, "factorization"),
            (0.5, 1.0, 1e200, "discriminant"),
        ],
    )
    def test_unrepresentable_triples_raise_parameter_error(self, b, c1, c2, message):
        # valid MetricParams whose constants lose the checked invariants
        with pytest.raises(ParameterError, match=message):
            derive_constants(MetricParams(b=b, c1=c1, c2=c2))

    @pytest.mark.parametrize(
        "b, c1, c2, message",
        [
            (1e-200, 1.0, 0.0, r"b = 1e-200 is too small"),  # b^2 and disc underflow
            (1e-170, 1.0, 1.0, r"b = 1e-170 is too small"),  # b^2 underflows, disc = 1
            (1e-160, 1e-10, 0.0, r"discriminant .* underflows"),  # b^2 > 0, disc = 0
        ],
    )
    def test_underflowing_divisors_raise_parameter_error(self, b, c1, c2, message):
        # these divided by zero before the divisors were checked
        with pytest.raises(ParameterError, match=message):
            derive_constants(MetricParams(b=b, c1=c1, c2=c2))

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.floats(min_value=0.1, max_value=3.0),
        c1=st.floats(min_value=0.05, max_value=20.0),
        c2=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_vieta_relations(self, b, c1, c2):
        p = MetricParams(b=b, c1=c1, c2=c2)
        dc = derive_constants(p)
        assert 2.0 * b * b * dc.lambda_plus * dc.lambda_minus == pytest.approx(
            -c1, rel=1e-12
        )
        assert dc.lambda_plus + dc.lambda_minus == pytest.approx(
            -c2 / (2.0 * b * b), rel=1e-11, abs=1e-12
        )
        assert 0.0 < dc.k.k2 < 1.0
        assert dc.u_max > 0.0


class TestConformalFactor:
    def test_minimum_value(self, ref_params):
        assert conformal_factor(ref_params, 0.0) == pytest.approx(
            math.sqrt(6.0), abs=1e-13
        )

    def test_even(self, ref_params):
        u = np.linspace(0.0, 0.9, 40)
        assert np.max(
            np.abs(conformal_factor(ref_params, u) - conformal_factor(ref_params, -u))
        ) < 1e-12

    def test_monotone_towards_pole(self, ref_params):
        dc = derive_constants(ref_params)
        u = np.linspace(0.0, dc.u_max * (1 - 1e-6), 200)
        lam = conformal_factor(ref_params, u)
        assert np.all(np.diff(lam) > 0.0)
        assert lam[-1] > 1e2

    def test_matches_ode_integration(self, ref_params):
        lam = conformal_factor(ref_params, 0.5)
        oracle = lambda_ode_oracle(ref_params, [0.5])[0]
        assert abs(lam - oracle) / oracle < 1e-8

    def test_square_bounded_below_with_minimum_at_zero(self, ref_params):
        dc = derive_constants(ref_params)
        u = np.linspace(-0.95 * dc.u_max, 0.95 * dc.u_max, 301)
        lam = conformal_factor(ref_params, u)
        assert np.all(lam**2 >= dc.lambda_plus - 1e-12)
        assert np.argmin(lam**2) == 150

    def test_domain_error_names_boundary(self, ref_params):
        dc = derive_constants(ref_params)
        with pytest.raises(DomainError, match="u_max"):
            conformal_factor(ref_params, dc.u_max)
        with pytest.raises(DomainError):
            conformal_factor(ref_params, -dc.u_max * (1 + 1e-12))

    def test_nan_rejected(self, ref_params):
        with pytest.raises(DomainError, match="NaN"):
            conformal_factor(ref_params, math.nan)
        with pytest.raises(DomainError, match="NaN"):
            conformal_factor(ref_params, np.array([0.1, math.nan, -0.2]))



# the low-branch subfamily member with c1 = 1 is the reference metric
REF_BRANCH = SubfamilyBranch(1.0)


def domain_of_refinement_rows(p, u):
    """refinement_rows of p on [-u, u] at two levels, raising a DomainError it returns.

    At 2 DEFAULT_EPS_DOM from the pole K may round to -2 b^2, a row error
    that is not the domain check's.
    """
    result = refinement_rows([(p.b, p.c1, p.c2)], -u, u, [5, 9])[0]
    if isinstance(result, DomainError):
        raise result


CLOSED_FORM_ENTRY_POINTS = {
    "conformal_factor": conformal_factor,
    "conformal_factor_derivatives": conformal_factor_derivatives,
    "gaussian_curvature": gaussian_curvature,
    "theta": theta,
    "ode_residual": ode_residual,
    "refinement_rows": domain_of_refinement_rows,
    # two samples, the interval ends: at 2 DEFAULT_EPS_DOM from the pole K
    # rounds to -2 b^2, where the residual stencil is undefined
    "pmc_report": lambda _, u: pmc_report(REF_BRANCH, (-u, u), 2),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_ENTRY_POINTS))
def test_fixed_domain_margin(ref_params, name):
    # every closed-form evaluation keeps the margin DEFAULT_EPS_DOM from the pole
    assert subfamily_params(REF_BRANCH) == ref_params
    evaluate = CLOSED_FORM_ENTRY_POINTS[name]
    u_max = derive_constants(ref_params).u_max
    evaluate(ref_params, u_max - 2.0 * DEFAULT_EPS_DOM)
    with pytest.raises(DomainError, match="inside the metric domain") as info:
        evaluate(ref_params, u_max - 0.5 * DEFAULT_EPS_DOM)
    assert isinstance(info.value, ParameterError)


class TestDerivatives:
    def test_first_derivative_vanishes_at_zero(self, ref_params):
        _, dlam, _ = conformal_factor_derivatives(ref_params, 0.0)
        assert dlam == 0.0

    def test_second_derivative_at_zero(self, ref_params):
        _, _, d2lam = conformal_factor_derivatives(ref_params, 0.0)
        assert d2lam == pytest.approx(math.sqrt(6.0) * 13.0 / 6.0, abs=1e-12)

    def test_first_integral_identity(self, ref_params):
        rng = np.random.default_rng(7)
        dc = derive_constants(ref_params)
        u = rng.uniform(-0.9 * dc.u_max, 0.9 * dc.u_max, size=64)
        lam, dlam, _ = conformal_factor_derivatives(ref_params, u)
        rhs = -ref_params.c1 + ref_params.c2 * lam**2 + 2 * ref_params.b**2 * lam**4
        assert np.max(np.abs(dlam**2 - rhs) / np.maximum(1.0, lam**4)) < 1e-9

    def test_second_ode_identity(self):
        for p in sweep_params():
            dc = derive_constants(p)
            u = np.linspace(-0.9 * dc.u_max, 0.9 * dc.u_max, 50)
            lam, dlam, d2lam = conformal_factor_derivatives(p, u)
            lhs = d2lam * lam - dlam**2
            rhs = p.c1 + 2.0 * p.b**2 * lam**4
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-9

    def test_central_difference_consistency(self, ref_params):
        h = 1e-5
        for u in (-0.6, 0.2, 0.45):
            lam_p = conformal_factor(ref_params, u + h)
            lam_m = conformal_factor(ref_params, u - h)
            _, dlam, d2lam = conformal_factor_derivatives(ref_params, u)
            assert (lam_p - lam_m) / (2 * h) == pytest.approx(dlam, abs=5e-8)
            lam_0 = conformal_factor(ref_params, u)
            assert (lam_p - 2 * lam_0 + lam_m) / h**2 == pytest.approx(d2lam, abs=5e-4)


class TestGaussianCurvature:
    def test_reference_spot_value(self, ref_params):
        assert gaussian_curvature(ref_params, 0.0) == pytest.approx(
            -13.0 / 36.0, abs=1e-13
        )

    def test_strictly_below_bound(self):
        for p in sweep_params():
            dc = derive_constants(p)
            u = np.linspace(-0.95 * dc.u_max, 0.95 * dc.u_max, 50)
            curv = gaussian_curvature(p, u)
            assert np.all(curv < -2.0 * p.b**2)

    def test_even_and_deepest_at_zero(self, ref_params):
        u = np.linspace(0.0, 1.0, 30)
        kp = gaussian_curvature(ref_params, u)
        km = gaussian_curvature(ref_params, -u)
        assert np.max(np.abs(kp - km)) < 1e-12
        assert np.argmin(np.abs(kp)) == len(u) - 1  # approaches -2 b^2 outward

    def test_against_derivative_formula(self, ref_params):
        rng = np.random.default_rng(11)
        dc = derive_constants(ref_params)
        u = rng.uniform(-0.9 * dc.u_max, 0.9 * dc.u_max, size=50)
        lam, dlam, d2lam = conformal_factor_derivatives(ref_params, u)
        kd = (-lam * d2lam + dlam**2) / lam**4
        assert np.max(np.abs(gaussian_curvature(ref_params, u) - kd)) < 1e-9

    def test_three_way_agreement_on_domain_grid(self):
        # (a) closed form, (b) analytic derivatives, (c) 4th-order finite
        # differences of -(log lambda)''/lambda^2 with a per-point step
        for p in sweep_params()[::4]:
            dc = derive_constants(p)
            u = np.linspace(-0.95 * dc.u_max, 0.95 * dc.u_max, 100)
            ka = gaussian_curvature(p, u)
            lam, dlam, d2lam = conformal_factor_derivatives(p, u)
            kb = (-lam * d2lam + dlam**2) / lam**4
            kc = np.empty_like(u)
            for i, ui in enumerate(u):
                h = min(0.01 * (dc.u_max - abs(ui)), 0.002 * dc.u_max)
                stencil = np.log(
                    conformal_factor(p, ui + h * np.array([-2, -1, 0, 1, 2]))
                )
                dd = (
                    -stencil[0] + 16 * stencil[1] - 30 * stencil[2] + 16 * stencil[3] - stencil[4]
                ) / (12 * h * h)
                kc[i] = -dd / lam[i] ** 2
            assert np.max(np.abs(ka - kb)) < 1e-7
            assert np.max(np.abs(ka - kc)) < 1e-7
            assert np.max(np.abs(kb - kc)) < 1e-7


class TestTheta:
    def test_zero(self, ref_params):
        assert theta(ref_params, 0.0) == 0.0

    def test_cosine_relation(self, ref_params):
        rng = np.random.default_rng(3)
        dc = derive_constants(ref_params)
        u = rng.uniform(-0.95 * dc.u_max, 0.95 * dc.u_max, size=80)
        ang = theta(ref_params, u)
        lam = conformal_factor(ref_params, u)
        assert np.max(np.abs(np.cos(ang) - math.sqrt(dc.lambda_plus) / lam)) < 1e-10

    def test_amplitude_equation_by_central_differences(self, ref_params):
        dc = derive_constants(ref_params)
        h = 1e-5
        sqrt_disc = math.sqrt(dc.disc)
        for u in (-0.8, -0.1, 0.33, 0.7):
            dth = (theta(ref_params, u + h) - theta(ref_params, u - h)) / (2 * h)
            rhs = sqrt_disc - 0.5 * (ref_params.c2 + sqrt_disc) * math.sin(
                theta(ref_params, u)
            ) ** 2
            assert abs(dth**2 - rhs) < 1e-8

    def test_odd(self, ref_params):
        u = np.linspace(0.0, 1.0, 20)
        assert np.max(np.abs(theta(ref_params, u) + theta(ref_params, -u))) < 1e-12


class TestOdeResidual:
    def test_zero_at_minimum(self, ref_params):
        assert abs(ode_residual(ref_params, 0.0)) < 1e-13

    def test_reference_point(self, ref_params):
        lam = conformal_factor(ref_params, 0.3)
        assert abs(ode_residual(ref_params, 0.3)) < 1e-9 * max(1.0, lam**4)

    def test_near_pole_precision(self):
        for p in sweep_params():
            dc = derive_constants(p)
            u = 0.99 * dc.u_max
            lam = conformal_factor(p, u)
            assert abs(ode_residual(p, u)) < 1e-8 * lam**4

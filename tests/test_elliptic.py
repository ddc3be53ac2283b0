import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk, ellipkinc

from ricci_liouville import (
    DomainError,
    Modulus,
    complete_elliptic_k,
    incomplete_elliptic_f,
    jacobi_am,
    jacobi_sn_cn_dn,
)

from helpers import amplitude_ode_oracle

K_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]


def quadrature_quarter_period(k):
    val, err = quad(
        lambda t: 1.0 / math.sqrt(1.0 - k * k * math.sin(t) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 1e-12
    return val


class TestModulus:
    def test_accepts_closed_interval(self):
        assert Modulus(0.0).k == 0.0
        assert Modulus(1.0).k == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, 2.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Modulus(bad)

    def test_complement(self):
        assert Modulus(0.6).complement == pytest.approx(0.8, abs=1e-15)
        assert Modulus(0.0).complement == 1.0
        assert Modulus(1.0).complement == 0.0


class TestCompleteEllipticK:
    def test_zero_modulus_is_pi_over_two(self):
        assert complete_elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_half_parameter_against_quadrature(self):
        k = math.sqrt(0.5)
        assert complete_elliptic_k(k) == pytest.approx(
            quadrature_quarter_period(k), abs=1e-12
        )

    def test_k09_agm_identity_and_quadrature(self):
        # independent AGM evaluated inline, plus the quadrature oracle
        a, b = 1.0, math.sqrt(1.0 - 0.81)
        for _ in range(40):
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        assert complete_elliptic_k(0.9) == pytest.approx(math.pi / (2 * a), abs=1e-14)
        assert complete_elliptic_k(0.9) == pytest.approx(
            quadrature_quarter_period(0.9), abs=1e-12
        )

    def test_monotone_in_k(self):
        vals = [complete_elliptic_k(k) for k in K_GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_unit_modulus(self):
        with pytest.raises(DomainError):
            complete_elliptic_k(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            complete_elliptic_k(1.5)


class TestAmplitude:
    @pytest.mark.parametrize("u", [-2.0, 0.5, 3.0])
    def test_zero_modulus_degeneration(self, u):
        assert jacobi_am(u, 0.0) == pytest.approx(u, abs=1e-14)

    @pytest.mark.parametrize("k", K_GRID)
    def test_initial_condition(self, k):
        assert jacobi_am(0.0, k) == 0.0

    def test_against_ode_integration(self):
        assert jacobi_am(1.0, 0.5) == pytest.approx(
            amplitude_ode_oracle(1.0, 0.5), abs=1e-10
        )

    def test_unit_modulus_gudermannian(self):
        u = 0.8
        assert jacobi_am(u, 1.0) == pytest.approx(2 * math.atan(math.e**u) - math.pi / 2, abs=1e-14)

    @pytest.mark.parametrize("k", [0.3, 0.7, 0.99])
    def test_strictly_increasing(self, k):
        u = np.linspace(-8.0, 8.0, 400)
        vals = jacobi_am(u, k)
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("k", [0.2, 0.8])
    def test_derivative_is_dn(self, k):
        h = 1e-4
        for u in (-2.3, 0.4, 1.7):
            fd = (jacobi_am(u + h, k) - jacobi_am(u - h, k)) / (2 * h)
            _, _, dn = jacobi_sn_cn_dn(u, k)
            assert abs(fd - dn) < 10 * h * h


# relative accuracy means nothing for subnormal amplitudes
AMPLITUDES = st.floats(min_value=0.0, max_value=math.pi / 2.0, allow_subnormal=False)
MODULI = st.floats(min_value=0.0, max_value=1.0 - 1e-6)
# k = n / 2^26 has an exact square, so SciPy's parameter m = k^2 is the same modulus
EXACT_SQUARE_MODULI = st.integers(min_value=0, max_value=int((1.0 - 1e-4) * 2**26)).map(
    lambda n: n / 2**26
)


class TestIncompleteEllipticF:
    @settings(max_examples=300, deadline=None)
    @given(phi=AMPLITUDES, k=EXACT_SQUARE_MODULI)
    def test_matches_scipy_ellipkinc(self, phi, k):
        ref = ellipkinc(phi, k * k)
        assert abs(incomplete_elliptic_f(phi, k) - ref) <= 1e-14 * ref

    @settings(max_examples=300, deadline=None)
    @given(phi=AMPLITUDES, k=MODULI)
    def test_inverts_the_amplitude(self, phi, k):
        assert abs(jacobi_am(incomplete_elliptic_f(phi, k), k) - phi) <= 1e-14 * phi

    @settings(max_examples=100, deadline=None)
    @given(k=MODULI)
    def test_quarter_amplitude_gives_quarter_period(self, k):
        quarter = complete_elliptic_k(k)
        assert incomplete_elliptic_f(math.pi / 2.0, k) == pytest.approx(quarter, rel=1e-14)

    def test_zero_modulus_is_identity(self):
        assert incomplete_elliptic_f(1.25, 0.0) == 1.25

    @pytest.mark.parametrize(
        "phi, k",
        [(-1e-3, 0.5), (math.pi / 2.0 + 1e-12, 0.5), (math.nan, 0.5), (1.0, 1.0), (1.0, 1.5)],
    )
    def test_domain_errors(self, phi, k):
        with pytest.raises(DomainError):
            incomplete_elliptic_f(phi, k)


class TestSnCnDn:
    @pytest.mark.parametrize("k", K_GRID + [1.0])
    def test_initial_values(self, k):
        assert jacobi_sn_cn_dn(0.0, k) == (0.0, 1.0, 1.0)

    def test_zero_modulus_is_circular(self):
        sn, cn, dn = jacobi_sn_cn_dn(1.2, 0.0)
        assert cn == pytest.approx(math.cos(1.2), abs=1e-15)
        assert sn == pytest.approx(math.sin(1.2), abs=1e-15)
        assert dn == 1.0

    def test_unit_modulus_is_hyperbolic(self):
        sn, cn, dn = jacobi_sn_cn_dn(1.0, 1.0)
        sech1 = 1.0 / math.cosh(1.0)
        assert cn == pytest.approx(sech1, abs=1e-14)
        assert cn == pytest.approx(0.6480543, abs=1e-7)
        # cross-check against the amplitude ODE at k = 1
        assert cn == pytest.approx(math.cos(amplitude_ode_oracle(1.0, 1.0)), abs=1e-10)
        assert sn == pytest.approx(math.tanh(1.0), abs=1e-14)
        assert dn == pytest.approx(sech1, abs=1e-14)

    @pytest.mark.parametrize("k", K_GRID)
    def test_pythagorean_identities(self, k):
        span = 3.0 * complete_elliptic_k(k)
        u = np.linspace(-span, span, 211)
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        assert np.max(np.abs(sn**2 + cn**2 - 1.0)) < 1e-12
        assert np.max(np.abs(dn**2 + k * k * sn**2 - 1.0)) < 1e-12

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    def test_cn_derivative_identity(self, k):
        h = 1e-4
        for u in (-1.1, 0.3, 2.6):
            fd = (jacobi_sn_cn_dn(u + h, k)[1] - jacobi_sn_cn_dn(u - h, k)[1]) / (2 * h)
            sn, _, dn = jacobi_sn_cn_dn(u, k)
            assert abs(fd + sn * dn) < 10 * h * h

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.8, 0.99])
    def test_periodicity(self, k):
        quarter = complete_elliptic_k(k)
        u = np.linspace(-2.0, 2.0, 41)
        _, cn0, _ = jacobi_sn_cn_dn(u, k)
        _, cn4, _ = jacobi_sn_cn_dn(u + 4.0 * quarter, k)
        assert np.max(np.abs(cn4 - cn0)) < 1e-10

    @pytest.mark.parametrize("k", [0.2, 0.6, 0.95])
    def test_parity(self, k):
        u = np.linspace(0.0, 5.0, 101)
        sn_p, cn_p, dn_p = jacobi_sn_cn_dn(u, k)
        sn_m, cn_m, dn_m = jacobi_sn_cn_dn(-u, k)
        assert np.max(np.abs(sn_p + sn_m)) < 1e-12
        assert np.max(np.abs(cn_p - cn_m)) < 1e-12
        assert np.max(np.abs(dn_p - dn_m)) < 1e-12

    @pytest.mark.parametrize("k", [0.05, 0.35, 0.65, 0.95])
    def test_against_scipy(self, k):
        u = np.linspace(-7.0, 7.0, 173)
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        sn_s, cn_s, dn_s, _ = ellipj(u, k * k)
        assert np.max(np.abs(sn - sn_s)) < 1e-12
        assert np.max(np.abs(cn - cn_s)) < 1e-12
        assert np.max(np.abs(dn - dn_s)) < 1e-12
        assert complete_elliptic_k(k) == pytest.approx(ellipk(k * k), abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(min_value=-10.0, max_value=10.0),
    k=st.floats(min_value=0.0, max_value=0.99),
)
def test_identities_hold_for_random_arguments(u, k):
    sn, cn, dn = jacobi_sn_cn_dn(u, k)
    assert abs(sn * sn + cn * cn - 1.0) < 1e-12
    assert abs(dn * dn + k * k * sn * sn - 1.0) < 1e-12
    assert jacobi_am(0.0, k) == 0.0

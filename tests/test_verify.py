import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_liouville import (
    ConvergenceError,
    MetricParams,
    NormalizationFit,
    NotInFamilyError,
    ParameterError,
    conformal_factor,
    derive_constants,
    estimate_order,
    fit_normalization,
    gaussian_curvature,
    grid_to_csv,
    in_family_verdict,
    refinement_rows,
    residual_floor,
    ricci_order_1d,
    ricci_residual_1d,
    ricci_residual_column,
)

from ricci_liouville.verify import ORDER_SAMPLES, RESIDUAL_UNDERFLOW, _orders

from helpers import (
    perturbed_metric_columns,
    reference_full_grid,
    reference_grid_csv,
    ricci_condition_4th_order_oracle,
    sweep_params,
)


def constant_curvature_columns(u, b_tilde):
    """Negative control: lambda = 1/(b~ u) on u > 0 has constant K = -b~^2."""
    lam = 1.0 / (b_tilde * u)
    return lam, np.full_like(lam, -b_tilde * b_tilde)


def max_residual(lam, curv, b, h):
    return float(np.max(np.abs(ricci_residual_column(lam, curv, b, h))))


def study(p, u_lo, u_hi, sizes):
    """refinement_rows of the one triple p: (maxima, order, lambda, K, residual), or its error."""
    result = refinement_rows([(p.b, p.c1, p.c2)], u_lo, u_hi, sizes)[0]
    if isinstance(result, Exception):
        raise result
    return result


def halvings(n, levels):
    """Node counts of n nodes and levels - 1 halvings of the spacing."""
    return [(n - 1) * 2**lev + 1 for lev in range(levels)]


def refined_order(p, n, levels):
    """Convergence order of the residual on [-0.5, 0.5] from n nodes over ``levels`` levels."""
    return study(p, -0.5, 0.5, halvings(n, levels))[1]


def nodes(grid):
    """The u- and v-nodes of a grid (u_lo, u_hi, v_lo, v_hi, nu, nv)."""
    u_lo, u_hi, v_lo, v_hi, nu, nv = grid
    return np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv)


def full_fields(nv, lam, curv, res):
    """u-columns copied along v: len(lam) x nv lambda, K and residual (NaN when trimmed)."""
    shape = (len(lam), nv)
    full_res = np.full(shape, np.nan)
    full_res[1:-1, 1:-1] = res[:, None]
    return (np.broadcast_to(lam[:, None], shape), np.broadcast_to(curv[:, None], shape),
            full_res)


class TestSampleGrid:
    """The first-level columns refinement_rows returns."""

    def test_trivial_two_by_two(self, ref_params, monkeypatch):
        # a level too small for the stencil, at any place in ``sizes``, fails
        # the call before anything is sampled
        def no_sampling(*_):
            raise AssertionError("sampled a grid too small for the stencil")

        monkeypatch.setattr("ricci_liouville.verify._factor_rows", no_sampling)
        for sizes, n in (([2], 2), ([11, 4], 4)):
            with pytest.raises(ParameterError, match=f"levels of at least 5 nodes, got {n}$"):
                study(ref_params, -0.1, 0.1, sizes)

    @pytest.mark.parametrize(
        "u_hi, sizes, spacing",
        [(1e-200, [11, 21], 1e-201), (1e-160, [5], 2.5e-161), (1.2e-153, [5, 9, 17], 7.5e-155)],
        ids=["zero-square", "subnormal-square", "finest-level"],
    )
    def test_spacing_square_must_be_normal(self, ref_params, monkeypatch, u_hi, sizes, spacing):
        # a level whose h * h is subnormal or 0 fails the call before anything
        # is sampled, naming the first such spacing
        def no_sampling(*_):
            raise AssertionError("sampled a grid too fine for the stencil")

        monkeypatch.setattr("ricci_liouville.verify._factor_rows", no_sampling)
        with pytest.raises(ParameterError) as info:
            study(ref_params, 0.0, u_hi, sizes)
        assert str(info.value) == (
            f"the residual stencil needs a spacing whose square is at least "
            f"{sys.float_info.min!r}, got spacing {spacing!r}"
        )

    def test_normal_spacing_square_is_evaluated(self, ref_params):
        # h = 3e-154 and 1.5e-154 square to normal floats: both levels run,
        # with no warning from the stencil's division
        maxima, *_ = refinement_rows(
            [(ref_params.b, ref_params.c1, ref_params.c2)], 0.0, 1.2e-153, [5, 9]
        )[0]
        assert len(maxima) == 2 and all(map(math.isfinite, maxima))

    def test_symmetric_about_middle_column(self, ref_params):
        _, _, lam, _, res = study(ref_params, -0.5, 0.5, [101, 201])
        assert lam.shape == (101,) and res.shape == (99,)
        assert np.max(np.abs(lam - lam[::-1])) < 1e-12

    def test_curvature_bounds(self, ref_params):
        curv = study(ref_params, -0.5, 0.5, [21, 41])[3]
        assert np.all(np.isfinite(curv))
        assert np.all(curv < -2.0 * ref_params.b**2)

    def test_rejects_grid_outside_domain(self, ref_params):
        dc = derive_constants(ref_params)
        with pytest.raises(ParameterError, match="inside"):
            study(ref_params, -dc.u_max, dc.u_max, [11])


class TestRicciResidualGrid:
    def test_reference_residual_small(self, ref_params):
        assert study(ref_params, -0.5, 0.5, [101, 201])[0][0] < 1e-3

    def test_residual_field_stored_with_trimmed_boundary(self, ref_params):
        (top, _), _, lam, curv, res = study(ref_params, -0.5, 0.5, [11, 21])
        assert res.shape == (9,) and np.all(np.isfinite(res))
        assert float(np.max(np.abs(res))) == top
        u, v = nodes((-0.5, 0.5, -0.5, 0.5, 11, 11))
        lines = grid_to_csv(u, v, lam, curv, res).decode("ascii").split("\r\n")
        for i in range(11):  # the first and last u rows carry no residual
            assert (lines[1 + 11 * i + 5].split(",")[4] == "") == (i in (0, 10))

    def test_requires_five_by_five(self, ref_params):
        with pytest.raises(ParameterError, match="levels of at least 5 nodes, got 4$"):
            study(ref_params, -0.1, 0.1, halvings(4, 2))

    def test_negative_control_stays_positive(self):
        for n in (41, 81):
            columns = constant_curvature_columns(np.linspace(1.0, 2.0, n), 1.0)
            assert max_residual(*columns, 0.5, 1.0 / (n - 1)) == pytest.approx(2.0, rel=1e-9)

    def test_refinement_quarters_residual(self, ref_params):
        r1, r2 = study(ref_params, -0.5, 0.5, [51, 101])[0]
        assert 3.4 < r1 / r2 < 4.6

    def test_rejects_curvature_above_bound(self):
        columns = constant_curvature_columns(np.linspace(1.0, 2.0, 11), 1.0)
        with pytest.raises(NotInFamilyError, match="u-sample 0;") as err:
            # -2 b^2 = -2 < K = -1
            ricci_residual_column(*columns, 1.0, 0.1)
        assert err.value.index == 0


class TestConvergenceOrder:
    def test_reference_order_two(self, ref_params):
        order = refined_order(ref_params, 51, 3)  # h = 0.02, refined to 0.005
        assert 1.8 <= order <= 2.2

    def test_two_levels_matches_log2_formula(self, ref_params):
        r1 = reference_full_grid(ref_params, np.linspace(-0.5, 0.5, 51), 51)[3]
        r2 = reference_full_grid(ref_params, np.linspace(-0.5, 0.5, 101), 101)[3]
        order = refined_order(ref_params, 51, 2)
        assert order == pytest.approx(math.log2(r1 / r2), abs=1e-12)

    def test_levels_validation(self, ref_params):
        with pytest.raises(ConvergenceError, match="fewer than 2 levels"):
            refined_order(ref_params, 51, 1)

    def test_underflow_levels_excluded(self):
        assert estimate_order([0.02, 0.01, 0.005], [4e-4, 1e-4, 1e-20]) == pytest.approx(
            2.0, abs=1e-12
        )
        with pytest.raises(ConvergenceError):
            estimate_order([0.02, 0.01], [1e-20, 1e-20])

    @settings(max_examples=100, deadline=None)
    @given(
        levels=st.integers(1, 5),
        rows=st.integers(1, 8),
        data=st.data(),
    )
    def test_rows_fitted_together_keep_each_fit_bits(self, levels, rows, data):
        # one fit per row: the least-squares slope over the levels above the floor
        spacings = st.floats(1e-4, 0.5).map(lambda h: float(f"{h:.3g}"))
        hs = data.draw(st.lists(spacings, min_size=levels, max_size=levels, unique=True))
        residual = st.one_of(st.floats(1e-12, 10.0), st.sampled_from([1e-20, 0.0]))
        rs = [data.draw(st.lists(residual, min_size=levels, max_size=levels))
              for _ in range(rows)]
        for got, r in zip(_orders(hs, rs), rs):
            keep = np.asarray(r) > RESIDUAL_UNDERFLOW
            if np.count_nonzero(keep) < 2:
                assert isinstance(got, ConvergenceError)
                continue
            want = np.polyfit(np.log(np.asarray(hs)[keep]), np.log(np.asarray(r)[keep]), 1)[0]
            assert got == float(want) and estimate_order(hs, r) == got

    def test_perturbed_metric_plateaus(self, ref_params):
        hs = [1.0 / (n - 1) for n in halvings(51, 3)]
        rs = [
            max_residual(*perturbed_metric_columns(ref_params, np.linspace(-0.5, 0.5, n)),
                         ref_params.b, h)
            for n, h in zip(halvings(51, 3), hs)
        ]
        assert abs(estimate_order(hs, rs)) < 0.5


class TestRicciResidual1d:
    def test_order_two_on_closed_form(self, ref_params):
        u = np.arange(-0.4, 0.4 + 1e-12, 0.005)
        lam = conformal_factor(ref_params, u)
        order, maxima = ricci_order_1d(np.log(lam), ref_params.b, 0.005)
        assert 1.8 <= order <= 2.2
        assert maxima[0] < maxima[1] < maxima[2]

    def test_matches_grid_on_fixed_row(self, ref_params):
        # feed the column kernel the same finite-difference curvature and
        # lambda = e^phi the 1-d path derives: the rows agree bit for bit
        u = np.arange(-0.4, 0.4 + 1e-12, 0.04)
        h = (u[-2] - u[1]) / (len(u) - 3)  # both paths divide by the grid's own spacing
        lam = conformal_factor(ref_params, u)
        phi = np.log(lam)
        res_1d = ricci_residual_1d(phi, ref_params.b, h)

        curv_fd = -((phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)) * np.exp(-2 * phi[1:-1])
        column = ricci_residual_column(np.exp(phi[1:-1]), curv_fd, ref_params.b, h)
        assert np.array_equal(column, res_1d)

    def test_flat_metric_rejected(self):
        with pytest.raises(NotInFamilyError, match="sampled resolution"):
            ricci_residual_1d(np.zeros(21), 0.5, 0.1)

    def test_reports_offending_index(self):
        phi = np.log(1.0 / np.cosh(np.linspace(-1, 1, 21)))  # sphere: K = +1
        with pytest.raises(NotInFamilyError) as err:
            ricci_residual_1d(phi, 0.5, 0.1)
        assert err.value.index == 1

    def test_needs_seven_samples(self):
        with pytest.raises(ParameterError):
            ricci_residual_1d(np.zeros(6), 0.5, 0.1)

    def test_order_needs_order_samples(self, ref_params):
        # stride 4 must leave the 7 samples of the 1-d stencil: 6 * 4 + 1
        assert ORDER_SAMPLES == 25
        phi = np.log(conformal_factor(ref_params, np.linspace(-0.3, 0.3, 25)))
        order, maxima = ricci_order_1d(phi, ref_params.b, 0.025)
        assert len(maxima) == 3 and 1.8 <= order <= 2.2
        with pytest.raises(ParameterError, match="need at least 25 samples for stride 4"):
            ricci_order_1d(phi[:24], ref_params.b, 0.025)


    @pytest.mark.parametrize("h", [1e-154, 1e-170], ids=["subnormal-square", "zero-square"])
    def test_spacing_square_must_be_normal(self, ref_params, h):
        phi = np.log(conformal_factor(ref_params, np.linspace(-0.3, 0.3, 25)))
        message = (f"the residual stencil needs a spacing whose square is at least "
                   f"{sys.float_info.min!r}, got spacing {h!r}")
        with pytest.raises(ParameterError, match=re.escape(message)):
            ricci_order_1d(phi, ref_params.b, h)
        with pytest.raises(ParameterError, match=re.escape(message)):
            fit_normalization(np.exp(phi), ref_params.b, h)


class TestFitNormalization:
    def test_reference_member_constants(self, ref_params):
        h = 1e-3
        u = np.arange(-0.4, 0.4 + 1e-12, h)
        lam = conformal_factor(ref_params, u)
        fit = fit_normalization(lam, ref_params.b, h)
        assert abs(fit.c2_fit) < 10 * h * h
        assert abs(fit.c1_fit - 1.0) < 1e-4  # sqrt(c1) = 1 here
        assert fit.max_affine_residual < 1e-4

    def test_multiplicative_constant_is_sqrt_c1(self):
        p = MetricParams(b=0.5, c1=4.0, c2=0.0)
        h = 1e-3
        u = np.arange(-0.3, 0.3 + 1e-12, h)
        lam = conformal_factor(p, u)
        fit = fit_normalization(lam, p.b, h)
        assert fit.c1_fit == pytest.approx(2.0, abs=1e-4)
        assert abs(fit.c2_fit) < 10 * h * h

    def test_perturbed_samples_do_not_pass(self, ref_params):
        residuals = []
        for h in (0.004, 0.002):
            u = np.arange(-0.4, 0.4 + 1e-12, h)
            lam = conformal_factor(ref_params, u) * (1.0 + 0.01 * u**2)
            residuals.append(
                fit_normalization(lam, ref_params.b, h).max_affine_residual
            )
        assert residuals[0] / residuals[1] < 2.0  # no O(h^2) shrink

    def test_nonzero_slope_oracle_recovered(self):
        # integrate the 4th-order form of the curvature condition with
        # initial data giving affine slope F'(0) = 2 phi'(0) = 0.2
        b = 0.5
        y0 = (0.0, 0.1, 1.0, 0.2)  # W(0) = 0.5, W'(0) = 0
        h = 1e-3
        u, phi = ricci_condition_4th_order_oracle(b, y0, 0.3, h)
        fit = fit_normalization(np.exp(phi), b, h, u0=float(u[0]))
        assert fit.c2_fit == pytest.approx(0.2, abs=1e-3)
        assert fit.max_affine_residual < 1e-5
        # the same solution passes the pointwise residual at second order
        # (coarser sampling keeps the double stencil above rounding noise)
        u_c, phi_c = ricci_condition_4th_order_oracle(b, y0, 0.3, 0.01)
        order, _ = ricci_order_1d(phi_c, b, 0.01)
        assert 1.8 <= order <= 2.2

    def test_needs_seven_samples(self):
        with pytest.raises(ParameterError, match="need at least 7 lambda samples"):
            fit_normalization(np.ones(6), 0.5, 0.1)

    @pytest.mark.parametrize("c1_fit", [0.0, -1.0])
    def test_fitted_constant_must_be_positive(self, c1_fit):
        with pytest.raises(ParameterError, match="fitted multiplicative constant must be positive"):
            NormalizationFit(c1_fit=c1_fit, c2_fit=0.0, max_affine_residual=0.0)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ParameterError):
            fit_normalization(np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.5, 0.1)


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
@pytest.mark.parametrize("fn", [ricci_residual_1d, fit_normalization])
def test_stencil_spacing_must_be_finite_and_positive(ref_params, fn, h):
    lam = conformal_factor(ref_params, np.linspace(-0.3, 0.3, 41))
    samples = np.log(lam) if fn is ricci_residual_1d else lam
    with pytest.raises(ParameterError, match="spacing h must be finite and positive"):
        fn(samples, ref_params.b, h)


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("fn", [ricci_residual_1d, fit_normalization])
def test_b_must_be_finite_and_positive(ref_params, fn, b):
    lam = conformal_factor(ref_params, np.linspace(-0.3, 0.3, 41))
    samples = np.log(lam) if fn is ricci_residual_1d else lam
    with pytest.raises(ParameterError, match="b must be finite and positive"):
        fn(samples, b, 0.015)


class TestVerdictAndExport:
    def test_verdict_rule(self):
        assert residual_floor(0.01) == 10.0 * 0.01 * 0.01 and residual_floor(1e-4) == 1e-6
        assert in_family_verdict(1e-7, 2.0, 0.01)
        assert not in_family_verdict(residual_floor(0.01), 2.0, 0.01)
        assert not in_family_verdict(1e-2, 2.0, 0.01)
        assert not in_family_verdict(1e-7, 1.0, 0.01)

    def test_csv_round_trip(self, ref_params):
        _, _, lam, curv, res = study(ref_params, -0.2, 0.2, [5, 9])
        text = grid_to_csv(*nodes((-0.2, 0.2, -0.2, 0.2, 5, 5)), lam, curv, res).decode("ascii")
        lines = text.strip().split("\r\n")
        assert lines[0] == "u,v,lambda,K,residual"
        assert len(lines) == 1 + 25
        cells = lines[1].split(",")
        assert len(cells) == 5 and cells[4] == ""  # corner: no residual
        centre = lines[1 + 12].split(",")  # row 2, col 2 interior
        assert float(centre[2]) == pytest.approx(
            conformal_factor(ref_params, float(centre[0])), rel=1e-15
        )
        assert centre[4] != ""

    def test_csv_traced_memory_stays_near_its_output(self, ref_params):
        # each u-row's text goes straight into the output buffer: no list of
        # rows is held next to the joined result
        _, _, lam, curv, res = study(ref_params, -0.4, 0.4, [321, 641])
        u, v = nodes((-0.4, 0.4, -0.4, 0.4, 321, 321))
        tracemalloc.start()
        try:
            size = len(grid_to_csv(u, v, lam, curv, res))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * size


def test_sweep_invariant_order_two_everywhere():
    for p in sweep_params()[::5]:
        order = refined_order(p, 26, 3)  # h = 0.04, three levels to 0.01
        assert 1.8 <= order <= 2.2, (p, order)


ORACLE_TRIPLES = [
    MetricParams(b=1.0 / math.sqrt(6.0), c1=1.0, c2=-11.0 / 6.0),
    MetricParams(b=0.5, c1=4.0, c2=3.0),
    MetricParams(b=1.0, c1=0.25, c2=-2.0),
]
# (u_lo, u_hi, v_lo, v_hi, nu, nv) with square cells
ORACLE_GRIDS = [
    (-0.2, 0.2, -0.2, 0.2, 5, 5),
    (-0.4, 0.4, 0.0, 0.24, 21, 7),
    (-0.5, 0.5, -0.5, 0.5, 101, 101),
]


class TestColumnGridMatchesFullGrid:
    """The first-level columns of refinement_rows against the full-grid arithmetic."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g[4]}x{g[5]}")
    @pytest.mark.parametrize("p", ORACLE_TRIPLES, ids=["ref", "b.5c4", "b1c.25"])
    def test_bit_identical_fields_residual_and_csv(self, p, grid):
        u, v = nodes(grid)
        lam, curv, res, max_res = reference_full_grid(p, u, len(v))
        (got, _), _, *columns = study(p, grid[0], grid[1], halvings(len(u), 2))
        assert got.hex() == max_res.hex()
        got_lam, got_curv, got_res = full_fields(len(v), *columns)
        assert np.array_equal(got_lam, lam)
        assert np.array_equal(got_curv, curv)
        assert np.array_equal(got_res, res, equal_nan=True)
        assert grid_to_csv(u, v, *columns) == reference_grid_csv(u, v, lam, curv, res).encode()

    @pytest.mark.parametrize("p", ORACLE_TRIPLES, ids=["ref", "b.5c4", "b1c.25"])
    def test_csv_on_three_columns(self, p):
        # one interior v-column: the first and last v carry no residual
        u, v = nodes((-0.3, 0.3, 0.0, 0.1, 13, 3))
        lam, curv, res, _ = reference_full_grid(p, u, 3)
        got = grid_to_csv(u, v, conformal_factor(p, u), gaussian_curvature(p, u), res[1:-1, 1])
        assert got == reference_grid_csv(u, v, lam, curv, res).encode()

    def test_full_fields_reduce_to_the_sampled_columns(self, ref_params):
        u, v = nodes(ORACLE_GRIDS[1])
        lam, curv, res, max_res = reference_full_grid(ref_params, u, len(v))
        assert np.array_equal(lam, np.broadcast_to(lam[:, :1], lam.shape))
        assert np.array_equal(curv, np.broadcast_to(curv[:, :1], curv.shape))
        _, _, got_lam, got_curv, _ = study(ref_params, -0.4, 0.4, [21, 41])
        assert np.array_equal(lam[:, 0], got_lam)
        assert np.array_equal(curv[:, 0], got_curv)
        assert max_residual(lam[:, 0], curv[:, 0], ref_params.b, (u[-1] - u[0]) / 20) == max_res

    def test_curvature_varying_along_v_rejected(self, ref_params):
        u, v = nodes(ORACLE_GRIDS[0])
        lam, curv, res, _ = reference_full_grid(ref_params, u, len(v))
        curv[2, 3] *= 1.5
        with pytest.raises(ParameterError, match=r"column shapes must equal \(5,\)"):
            grid_to_csv(u, v, lam, curv, res[1:-1, 2])
        with pytest.raises(ParameterError, match=r"column shapes must equal \(5,\)"):
            grid_to_csv(u, v, lam[:, 0], curv, res[1:-1, 2])

    def test_wrong_shape_rejected(self, ref_params):
        u, v = nodes(ORACLE_GRIDS[0])
        lam, curv, res, _ = reference_full_grid(ref_params, u, len(v))
        lam, curv, res = lam[:, 0], curv[:, 0], res[:, 2]
        for bad_v, bad_lam, bad_curv, bad_res in (
            (v, lam[:-1], curv[:-1], res[1:-1]), (v, lam, curv[1:], res[1:-1]),
            (v, lam[0], curv[0], res[1:-1]), (v, lam, curv, res), (v, lam, curv, None),
            (v[:1], lam, curv, res[1:-1]),
        ):
            with pytest.raises(ParameterError, match="column shapes"):
                grid_to_csv(u, bad_v, bad_lam, bad_curv, bad_res)


class TestRefinementStudy:
    """refinement_rows of one triple against a level-by-level loop."""

    def test_matches_level_by_level_loop(self, ref_params):
        sizes = halvings(26, 3)
        rs, order, _, _, res = study(ref_params, -0.5, 0.5, sizes)
        assert rs == [reference_full_grid(ref_params, np.linspace(-0.5, 0.5, n), n)[3]
                      for n in sizes]
        assert order == estimate_order([1.0 / (n - 1) for n in sizes], rs)
        assert res.shape == (24,) and np.max(np.abs(res)) == rs[0]

    def test_errors_surface_in_grid_order(self, ref_params, monkeypatch):
        # on [-2, 2] the domain check fails the row before any level is sampled
        def no_sampling(*_):
            raise AssertionError("sampled past the failing domain check")

        monkeypatch.setattr("ricci_liouville.verify._factor_rows", no_sampling)
        with pytest.raises(ParameterError, match="inside"):
            study(ref_params, -2.0, 2.0, [11, 21])

    def test_bad_bounds(self, ref_params):
        # a reversed or NaN interval fails the call, not one row
        for u_lo, u_hi in ((0.5, -0.5), (0.5, 0.5), (math.nan, 0.5), (-0.5, math.nan)):
            with pytest.raises(ParameterError, match="need u_lo < u_hi"):
                refinement_rows([(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0)], u_lo, u_hi, [11, 21])

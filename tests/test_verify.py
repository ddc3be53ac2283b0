import math

import numpy as np
import pytest

from ricci_liouville import (
    ConvergenceError,
    GridSpec,
    MetricGrid,
    MetricParams,
    NotInFamilyError,
    ParameterError,
    conformal_factor,
    derive_constants,
    estimate_order,
    fit_normalization,
    grid_to_csv,
    in_family_verdict,
    refinement_study,
    residual_floor,
    ricci_order_1d,
    ricci_residual_1d,
    ricci_residual_grid,
    sample_grid,
)

from helpers import (
    perturbed_metric_grid,
    reference_full_grid,
    reference_grid_csv,
    ricci_condition_4th_order_oracle,
    sweep_params,
)


def constant_curvature_grid(spec, b_tilde):
    """Negative control: lambda = 1/(b~ u) on u > 0 has constant K = -b~^2."""
    u = spec.u_nodes()
    lam = 1.0 / (b_tilde * u)
    curv = np.full_like(lam, -b_tilde * b_tilde)
    return MetricGrid(spec, lam, curv)


def refined_order(p, base, levels):
    """Convergence order of the residual over ``base`` and levels - 1 halvings of h."""
    return refinement_study(p, (base.refined(2**lev) for lev in range(levels)))[2]


def full_fields(grid):
    """The grid's columns copied along v: nu x nv lambda, K and residual (NaN when trimmed)."""
    shape = (grid.spec.nu, grid.spec.nv)
    lam = np.broadcast_to(grid.lambda_column[:, None], shape)
    curv = np.broadcast_to(grid.curvature_column[:, None], shape)
    if grid.ricci_residual_column is None:
        return lam, curv, None
    res = np.full(shape, np.nan)
    res[:, 1:-1] = grid.ricci_residual_column[:, None]
    return lam, curv, res


class TestGridSpec:
    def test_square_cells_required(self):
        with pytest.raises(ParameterError, match="square"):
            GridSpec(0.0, 1.0, 0.0, 2.0, 11, 11)

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 11, 11)

    def test_spacing_and_refinement(self):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11)
        assert g.h == pytest.approx(0.1, abs=1e-15)
        fine = g.refined(2)
        assert fine.nu == 21 and fine.h == pytest.approx(0.05, abs=1e-15)


class TestSampleGrid:
    def test_trivial_two_by_two(self, ref_params):
        g = sample_grid(ref_params, GridSpec(-0.1, 0.1, -0.1, 0.1, 2, 2))
        assert g.lambda_column.shape == g.curvature_column.shape == (2,)
        assert g.ricci_residual_column is None

    def test_symmetric_about_middle_column(self, ref_params):
        g = sample_grid(ref_params, GridSpec(-0.5, 0.5, -0.5, 0.5, 101, 101))
        assert np.max(np.abs(g.lambda_column - g.lambda_column[::-1])) < 1e-12

    def test_curvature_bounds(self, ref_params):
        g = sample_grid(ref_params, GridSpec(-0.5, 0.5, -0.5, 0.5, 21, 21))
        assert np.all(np.isfinite(g.curvature_column))
        assert np.all(g.curvature_column < -2.0 * ref_params.b**2)

    def test_rejects_grid_outside_domain(self, ref_params):
        dc = derive_constants(ref_params)
        with pytest.raises(ParameterError, match="inside"):
            sample_grid(ref_params, GridSpec(-dc.u_max, dc.u_max, -dc.u_max, dc.u_max, 11, 11))


class TestRicciResidualGrid:
    def test_reference_residual_small(self, ref_params):
        spec = GridSpec(-0.5, 0.5, -0.5, 0.5, 101, 101)
        res = ricci_residual_grid(sample_grid(ref_params, spec), ref_params.b)
        assert res < 1e-3

    def test_residual_field_stored_with_trimmed_boundary(self, ref_params):
        spec = GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11)
        grid = sample_grid(ref_params, spec)
        ricci_residual_grid(grid, ref_params.b)
        col = grid.ricci_residual_column
        assert col.shape == (11,)
        assert np.isnan(col[0]) and np.isnan(col[-1])
        assert np.all(np.isfinite(col[1:-1]))

    def test_requires_five_by_five(self, ref_params):
        grid = sample_grid(ref_params, GridSpec(-0.1, 0.1, -0.1, 0.1, 4, 4))
        with pytest.raises(ParameterError, match="5x5"):
            ricci_residual_grid(grid, ref_params.b)

    def test_negative_control_stays_positive(self):
        spec = GridSpec(1.0, 2.0, 0.0, 1.0, 41, 41)
        res = ricci_residual_grid(constant_curvature_grid(spec, 1.0), 0.5)
        assert res == pytest.approx(2.0, rel=1e-9)
        fine = ricci_residual_grid(constant_curvature_grid(spec.refined(2), 1.0), 0.5)
        assert fine == pytest.approx(2.0, rel=1e-9)

    def test_refinement_quarters_residual(self, ref_params):
        spec = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)
        r1 = ricci_residual_grid(sample_grid(ref_params, spec), ref_params.b)
        r2 = ricci_residual_grid(sample_grid(ref_params, spec.refined(2)), ref_params.b)
        assert 3.4 < r1 / r2 < 4.6

    def test_rejects_curvature_above_bound(self):
        spec = GridSpec(1.0, 2.0, 0.0, 1.0, 11, 11)
        grid = constant_curvature_grid(spec, 1.0)
        with pytest.raises(NotInFamilyError):
            ricci_residual_grid(grid, 1.0)  # -2 b^2 = -2 < K = -1


class TestConvergenceOrder:
    def test_reference_order_two(self, ref_params):
        base = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)  # h = 0.02, refined to 0.005
        order = refined_order(ref_params, base, 3)
        assert 1.8 <= order <= 2.2

    def test_two_levels_matches_log2_formula(self, ref_params):
        base = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)
        r1 = ricci_residual_grid(sample_grid(ref_params, base), ref_params.b)
        r2 = ricci_residual_grid(sample_grid(ref_params, base.refined(2)), ref_params.b)
        order = refined_order(ref_params, base, 2)
        assert order == pytest.approx(math.log2(r1 / r2), abs=1e-12)

    def test_levels_validation(self, ref_params):
        with pytest.raises(ConvergenceError, match="fewer than 2 levels"):
            refined_order(ref_params, GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51), 1)

    def test_underflow_levels_excluded(self):
        assert estimate_order([0.02, 0.01, 0.005], [4e-4, 1e-4, 1e-20]) == pytest.approx(
            2.0, abs=1e-12
        )
        with pytest.raises(ConvergenceError):
            estimate_order([0.02, 0.01], [1e-20, 1e-20])

    def test_perturbed_metric_plateaus(self, ref_params):
        hs, rs = [], []
        base = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)
        for lev in range(3):
            spec = base.refined(2**lev)
            rs.append(ricci_residual_grid(perturbed_metric_grid(ref_params, spec), ref_params.b))
            hs.append(spec.h)
        assert abs(estimate_order(hs, rs)) < 0.5


class TestRicciResidual1d:
    def test_order_two_on_closed_form(self, ref_params):
        u = np.arange(-0.4, 0.4 + 1e-12, 0.005)
        lam = conformal_factor(ref_params, u)
        order, maxima = ricci_order_1d(np.log(lam), ref_params.b, 0.005)
        assert 1.8 <= order <= 2.2
        assert maxima[0] < maxima[1] < maxima[2]

    def test_matches_grid_on_fixed_row(self, ref_params):
        # feed the grid the same finite-difference curvature and lambda = e^phi
        # the 1-d path derives; both run one kernel, so the rows agree bit for bit
        u = np.arange(-0.4, 0.4 + 1e-12, 0.04)
        nv = 5
        spec = GridSpec(u[1], u[-2], 0.0, (nv - 1) * 0.04, len(u) - 2, nv)
        h = spec.h  # both paths divide by the grid's own spacing
        lam = conformal_factor(ref_params, u)
        phi = np.log(lam)
        res_1d = ricci_residual_1d(phi, ref_params.b, h)

        curv_fd = -((phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)) * np.exp(-2 * phi[1:-1])
        grid = MetricGrid(spec, np.exp(phi[1:-1]), curv_fd)
        ricci_residual_grid(grid, ref_params.b)
        row = grid.ricci_residual_column[1:-1]
        assert np.array_equal(row, res_1d)

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
        spec = GridSpec(-0.2, 0.2, -0.2, 0.2, 5, 5)
        grid = sample_grid(ref_params, spec)
        ricci_residual_grid(grid, ref_params.b)
        text = grid_to_csv(grid)
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


def test_sweep_invariant_order_two_everywhere():
    base = GridSpec(-0.5, 0.5, -0.5, 0.5, 26, 26)  # h = 0.04, three levels to 0.01
    for p in sweep_params()[::5]:
        order = refined_order(p, base, 3)
        assert 1.8 <= order <= 2.2, (p, order)


ORACLE_TRIPLES = [
    MetricParams(b=1.0 / math.sqrt(6.0), c1=1.0, c2=-11.0 / 6.0),
    MetricParams(b=0.5, c1=4.0, c2=3.0),
    MetricParams(b=1.0, c1=0.25, c2=-2.0),
]
ORACLE_SPECS = [
    GridSpec(-0.2, 0.2, -0.2, 0.2, 5, 5),
    GridSpec(-0.4, 0.4, 0.0, 0.24, 21, 7),
    GridSpec(-0.5, 0.5, -0.5, 0.5, 101, 101),
]


class TestColumnGridMatchesFullGrid:
    """The column model against the full-grid arithmetic it replaced."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda g: f"{g.nu}x{g.nv}")
    @pytest.mark.parametrize("p", ORACLE_TRIPLES, ids=["ref", "b.5c4", "b1c.25"])
    def test_bit_identical_fields_residual_and_csv(self, p, spec):
        lam, curv, res, max_res = reference_full_grid(p, spec)
        grid = sample_grid(p, spec)
        got = ricci_residual_grid(grid, p.b)
        assert got.hex() == max_res.hex()
        got_lam, got_curv, got_res = full_fields(grid)
        assert np.array_equal(got_lam, lam)
        assert np.array_equal(got_curv, curv)
        assert np.array_equal(got_res, res, equal_nan=True)
        assert grid_to_csv(grid).encode() == reference_grid_csv(spec, lam, curv, res).encode()

    @pytest.mark.parametrize("p", ORACLE_TRIPLES, ids=["ref", "b.5c4", "b1c.25"])
    def test_csv_without_residual_on_three_columns(self, p):
        spec = GridSpec(-0.3, 0.3, 0.0, 0.1, 13, 3)
        lam, curv, _, _ = reference_full_grid(p, spec)
        grid = sample_grid(p, spec)
        assert grid.ricci_residual_column is None
        got_lam, got_curv, _ = full_fields(grid)
        assert np.array_equal(got_lam, lam) and np.array_equal(got_curv, curv)
        assert grid_to_csv(grid).encode() == reference_grid_csv(spec, lam, curv, None).encode()

    def test_full_fields_reduce_to_the_sampled_columns(self, ref_params):
        spec = ORACLE_SPECS[1]
        lam, curv, res, max_res = reference_full_grid(ref_params, spec)
        assert np.array_equal(lam, np.broadcast_to(lam[:, :1], lam.shape))
        assert np.array_equal(curv, np.broadcast_to(curv[:, :1], curv.shape))
        grid = MetricGrid(spec, lam[:, 0], curv[:, 0])
        sampled = sample_grid(ref_params, spec)
        assert np.array_equal(grid.lambda_column, sampled.lambda_column)
        assert np.array_equal(grid.curvature_column, sampled.curvature_column)
        assert ricci_residual_grid(grid, ref_params.b) == max_res

    def test_curvature_varying_along_v_rejected(self, ref_params):
        lam, curv, _, _ = reference_full_grid(ref_params, ORACLE_SPECS[0])
        curv[2, 3] *= 1.5
        with pytest.raises(ParameterError, match=r"column shapes must equal \(5,\)"):
            MetricGrid(ORACLE_SPECS[0], lam, curv)
        with pytest.raises(ParameterError, match=r"column shapes must equal \(5,\)"):
            MetricGrid(ORACLE_SPECS[0], lam[:, 0], curv)

    def test_wrong_shape_rejected(self, ref_params):
        lam, curv, _, _ = reference_full_grid(ref_params, ORACLE_SPECS[0])
        for bad_lam, bad_curv in ((lam[:-1, 0], curv[:-1, 0]), (lam[:, 0], curv[1:, 0]),
                                  (lam[0, 0], curv[0, 0])):
            with pytest.raises(ParameterError, match="column shapes"):
                MetricGrid(ORACLE_SPECS[0], bad_lam, bad_curv)


class TestRefinementStudy:
    def test_matches_level_by_level_loop(self, ref_params):
        base = GridSpec(-0.5, 0.5, -0.5, 0.5, 26, 26)
        specs = [base.refined(2**lev) for lev in range(3)]
        hs, rs, order, grid = refinement_study(ref_params, specs)
        assert hs == [s.h for s in specs]
        assert rs == [ricci_residual_grid(sample_grid(ref_params, s), ref_params.b) for s in specs]
        assert order == estimate_order(hs, rs)
        assert grid.spec == base and np.nanmax(np.abs(grid.ricci_residual_column)) == rs[0]

    def test_errors_surface_in_grid_order(self, ref_params):
        def specs():
            yield GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11)  # outside the domain
            raise AssertionError("consumed past the failing grid")

        with pytest.raises(ParameterError, match="inside"):
            refinement_study(ref_params, specs())

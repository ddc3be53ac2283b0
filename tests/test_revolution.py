import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ellipj

from ricci_liouville import (
    MetricParams,
    ParameterError,
    ProfileCurve,
    angle_defect_curvature,
    conformal_factor,
    conformal_factor_derivatives,
    derive_constants,
    embeddable_interval,
    gaussian_curvature,
    induced_metric_check,
    mesh_to_obj,
    RevolutionMesh,
    mesh_to_ply,
    metric_from_profile,
    profile_from_metric,
    tessellate,
)

from ricci_liouville import revolution
from ricci_liouville.revolution import _simpson_segments

from helpers import (
    arc_length_resample,
    log_uniform,
    reference_adaptive_simpson,
    reference_angle_defect,
    reference_exact_normal,
    reference_faces,
    reference_induced_metric_check,
    reference_metric_from_profile,
    reference_obj,
    reference_ply,
    reference_profile_x,
)


# Bounds of the angle defect against the long-double oracle, in units of
# the float64 eps: DEFECT_ERROR on k * area in units of 2 pi eps, plus
# 4 eps of the defect itself, whose sums round like their magnitude, and
# AREA_ERROR relative.  They need a long double wider than float64 (x87
# extended precision on x86-64 Linux).
EPS = float(np.finfo(float).eps)
WIDE_LONG_DOUBLE = float(np.finfo(np.longdouble).eps) < 1e-18
DEFECT_ERROR = 1.0
AREA_ERROR = 16.0


def euler_characteristic(mesh):
    edges = set()
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (c, a)):
            edges.add((min(e), max(e)))
    return len(mesh.vertices) - len(edges) + len(mesh.faces)


def sphere_profile_arrays(n=4001, s0=0.3):
    s = np.linspace(s0, math.pi - s0, n)
    return s, -np.cos(s), np.sin(s)


def cylinder(c, n):
    """Profile of the cylinder of radius c over u in [0, 1]: x = c u, y = c."""
    u = np.linspace(0.0, 1.0, n)
    return ProfileCurve(u, c * u, np.full(n, c))


def collapsed_cylinder(n, rows):
    """cylinder(2.0, n) with sample r + 1 a repeat of sample r's (x, y) for each r in rows.

    The quad row between the two samples then has zero area: the only way
    a mesh built from a profile gets zero-area triangles.
    """
    prof = cylinder(2.0, n)
    x = prof.x.copy()
    x[np.add(rows, 1)] = x[rows]
    return ProfileCurve(prof.u, x, prof.y)


def obj_normals(text):
    """The vn records of OBJ bytes as a (count, 3) float array."""
    rows = [line.split()[1:] for line in text.decode("ascii").splitlines() if line[:3] == "vn "]
    return np.array(rows, dtype=float)


def grid_rows(nv, *rows):
    """Vertex ids of the given grid rows of an nv-column mesh, ascending."""
    return np.concatenate([np.arange(r * nv, (r + 1) * nv) for r in sorted(rows)])


@pytest.fixture
def factor(monkeypatch):
    """Make profile_from_metric integrate lambda and lambda' given as array callables.

    They replace the closed form the integrand calls, whose first level
    also gives the profile's y; the interval still has to lie inside the
    embeddable interval of the params passed.
    """

    def use(lam, dlam):
        monkeypatch.setattr(revolution, "conformal_factor", lambda p, u: lam(u))
        monkeypatch.setattr(
            revolution, "conformal_factor_derivatives", lambda p, u: (lam(u), dlam(u), None)
        )

    return use


class TestAdaptiveSimpson:
    """The batched adaptive Simpson kernel of profile_from_metric on one segment."""

    def test_polynomial_exact(self):
        got = _simpson_segments(lambda x: x * x, [0.0, 1.0], 1e-12)
        assert got == pytest.approx([1.0 / 3.0], abs=1e-12)

    def test_square_root_endpoint(self):
        got = _simpson_segments(np.sqrt, [0.0, 1.0], 1e-10)
        assert got == pytest.approx([2.0 / 3.0], abs=1e-9)

    def test_empty_interval(self):
        assert _simpson_segments(np.sin, [2.0, 2.0], 1e-10).tolist() == [0.0]

    def test_rejects_bad_tolerance(self, ref_params, monkeypatch):
        # the tolerance is judged before the quadrature starts
        def no_quadrature(*_):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(revolution, "_simpson_segments", no_quadrature)
        with pytest.raises(ParameterError, match="tolerance must be finite and positive, got 0.0"):
            profile_from_metric(ref_params, (-0.3, 0.3), tol=0.0, n=11)

    @pytest.mark.parametrize(
        "f, a, b, tol",
        [
            (lambda x: x * x, 0.0, 1.0, 1e-12),
            (math.sqrt, 0.0, 1.0, 1e-10),
            (math.cos, -0.5, 3.0, 1e-13),
        ],
        ids=["x^2", "sqrt", "cos"],
    )
    def test_batched_matches_recursive_reference(self, f, a, b, tol):
        got = _simpson_segments(np.vectorize(f, otypes=[float]), [a, b], tol)
        assert got.tolist() == [reference_adaptive_simpson(f, a, b, tol)]

    def test_subdivision_cap_raises(self):
        from ricci_liouville import ConvergenceError

        with pytest.raises(ConvergenceError, match="subdivision"):
            _simpson_segments(np.sqrt, [0.0, 1.0], 1e-14)


class TestEmbeddableInterval:
    def test_zero_always_embeddable(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        assert lo < 0.0 < hi
        assert lo == -hi

    @settings(max_examples=150, deadline=None)
    @given(
        log_b=st.floats(min_value=math.log(0.05), max_value=math.log(20.0)),
        log_c1=st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
        c2=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_boundary_matches_quartic_root(self, log_b, log_c1, c2):
        # the boundary is the first positive zero of lambda^2 - lambda'^2, with
        # lambda = sqrt(lambda_plus) / cn(s u, k) taken from SciPy's ellipj
        p = MetricParams(b=math.exp(log_b), c1=math.exp(log_c1), c2=c2)
        try:
            dc = derive_constants(p)
        except ParameterError:
            assume(False)
        root = math.sqrt(dc.lambda_plus)

        def gap(u):
            sn, cn, dn, _ = ellipj(dc.s * u, dc.k.k2)
            lam, dlam = root / cn, root * dc.s * sn * dn / (cn * cn)
            return lam * lam - dlam * dlam

        target = brentq(gap, 0.0, dc.u_max * (1.0 - 1e-12), xtol=1e-300, rtol=1e-15)
        _, hi = embeddable_interval(p)
        assert hi == pytest.approx(target, rel=1e-12)

    def test_boundary_on_reference_member(self, ref_params):
        # boundary lambda^2 is the positive root of
        # 2 b^2 X^2 + (c2 - 1) X - c1 = 0
        _, hi = embeddable_interval(ref_params)
        b2 = ref_params.b**2
        roots = np.roots([2.0 * b2, ref_params.c2 - 1.0, -ref_params.c1])
        target = float(np.max(roots))
        assert target == pytest.approx(8.840, abs=2e-3)
        assert conformal_factor(ref_params, hi) ** 2 == pytest.approx(target, rel=1e-10)

    def test_gap_positive_inside_negative_outside(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        for u in np.linspace(0.0, hi * (1 - 1e-9), 30):
            lam, dlam, _ = __import__("ricci_liouville").conformal_factor_derivatives(
                ref_params, u
            )
            assert lam * lam - dlam * dlam >= -1e-10


class TestProfileFromMetric:
    def test_constant_factor_gives_cylinder(self, ref_params, factor):
        c = 2.5
        factor(lambda u: np.full_like(u, c), np.zeros_like)
        prof = profile_from_metric(ref_params, (0.0, 0.3), n=51)
        assert np.max(np.abs(prof.x - c * prof.u)) < 1e-10
        assert np.all(prof.y == c)
        assert np.all(np.diff(prof.x) >= 0.0)

    def test_cosh_gives_catenoid(self, ref_params, factor):
        factor(np.cosh, np.sinh)
        prof = profile_from_metric(ref_params, (-0.3, 0.3), n=101)
        assert np.max(np.abs(prof.x - (prof.u - prof.u[0]))) < 1e-9
        assert np.max(np.abs(prof.y - np.cosh(prof.u))) < 1e-14

    def test_reference_trumpet_monotone(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=401)
        assert np.all(np.diff(prof.x) >= 0.0)
        pos = prof.u > 0.0
        assert np.all(np.diff(prof.x[pos]) > 0.0)
        assert np.all(np.diff(prof.y[pos]) > 0.0)
        assert prof.params == ref_params

    def test_reference_profile_bit_identical(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        interval = (0.8 * lo, 0.8 * hi)
        prof = profile_from_metric(ref_params, interval, tol=1e-10, n=201)
        x_ref = reference_profile_x(
            lambda t: conformal_factor(ref_params, t),
            lambda t: conformal_factor_derivatives(ref_params, t)[1],
            interval,
            1e-10,
            201,
        )
        assert np.array_equal(prof.x, x_ref)

    @pytest.mark.parametrize("n", [11, 201])
    def test_whole_embeddable_interval_matches_reference(self, ref_params, n):
        # the integrand has square-root zeros at both ends of the interval
        interval = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, interval, tol=1e-10, n=n)
        x_ref = reference_profile_x(
            lambda t: conformal_factor(ref_params, t),
            lambda t: conformal_factor_derivatives(ref_params, t)[1],
            interval,
            1e-10,
            n,
        )
        assert np.array_equal(prof.x, x_ref)

    def test_y_is_the_closed_form_factor(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=201)
        assert np.array_equal(prof.y, conformal_factor(ref_params, prof.u))
        assert np.array_equal(prof.y, conformal_factor_derivatives(ref_params, prof.u)[0])
        # a copy, not a view into the first quadrature level
        assert prof.y.base is None

    @given(
        n=st.integers(2, 4001),
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_y_is_the_closed_form_factor_on_any_grid(self, ref_params, n, ends):
        # the closed form at the nodes alone and among the midpoints of
        # the first quadrature level gives the same bits
        lo, hi = embeddable_interval(ref_params)
        a, b = (0.8 * lo + t * 1.6 * hi for t in sorted(ends))
        # n strictly increasing nodes need a wider interval than n ulp
        assume(b - a > 1e-9)
        prof = profile_from_metric(ref_params, (a, b), n=n)
        assert np.array_equal(prof.y, conformal_factor(ref_params, prof.u))

    def test_evaluates_the_closed_form_at_the_simpson_nodes_only(self, ref_params, monkeypatch):
        closed_form = conformal_factor_derivatives
        calls = []

        def counted(p, u):
            calls.append(np.array(u))
            return closed_form(p, u)

        def not_called(p, u):
            raise AssertionError("profile_from_metric called conformal_factor")

        monkeypatch.setattr(revolution, "conformal_factor_derivatives", counted)
        monkeypatch.setattr(revolution, "conformal_factor", not_called)
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=201)
        # the abscissae the same quadrature asks of its integrand
        nodes = []

        def integrand(t):
            nodes.append(np.array(t))
            lam, dlam, _ = closed_form(ref_params, t)
            return np.sqrt(np.maximum(lam * lam - dlam * dlam, 0.0))

        _simpson_segments(integrand, prof.u, 1e-10)
        assert [c.size for c in calls] == [t.size for t in nodes]
        assert all(np.array_equal(c, t) for c, t in zip(calls, nodes))
        assert calls[0].size == 2 * 201 - 1

    def test_rejects_interval_beyond_embeddable(self, ref_params):
        _, hi = embeddable_interval(ref_params)
        with pytest.raises(ParameterError, match="embeddable"):
            profile_from_metric(ref_params, (-hi, hi * 1.05))

    @pytest.mark.parametrize(
        "interval, n, message",
        [((0.2, -0.2), 11, "interval must satisfy u_lo < u_hi"),
         ((0.2, 0.2), 11, "interval must satisfy u_lo < u_hi"),
         ((-0.2, 0.2), 1, "need at least 2 profile samples")],
        ids=["reversed", "empty", "one-sample"],
    )
    def test_rejects_bad_interval_or_count(self, ref_params, interval, n, message):
        with pytest.raises(ParameterError, match=message):
            profile_from_metric(ref_params, interval, n=n)

    def test_negative_gap_reported_with_location(self, ref_params, factor):
        # lambda = cos 4u turns non-embeddable past atan(1/4) / 4 = 0.0612
        factor(lambda u: np.cos(4.0 * u), lambda u: -4.0 * np.sin(4.0 * u))
        with pytest.raises(ParameterError, match=r"< 0 at u = 0\.0[6-9]"):
            profile_from_metric(ref_params, (0.0, 0.3), n=31)


class TestMetricFromProfile:
    def test_sphere_recovers_sech(self):
        s, x, y = sphere_profile_arrays()
        u, lam = metric_from_profile(s, x, y, 1001)
        c0 = math.log(math.tan(0.15))
        expected = 1.0 / np.cosh(u + c0)
        assert np.max(np.abs(lam - expected)) < 1e-6
        # recovered curvature +1 through the 1-d stencil
        phi = np.log(lam)
        h = u[1] - u[0]
        curv = -(phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2 * np.exp(-2 * phi[1:-1])
        assert np.max(np.abs(curv - 1.0)) < 0.01

    def test_cylinder_constant_factor(self):
        s = np.linspace(0.0, 5.0, 501)
        c = 1.7
        u, lam = metric_from_profile(s, s.copy(), np.full_like(s, c), 101)
        assert np.max(np.abs(lam - c)) < 1e-12
        assert u[-1] == pytest.approx(5.0 / c, rel=1e-12)

    def test_rejects_non_arc_length(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=401)
        with pytest.raises(ParameterError, match="arc-length"):
            metric_from_profile(prof.u, prof.x, prof.y, 51)

    def test_rejects_nonpositive_radius(self):
        s = np.linspace(0.0, 1.0, 101)
        y = 1.0 - s
        with pytest.raises(ParameterError, match="y <= 0"):
            metric_from_profile(s, s.copy(), y, 51)

    def test_roundtrip_reference_member(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        a_lo, a_hi = 0.8 * lo, 0.8 * hi
        prof = profile_from_metric(ref_params, (a_lo, a_hi), tol=1e-10, n=4001)
        s, x, y = arc_length_resample(prof.u, prof.x, prof.y, 4001)
        u_rec, lam_rec = metric_from_profile(s, x, y, 1001)
        lam_true = conformal_factor(ref_params, u_rec + a_lo)
        assert np.max(np.abs(lam_rec - lam_true)) < 1e-5


def cone_profile_arrays(s):
    """Arc-length cone: y = 1 + 0.6 s, x = 0.8 s (exact unit speed)."""
    s = np.asarray(s, dtype=float)
    return s, 0.8 * s, 1.0 + 0.6 * s


# steps from 0.01 to 2.0 on the cone, neighbours up to 200 times apart
NON_UNIFORM_KNOTS = np.cumsum(
    [0.0, 0.1, 0.05, 1.3, 0.2, 0.02, 0.9, 0.4, 0.01, 2.0, 0.05, 0.05, 1.5]
)


class TestMetricFromProfileMatchesSciPy:
    """The Hermite path agrees with SciPy's spline reconstruction, and with the exact cone."""

    @staticmethod
    def assert_close_to_scipy(s, x, y, resample_n):
        u, lam = metric_from_profile(s, x, y, resample_n)
        u_ref, lam_ref = reference_metric_from_profile(s, x, y, resample_n)
        np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-9, atol=0.0)

    @staticmethod
    def assert_exact_cone(s, resample_n, rtol=1e-3):
        # du = ds / (1 + 0.6 s) from s[0], so lambda = (1 + 0.6 s[0]) e^(0.6 u)
        u, lam = metric_from_profile(*cone_profile_arrays(s), resample_n)
        exact = (1.0 + 0.6 * s[0]) * np.exp(0.6 * u)
        assert np.max(np.abs(lam / exact - 1.0)) <= rtol
        assert u[-1] == pytest.approx(np.log1p(0.6 * s[-1]) / 0.6 - np.log1p(0.6 * s[0]) / 0.6,
                                      rel=rtol)

    @pytest.mark.parametrize("resample_n", [51, 1001])
    def test_reference_trumpet(self, ref_params, resample_n):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), tol=1e-10, n=4001)
        self.assert_close_to_scipy(*arc_length_resample(prof.u, prof.x, prof.y, 4001), resample_n)

    @pytest.mark.parametrize("resample_n", [51, 1001])
    def test_unit_sphere(self, resample_n):
        self.assert_close_to_scipy(*sphere_profile_arrays(), resample_n)

    def test_cylinder(self):
        s = np.linspace(0.0, 5.0, 501)
        self.assert_close_to_scipy(s, s.copy(), np.full_like(s, 1.7), 101)

    @pytest.mark.parametrize("n", [4, 5])
    def test_smallest_inputs(self, n):
        self.assert_exact_cone(np.linspace(0.0, 1.5, n), 7)

    def test_strongly_non_uniform_knots(self):
        # the steps of 1.3 and 2.0, over which 1/y falls by 42% and 30%,
        # leave the h^5 term of the end-corrected trapezoid: 1.8e-3 here,
        # against 1.2e-2 for SciPy's spline reconstruction
        for resample_n in (7, 51, 1001):
            self.assert_exact_cone(NON_UNIFORM_KNOTS, resample_n, rtol=2e-3)

    def test_random_non_uniform_subsamples(self):
        rng = np.random.default_rng(5)
        dense = np.linspace(0.0, 3.0, 2001)
        for _ in range(20):
            k = int(rng.integers(4, 200))
            self.assert_exact_cone(np.sort(rng.choice(dense, size=k, replace=False)), 51)


class TestMetricFromProfileInputs:
    @pytest.mark.parametrize("column", ["s", "x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_named(self, column, bad):
        cols = dict(zip("sxy", cone_profile_arrays(np.linspace(0.0, 1.0, 21))))
        cols[column][3] = bad
        message = f"profile column {column} is not finite at sample 3"
        with pytest.raises(ParameterError, match=message):
            metric_from_profile(cols["s"], cols["x"], cols["y"], 51)

    def test_u_must_increase(self):
        # a steep, asymmetric dip of the radius to 0.01 at sample 4, rising
        # with y' = 0.9 there: g' = -y'/y^2 = -9000 drives the end-corrected
        # trapezoid step from sample 4 to 5 to -700.  x (with x' < 0 at
        # samples 5 and 8) and y[0] were solved for so that the
        # np.gradient speed is 1 to within 4e-15
        s = np.arange(9.0)
        x = [0.0, 0.6528431924155735, 1.9004505434171068, 2.589334865519283,
             3.63823649111032, 3.461114654227418, 3.4384866475559384,
             5.438486647555937, 5.438486647555935]
        y = [0.3768726197432666, 1.0, 1.0, 0.5, 0.01, 2.3, 2.0, 2.0, 2.0]
        with pytest.raises(ParameterError, match="not strictly increasing at sample 5"):
            metric_from_profile(s, x, y, 51)
        # SciPy's PchipInterpolator refuses the same knots
        with pytest.raises(ValueError, match="strictly increasing"):
            reference_metric_from_profile(s, x, y, 51)


class TestProfileCurve:
    @pytest.mark.parametrize("column", ["u", "x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_named(self, column, bad):
        cols = {"u": np.linspace(0.0, 1.0, 6), "x": np.linspace(0.0, 0.5, 6), "y": np.ones(6)}
        cols[column][2] = bad
        with pytest.raises(ParameterError, match=f"profile column {column} is not finite at sample 2"):
            ProfileCurve(**cols)

    @pytest.mark.parametrize(
        "u, x, y, message",
        [
            ([0.0, 1.0, 2.0], [0.0, 1.0], [1.0, 1.0, 1.0],
             "need matching 1-d u, x, y arrays with >= 2 samples"),
            ([0.0], [0.0], [1.0], "need matching 1-d u, x, y arrays with >= 2 samples"),
            ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
             "profile u samples must be strictly increasing"),
            ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
             "rotation radius y <= 0 at sample 1"),
        ],
        ids=["shape", "one-sample", "order", "radius"],
    )
    def test_columns_checked(self, u, x, y, message):
        with pytest.raises(ParameterError) as err:
            ProfileCurve(u, x, y)
        assert str(err.value) == message


class TestEquality:
    def test_profile_equals_only_itself(self):
        prof, twin = cylinder(2.0, 5), cylinder(2.0, 5)
        assert prof == prof and prof != twin
        assert {prof: 1}[prof] == 1

    def test_mesh_equals_only_itself(self):
        prof = cylinder(2.0, 5)
        mesh, twin = tessellate(prof, 0.0, math.pi, 4), tessellate(prof, 0.0, math.pi, 4)
        assert mesh == mesh and mesh != twin
        assert {mesh: 1}[mesh] == 1


class TestTessellate:
    def test_closed_tube_counts(self):
        prof = cylinder(2.0, 11)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 16)
        assert mesh.closed
        assert len(mesh.faces) == 2 * (11 - 1) * 16
        assert len(mesh.vertices) == 11 * 16
        assert euler_characteristic(mesh) == 0  # tube

    def test_open_patch_counts_and_topology(self):
        prof = cylinder(2.0, 9)
        mesh = tessellate(prof, 0.0, math.pi, 12)
        assert not mesh.closed
        assert len(mesh.faces) == 2 * 8 * 11
        assert euler_characteristic(mesh) == 1  # disc

    def test_sphere_vertices_on_unit_sphere(self):
        s, x, y = sphere_profile_arrays(n=101)
        prof = ProfileCurve(u=s, x=x, y=y)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 64)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    def test_requires_three_columns(self):
        prof = cylinder(1.0, 5)
        with pytest.raises(ParameterError):
            tessellate(prof, 0.0, 1.0, 2)

    @pytest.mark.parametrize(
        "v_lo, v_hi",
        [(0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_rejects_non_finite_v_range(self, v_lo, v_hi):
        prof = cylinder(1.0, 5)
        with pytest.raises(ParameterError, match=r"mesh angle v\[0\] is not finite"):
            tessellate(prof, v_lo, v_hi, 4)

    @pytest.mark.parametrize("v_lo, v_hi", [(1.0, 0.0), (1.0, 1.0)], ids=["reversed", "empty"])
    def test_rejects_empty_or_reversed_v_range(self, v_lo, v_hi):
        with pytest.raises(ParameterError, match=r"mesh angle v\[1\] = \S+ is not above v\[0\] = 1.0"):
            tessellate(cylinder(1.0, 5), v_lo, v_hi, 4)

    def test_mesh_is_its_profile_and_angles(self):
        prof = cylinder(2.0, 5)
        for v_hi, nv in ((math.pi, 4), (2.0 * math.pi, 6)):
            mesh = tessellate(prof, 0.0, v_hi, nv)
            assert mesh.profile is prof and mesh.params is prof.params
            assert (mesh.nu, mesh.nv, mesh.v.dtype) == (5, nv, np.float64)
            assert np.array_equal(mesh.uv[:, 1].reshape(5, nv), np.tile(mesh.v, (5, 1)))

    def test_traced_memory_is_the_angles(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=801)
        tracemalloc.start()
        try:
            mesh = tessellate(prof, 0.0, 2.0 * math.pi, 314)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no vertex or uv grid is stored: the mesh holds the profile and 314 angles
        assert mesh.nu * mesh.nv == 801 * 314
        assert peak <= 0.01 * 801 * 314 * 8

    def test_outward_orientation(self):
        prof = cylinder(2.0, 5)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 8)
        verts = mesh.vertices
        for tri in mesh.faces[:8]:
            a, b, c = verts[tri]
            n = np.cross(b - a, c - a)
            centroid = (a + b + c) / 3.0
            radial = np.array([0.0, centroid[1], centroid[2]])
            assert np.dot(n, radial) > 0.0


class TestMeshAngles:
    @pytest.mark.parametrize(
        "v, message",
        [
            ([0.0, math.nan, 2.0], "mesh angle v[1] is not finite (nan)"),
            ([0.0, 1.0, math.inf], "mesh angle v[2] is not finite (inf)"),
            ([-math.inf, 1.0, 2.0], "mesh angle v[0] is not finite (-inf)"),
            ([0.0, 1.0, 1.0], "mesh angle v[2] = 1.0 is not above v[1] = 1.0"),
            ([0.0, 2.0, 1.0, 3.0], "mesh angle v[2] = 1.0 is not above v[1] = 2.0"),
            ([0.0, 1.0], "need a 1-d array of nv >= 3 mesh angles, got shape (2,)"),
            ([[0.0, 1.0, 2.0]], "need a 1-d array of nv >= 3 mesh angles, got shape (1, 3)"),
        ],
        ids=["nan", "inf", "-inf", "repeated", "reversed", "two", "2-d"],
    )
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_angles_checked(self, v, message, closed):
        with pytest.raises(ParameterError) as err:
            RevolutionMesh(cylinder(1.0, 3), v, closed)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "v_hi, span",
        [(2.0 * math.pi, "6.283185307179586"), (3.0 * math.pi, "9.42477796076938")],
        ids=["full-turn", "three-half-turns"],
    )
    def test_closed_span_checked(self, v_hi, span):
        # a seam step of zero (a full turn) or below zero (more than a turn)
        v = np.linspace(0.0, v_hi, 16)
        with pytest.raises(ParameterError) as err:
            RevolutionMesh(cylinder(1.0, 3), v, True)
        assert str(err.value) == (
            f"a closed mesh needs angles spanning less than 2 pi, got v[-1] - v[0] = {span}"
        )
        # the same angles bound an open sweep
        mesh = RevolutionMesh(cylinder(1.0, 3), v, False)
        assert (mesh.nv, mesh.face_count) == (16, 60)

    @pytest.mark.parametrize(
        "v, seam, widest",
        [(2.0 * math.pi * np.arange(8) / 16, "3.5342917352885173", "0.39269908169872414"),
         ([0.0, 1.0, 2.0], "4.283185307179586", "1.0"),
         (np.arange(3) * (2.0 * math.pi / 3.0 - 0.4e-12), "2.094395102393996",
          "2.094395102392795")],
        ids=["half-turn", "three-radians", "just-over"],
    )
    def test_closed_seam_step_checked(self, v, seam, widest):
        # angles short of one turn: the seam quad would bridge the gap in one
        # step; just over, the seam step is 1.2e-12 wider than the others
        with pytest.raises(ParameterError) as err:
            RevolutionMesh(cylinder(1.0, 3), v, True)
        assert str(err.value) == (
            f"a closed mesh needs a seam step 2 pi - (v[-1] - v[0]) = {seam} no wider "
            f"than its widest angle step {widest}"
        )
        mesh = RevolutionMesh(cylinder(1.0, 3), v, False)
        assert mesh.nv == len(v)

    @pytest.mark.parametrize("v_lo", [0.0, -math.pi, 123.456, 1e3])
    def test_closed_tessellations_accepted(self, v_lo):
        # tessellate closes the seam up to 1e-12 off a full turn; 0.9e-12
        # leaves room for the rounding of v_lo + 2 pi
        for nv in (3, 16, 314, 40000, 2**20):
            for slack in (-0.9e-12, 0.0, 0.9e-12):
                mesh = tessellate(cylinder(1.0, 2), v_lo, v_lo + 2.0 * math.pi + slack, nv)
                assert mesh.closed and mesh.nv == nv
        # a seam step 0.9e-12 wider than the others is within the bound
        v = v_lo + np.arange(3) * (2.0 * math.pi / 3.0 - 0.3e-12)
        assert RevolutionMesh(cylinder(1.0, 2), v, True).closed


class TestInducedMetric:
    def test_cylinder_u_edges_exact(self):
        prof = cylinder(2.0, 21)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 32)
        verts = mesh.vertices.reshape(21, 32, 3)
        d2 = np.sum((verts[1:] - verts[:-1]) ** 2, axis=2)
        du = prof.u[1] - prof.u[0]
        assert np.max(np.abs(d2 - (2.0 * du) ** 2)) < 1e-14

    def test_sphere_chord_deviation_second_order(self):
        s, x, y = sphere_profile_arrays(n=201)
        prof = ProfileCurve(u=s, x=x, y=y)
        dev = []
        for nv in (64, 128):
            mesh = tessellate(prof, 0.0, 2.0 * math.pi, nv)
            dv = 2.0 * math.pi / nv
            verts = mesh.vertices.reshape(len(s), nv, 3)
            chord2 = np.sum((verts[:, 1, :] - verts[:, 0, :]) ** 2, axis=1)
            dev.append(np.max(np.abs(chord2 / (y * dv) ** 2 - 1.0)))
        assert dev[0] < 1e-3
        assert 3.0 < dev[0] / dev[1] < 5.0

    def test_reference_member_deviation_shrinks(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        devs = []
        for n, nv in ((34, 96), (67, 192)):
            prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=n)
            mesh = tessellate(prof, 0.0, 2.0 * math.pi, nv)
            devs.append(induced_metric_check(mesh, ref_params))
        assert devs[1] < 1e-3
        assert devs[0] / devs[1] > 1.8

    @pytest.mark.parametrize("v_hi", [math.pi, 2.0 * math.pi], ids=["open", "closed"])
    @pytest.mark.parametrize("nu, nv", [(3, 7), (9, 10), (67, 157), (801, 314), (5, 40000)])
    def test_matches_grid_reference(self, ref_params, nu, nv, v_hi):
        mesh = ref_mesh(ref_params, nu, nv, v_hi)
        assert mesh.closed == (v_hi == 2.0 * math.pi)
        want = reference_induced_metric_check(mesh, ref_params)
        assert induced_metric_check(mesh, ref_params) == pytest.approx(want, rel=1e-8, abs=0)

    @pytest.mark.parametrize("shift", [0.05, -0.05])
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_matches_grid_reference_off_the_metric(self, ref_params, shift, closed):
        # y = lambda + shift keeps every u-chord but makes y^2 / lambda^2 vary
        # by row, above 1 or below it; uneven angle steps, the closed seam
        # the narrowest, make the v-edge factor vary by step
        prof = ref_mesh(ref_params, 67, 3, math.pi).profile
        shifted = ProfileCurve(prof.u, prof.x, prof.y + shift, params=ref_params)
        v = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 0.3, 31))])
        mesh = RevolutionMesh(shifted, v, closed)
        want = reference_induced_metric_check(mesh, ref_params)
        assert want > 0.04
        assert induced_metric_check(mesh, ref_params) == pytest.approx(want, rel=1e-8, abs=0)

    def test_provenance_required(self, ref_params):
        prof = cylinder(2.0, 9)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 12)
        with pytest.raises(ParameterError, match="provenance"):
            induced_metric_check(mesh, ref_params)


class TestAngleDefect:
    def test_sphere_unit_curvature(self):
        s, x, y = sphere_profile_arrays(n=241)  # spacing ~0.01
        prof = ProfileCurve(u=s, x=x, y=y)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 628)
        ids, k_est, areas, skipped = angle_defect_curvature(mesh)
        assert len(skipped) == 0
        assert abs(np.mean(k_est) - 1.0) < 0.05

    def test_cylinder_flat(self):
        prof = cylinder(2.0, 21)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 64)
        _, k_est, _, _ = angle_defect_curvature(mesh)
        assert np.max(np.abs(k_est)) < 1e-6

    def test_zero_area_triangles_skipped(self):
        ref_ids, ref_k, _, _ = angle_defect_curvature(
            tessellate(cylinder(2.0, 11), 0.0, 2.0 * math.pi, 16)
        )
        # sample 6 repeats sample 5, so row 6 of the mesh lies on row 5
        mesh = tessellate(collapsed_cylinder(11, [5]), 0.0, 2.0 * math.pi, 16)
        moved = grid_rows(16, 6)
        zero = np.isin(mesh.faces, grid_rows(16, 5, 6)).all(axis=1)
        ids, k_est, _, skipped = angle_defect_curvature(mesh)
        assert zero.sum() == 2 * 16
        assert np.array_equal(skipped, np.unique(mesh.faces[zero]))
        assert np.array_equal(skipped, grid_rows(16, 5, 6))
        assert not np.isin(ids, skipped).any()
        # fans that never touch the moved row keep their exact estimate
        near = np.unique(mesh.faces[np.isin(mesh.faces, moved).any(axis=1)])
        far = ~np.isin(ref_ids, near)
        assert np.array_equal(ids[~np.isin(ids, near)], ref_ids[far])
        assert np.array_equal(k_est[~np.isin(ids, near)], ref_k[far])
        self.assert_matches_oracle(mesh)

    def test_reference_member_matches_analytic(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=67)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 628)
        ids, k_est, areas, _ = angle_defect_curvature(mesh)
        k_true = gaussian_curvature(ref_params, mesh.uv[ids, 0])
        assert np.max(np.abs(k_est - k_true) / np.abs(k_true)) < 0.05

    def test_total_defect_matches_integral(self, ref_params):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=67)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 314)
        ids, k_est, areas, _ = angle_defect_curvature(mesh)
        total_defect = float(np.sum(k_est * areas))
        k_true = gaussian_curvature(ref_params, mesh.uv[ids, 0])
        total_analytic = float(np.sum(k_true * areas))
        assert abs(total_defect - total_analytic) / abs(total_analytic) < 0.02


    # The row x step function against the face-based oracles: ids and
    # skipped equal the float64 oracle's, and the defect k * area and the
    # areas lie within DEFECT_ERROR and AREA_ERROR of the long-double one.
    @staticmethod
    def assert_matches_oracle(mesh):
        ids, k_est, areas, skipped = angle_defect_curvature(mesh)
        ref_ids, _, _, ref_skipped = reference_angle_defect(mesh)
        assert ids.dtype == ref_ids.dtype and skipped.dtype == ref_skipped.dtype
        assert k_est.dtype == areas.dtype == np.float64
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(skipped, ref_skipped)
        if not WIDE_LONG_DOUBLE:
            pytest.skip("np.longdouble is no wider than float64 here: no long-double oracle")
        exact_ids, exact_k, exact_areas, _ = reference_angle_defect(mesh, np.longdouble)
        assert np.array_equal(exact_ids, ids)
        exact_defect = exact_k * exact_areas
        defect_error = np.abs(k_est.astype(np.longdouble) * areas - exact_defect)
        defect_bound = (DEFECT_ERROR * 2.0 * math.pi + 4.0 * np.abs(exact_defect)) * EPS
        assert np.all(defect_error <= defect_bound)
        assert np.all(np.abs(areas - exact_areas) <= AREA_ERROR * EPS * exact_areas)
        return ids, skipped

    @given(
        data=st.data(),
        nu=st.integers(2, 7),
        nv=st.integers(3, 9),
        closed=st.booleans(),
        repeat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_tubes_match_oracle(self, data, nu, nv, closed, repeat):
        """Random positive profiles and random increasing angles, open and closed."""
        ys = data.draw(st.lists(st.floats(0.2, 5.0), min_size=nu, max_size=nu))
        dxs = data.draw(st.lists(st.floats(0.05, 1.0), min_size=nu - 1, max_size=nu - 1))
        x, y = np.concatenate([[0.0], np.cumsum(dxs)]), np.array(ys)
        if repeat:
            # sample r + 1 repeats sample r: a quad row of zero area
            r = data.draw(st.integers(0, nu - 2))
            x[r + 1], y[r + 1] = x[r], y[r]
        prof = ProfileCurve(np.arange(float(nu)), x, y)
        # open steps past 2 pi wrap round: sin(dv / 2) < 0 there
        step = st.floats(0.05, 3.0) | st.floats(6.5, 9.0)
        steps = np.array(data.draw(st.lists(step, min_size=nv, max_size=nv)))
        v0 = data.draw(st.floats(-4.0, 4.0))
        if closed:
            # the last step is the seam, narrow or as wide as the widest
            steps = np.minimum(steps, 3.0)
            steps[-1] = data.draw(st.floats(0.05, 1.0)) * steps[:-1].max()
            steps *= 2.0 * math.pi / steps.sum()
        v = v0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
        self.assert_matches_oracle(RevolutionMesh(prof, v, closed))

    def test_narrow_seam_away_from_zero_matches_oracle(self):
        # v[0] - v[-1] + 2 pi cancels to the narrow seam step; away from
        # v = 0 only an exactly rounded sum keeps its quads' areas in bound
        steps = np.array([1.0] * 6 + [0.0625, 0.0546875])
        steps *= 2.0 * math.pi / steps.sum()
        v = 1.9601828455914299 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
        self.assert_matches_oracle(RevolutionMesh(cylinder(1.0, 3), v, True))

    @pytest.mark.parametrize(
        "nu, nv, v_hi",
        [(9, 7, math.pi), (41, 33, math.pi), (3, 3, math.pi), (9, 10, 2.0 * math.pi),
         (3, 3, 2.0 * math.pi), (67, 157, 2.0 * math.pi), (801, 314, 2.0 * math.pi)],
        ids=["open-9x7", "open-41x33", "open-3x3", "closed-9x10", "closed-3x3", "closed-67x157",
             "closed-801x314"],
    )
    def test_reference_member_matches_oracle(self, ref_params, nu, nv, v_hi):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=nu)
        mesh = tessellate(prof, 0.0, v_hi, nv)
        ids, _ = self.assert_matches_oracle(mesh)
        interior_cols = nv if mesh.closed else nv - 2
        assert len(ids) == (nu - 2) * interior_cols

    @pytest.mark.parametrize("v_hi", [1.0, 2.0 * math.pi], ids=["open", "closed"])
    def test_sphere_with_obtuse_triangles_matches_oracle(self, v_hi):
        # few columns make long thin triangles whose diagonal corners are obtuse
        s, x, y = sphere_profile_arrays(n=61, s0=0.05)
        mesh = tessellate(ProfileCurve(u=s, x=x, y=y), 0.0, v_hi, 5)
        self.assert_matches_oracle(mesh)

    @pytest.mark.parametrize("v_hi", [math.pi, 2.0 * math.pi], ids=["open", "closed"])
    def test_two_rows_have_no_interior(self, v_hi):
        prof = cylinder(2.0, 2)
        mesh = tessellate(prof, 0.0, v_hi, 5)
        ids, k_est, areas, skipped = angle_defect_curvature(mesh)
        assert ids.dtype == np.int64 and skipped.dtype == np.int64
        assert [len(a) for a in (ids, k_est, areas, skipped)] == [0, 0, 0, 0]
        self.assert_matches_oracle(mesh)

    def test_zero_area_triangles_skipped_on_open_mesh(self):
        mesh = tessellate(collapsed_cylinder(11, [5]), 0.0, math.pi, 16)
        zero = np.isin(mesh.faces, grid_rows(16, 5, 6)).all(axis=1)
        assert zero.sum() == 2 * 15
        ids, skipped = self.assert_matches_oracle(mesh)
        assert np.array_equal(skipped, np.unique(mesh.faces[zero]))
        assert np.array_equal(skipped, grid_rows(16, 5, 6))
        assert not np.isin(ids, skipped).any()

    @pytest.mark.parametrize("v_hi", [math.pi, 2.0 * math.pi], ids=["open", "closed"])
    def test_zero_area_triangles_at_seam_and_border(self, v_hi):
        # the first and the last quad row collapse; on a closed mesh that
        # includes the quad that wraps across the seam
        mesh = tessellate(collapsed_cylinder(11, [0, 9]), 0.0, v_hi, 16)
        ids, skipped = self.assert_matches_oracle(mesh)
        assert np.array_equal(skipped, grid_rows(16, 0, 1, 9, 10))
        assert len(ids) == 7 * (16 if mesh.closed else 14)


class TestAngleDefectPinned:
    # sha256 of (ids, k, areas, skipped) as written when each vertex summed
    # its fan from the (row, step) tables through its two steps.  The
    # AVX-512 kernel of np.arctan2 rounds some of the 250k distinct tilts
    # of the distinct-steps mesh otherwise than the baseline kernel does,
    # so that mesh has one pin per kernel, chosen by the kernel NumPy
    # dispatches; the other meshes have the same bits under both.
    PINNED_SHA256 = {
        "closed-801x314": "27c6e7661df272bea09ab4a39b40f3bbbc65e3c7da64ca8cf21a1c6b09642556",
        "open-41x33": "5e8bdae57e029f3ae415edbfea7c4425da3239e432f722bd18b18adf361644ec",
        "distinct-steps-801x314": {
            "avx512": "a16c93df61f3131156f35e2dc2900bada666fe017e7f06328376f7f88a46620c",
            "baseline": "a08bb829e6d1e75ed836e6b917bae6938a274bcbb1d0a0c53b2ce6fdd013de5a",
        },
        "collapsed-11x16": "d2042590ed6bc3e335663a5a5d865f08c1d32e9060f66ecba9550bbfbc1bdb99",
    }

    @staticmethod
    def arctan2_kernel():
        """'avx512' or 'baseline', the float64 np.arctan2 kernel in use."""
        introspect = pytest.importorskip("numpy.lib.introspect")
        if not hasattr(introspect, "opt_func_info"):
            pytest.skip("this NumPy does not report its dispatched kernels")
        info = introspect.opt_func_info(func_name="^arctan2$", signature="float64")
        (current,) = [t["current"] for t in info["arctan2"].values()]
        if current.startswith("baseline"):
            return "baseline"
        if current == "X86_V4" or current.startswith("AVX512"):
            return "avx512"
        pytest.skip(f"no pin recorded for the {current} kernel of np.arctan2")

    @staticmethod
    def mesh(params, name):
        if name == "closed-801x314":
            return ref_mesh(params, 801, 314, 2.0 * math.pi)
        if name == "open-41x33":
            return ref_mesh(params, 41, 33, math.pi)
        if name == "distinct-steps-801x314":
            prof = ref_mesh(params, 801, 314, 2.0 * math.pi).profile
            return RevolutionMesh(prof, uneven_angles(314, 2.0 * math.pi), True)
        return tessellate(collapsed_cylinder(11, [5]), 0.0, 2.0 * math.pi, 16)

    @pytest.mark.parametrize("name", list(PINNED_SHA256))
    def test_outputs_are_pinned(self, ref_params, name):
        want = self.PINNED_SHA256[name]
        if isinstance(want, dict):
            want = want[self.arctan2_kernel()]
        out = angle_defect_curvature(self.mesh(ref_params, name))
        assert [a.dtype for a in out] == [np.int64, np.float64, np.float64, np.int64]
        digest = hashlib.sha256()
        for a in out:
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == want


def ref_mesh(params, nu, nv, v_hi):
    lo, hi = embeddable_interval(params)
    prof = profile_from_metric(params, (0.8 * lo, 0.8 * hi), n=nu)
    return tessellate(prof, 0.0, v_hi, nv)


def uneven_angles(nv, v_hi, seed=0):
    """nv increasing angles from 0 with distinct random steps.

    Open (v_hi < 2 pi) they end at v_hi; closed (v_hi = 2 pi) the nv
    steps, the narrowest of them last as the seam, make one turn.
    """
    rng = np.random.default_rng(seed)
    closed = v_hi == 2.0 * math.pi
    steps = rng.uniform(0.5, 1.0, nv if closed else nv - 1)
    if closed:
        steps[[steps.argmin(), -1]] = steps[[-1, steps.argmin()]]
    return np.concatenate([[0.0], np.cumsum(steps)])[:nv] * (v_hi / steps.sum())


class TestRowBands:
    """Row bands change which call computes a vertex, never its value.

    The defect builds its (row, step) tables in bands of 16384 entries,
    so a mesh with more than 8192 distinct angle steps puts every row in
    a band of its own.
    """

    @pytest.mark.parametrize(
        "nu, nv, v_hi, rows",
        [(801, 314, 2.0 * math.pi, 3), (203, 157, math.pi, 4)],
        ids=["closed-801x314", "open-203x157"],
    )
    def test_bands_match_whole_grid(self, ref_params, nu, nv, v_hi, rows):
        lo, hi = embeddable_interval(ref_params)
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=nu)
        mesh = RevolutionMesh(prof, uneven_angles(nv, v_hi), v_hi == 2.0 * math.pi)
        assert (nu - 2) % rows != 0  # the last slice is short
        whole = angle_defect_curvature(mesh)
        # the same rows, each slice of `rows` inner rows meshed on its own
        parts = []
        for first in range(0, nu - 2, rows):
            cut = slice(first, min(first + rows, nu - 2) + 2)
            part = ProfileCurve(prof.u[cut], prof.x[cut], prof.y[cut])
            ids, k_est, areas, skipped = angle_defect_curvature(
                RevolutionMesh(part, mesh.v, mesh.closed)
            )
            assert len(skipped) == 0
            parts.append((ids + first * nv, k_est, areas))
        for got, want in zip([np.concatenate(p) for p in zip(*parts)], whole[:3]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert len(whole[3]) == 0
        TestAngleDefect.assert_matches_oracle(mesh)

    # the oracle cases of TestAngleDefect on 8200 angles with distinct
    # steps, seeded by the parameter: every collapsed edge sits on a band
    # edge
    @pytest.mark.parametrize("seed", [1, 40])
    def test_oracle_cases_in_small_bands(self, seed):
        for v_hi in (math.pi, 2.0 * math.pi):
            s, x, y = sphere_profile_arrays(n=9, s0=0.05)
            for prof in [
                collapsed_cylinder(11, [0, 9]),
                collapsed_cylinder(11, [5]),
                cylinder(2.0, 2),
                ProfileCurve(u=s, x=x, y=y),
            ]:
                mesh = RevolutionMesh(prof, uneven_angles(8200, v_hi, seed), v_hi == 2.0 * math.pi)
                TestAngleDefect.assert_matches_oracle(mesh)

    @pytest.mark.parametrize(
        "nu, nv, v_hi",
        [(3, 7, math.pi), (3, 10, 2.0 * math.pi), (5, 40000, 2.0 * math.pi)],
        ids=["open-3x7", "closed-3x10", "closed-5x40000"],
    )
    def test_short_and_wide_grids_match_oracle(self, ref_params, nu, nv, v_hi):
        TestAngleDefect.assert_matches_oracle(ref_mesh(ref_params, nu, nv, v_hi))

    def test_traced_memory_stays_a_few_grid_arrays(self, ref_params):
        mesh = ref_mesh(ref_params, 801, 314, 2.0 * math.pi)
        # a zero-area quad row: its outputs are masked after the gather
        zero_area = tessellate(collapsed_cylinder(801, [400]), 0.0, 2.0 * math.pi, 314)
        grid_array = 801 * 314 * 8
        peaks = []
        for check, m in [
            (angle_defect_curvature, mesh),
            (angle_defect_curvature, zero_area),
            (lambda m: induced_metric_check(m, ref_params), mesh),
        ]:
            tracemalloc.start()
            try:
                check(m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the three outputs, the (row, pair) tables and the (row, step) tables
        assert peaks[0] <= 3.5 * grid_array
        assert peaks[1] <= 3.5 * grid_array
        # the induced check forms no grid array: its peak is the closed-form
        # lambda of the 801 profile rows
        assert peaks[2] <= 0.05 * grid_array

    def test_traced_memory_with_distinct_steps(self, ref_params):
        # 314 distinct angle steps make the (row, step) tables as large as
        # the grid; the row bands bound the temporaries that build them
        mesh = ref_mesh(ref_params, 801, 314, 2.0 * math.pi)
        mesh = RevolutionMesh(mesh.profile, uneven_angles(314, 2.0 * math.pi), True)
        tracemalloc.start()
        try:
            angle_defect_curvature(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 801 * 314 * 8


def small_ref_mesh(params, v_hi, nv):
    return ref_mesh(params, 9, nv, v_hi)


SMALL_MESHES = pytest.mark.parametrize(
    "v_hi, nv", [(math.pi, 7), (2.0 * math.pi, 10)], ids=["open", "closed"]
)


class TestExports:
    @SMALL_MESHES
    def test_faces_match_reference(self, ref_params, v_hi, nv):
        mesh = small_ref_mesh(ref_params, v_hi, nv)
        ref = reference_faces(mesh.nu, nv, mesh.closed)
        assert mesh.faces.dtype == ref.dtype
        assert np.array_equal(mesh.faces, ref)

    @SMALL_MESHES
    def test_ply_bytes_match_reference(self, ref_params, v_hi, nv):
        mesh = small_ref_mesh(ref_params, v_hi, nv)
        assert mesh_to_ply(mesh) == reference_ply(mesh)

    @SMALL_MESHES
    def test_obj_text_matches_reference(self, ref_params, v_hi, nv):
        mesh = small_ref_mesh(ref_params, v_hi, nv)
        assert mesh_to_obj(mesh) == reference_obj(mesh).encode("ascii")

    @pytest.mark.parametrize(
        "n, v_hi, nv",
        [(2, math.pi, 3), (2, 2.0 * math.pi, 5), (3, math.pi, 3), (61, 1.0, 5),
         (2, 2.0 * math.pi, 3)],
    )
    def test_vertex_normals_match_reference(self, n, v_hi, nv):
        s, x, y = sphere_profile_arrays(n=n, s0=0.05)
        mesh = tessellate(ProfileCurve(u=s, x=x, y=y), 0.0, v_hi, nv)
        assert mesh_to_obj(mesh) == reference_obj(mesh).encode("ascii")

    # a zero-area quad row inside the tube, and one at its first row, whose
    # end chord, the first row's tangent, is then zero and gives the zero normal;
    # inside, the chord sum of the repeated samples is the neighbouring chord
    @pytest.mark.parametrize("v_hi", [math.pi, 2.0 * math.pi], ids=["open", "closed"])
    @pytest.mark.parametrize("n, rows", [(16, [5]), (6, [0])], ids=["inner", "first"])
    def test_vertex_normals_of_zero_area_rows_match_reference(self, n, rows, v_hi):
        mesh = tessellate(collapsed_cylinder(n, rows), 0.0, v_hi, 16)
        text = mesh_to_obj(mesh)
        assert text == reference_obj(mesh).encode("ascii")
        assert (b"\nvn 0 0 0\n" in text) == (rows == [0])

    # sup over the box of angle / h^2 on inner rows and angle / h on the two end
    # rows, fitted once at nu = 801 .. 3201: about 10.8 inside (c1 = 1e-3,
    # c2 = -0.005, share 0.9) and 2.5 at the ends (c1 = 1e-3, c2 = 0.9, share 0.05)
    INNER_ANGLE, END_ANGLE = 12.0, 2.75

    @settings(max_examples=60, deadline=None)
    @given(
        b=log_uniform(0.05, 20.0),
        c1=log_uniform(1e-3, 1e3),
        c2=log_uniform(1e-3, 1e3),
        c2_sign=st.sampled_from([-1.0, 1.0]),
        share=st.floats(0.05, 0.9),
        nu=st.integers(41, 801),
        closed=st.booleans(),
    )
    def test_vertex_normals_approach_the_exact_normal(self, b, c1, c2, c2_sign, share, nu,
                                                      closed):
        # share <= 0.9: at 0.99 of the interval the square-root zero of x'
        # leaves the rows short of their asymptotic order
        p = MetricParams(b=b, c1=c1, c2=c2_sign * c2)
        try:
            _, u_star = embeddable_interval(p)
        except ParameterError:
            assume(False)
        prof = profile_from_metric(p, (-share * u_star, share * u_star), n=nu)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi if closed else math.pi, 6)
        normals = obj_normals(mesh_to_obj(mesh))
        exact = reference_exact_normal(p, mesh)
        angle = np.arctan2(np.linalg.norm(np.cross(normals, exact), axis=1),
                           np.sum(normals * exact, axis=1)).reshape(nu, -1)
        # h: the u step as a share of the embeddable half-width
        h = (prof.u[1] - prof.u[0]) / u_star
        assert angle[1:-1].max() <= self.INNER_ANGLE * h * h
        assert angle[[0, -1]].max() <= self.END_ANGLE * h
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 4.0 * EPS
        radial = np.sum(normals[:, 1:] * mesh.vertices[:, 1:], axis=1)
        assert (radial > 0.0).all()

    # profiles and angles with signed zeros, subnormals and huge values, which
    # the OBJ writer sends through '%.17g' itself; x is 0 and -0 on the first
    # two rows, and the y sin v of a tiny angle underflows
    ODD_U = [-5e-324, 0.0, 5e-324, 0.1, 1e50]
    ODD_X = [0.0, -0.0, 1e50, 5e-324, 0.1]
    ODD_Y = [1.5, 5e-324, 2.2250738585072009e-308, 1.5, 1.0000000000000002]
    ODD_V = [-5e-324, 0.0, 1e-310, 1.5]
    # further angles that take a closed mesh round one turn
    TURN = [3.0, 4.5, 6.0]

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize("nu, nv", [(2, 3), (3, 4), (5, 4)])
    def test_exports_of_odd_values_match_reference(self, nu, nv, closed):
        prof = ProfileCurve(self.ODD_U[:nu], self.ODD_X[:nu], self.ODD_Y[:nu])
        mesh = RevolutionMesh(prof, self.ODD_V[:nv] + (self.TURN if closed else []), closed)
        text = mesh_to_obj(mesh)
        assert text == reference_obj(mesh).encode("ascii")
        assert b"\nv 0 " in text and b"\nv -0 " in text
        assert mesh_to_ply(mesh) == reference_ply(mesh)

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize("nu, nv", [(2, 3), (3, 4), (5, 4)])
    def test_odd_values_give_finite_normals_without_fp_errors(self, nu, nv, closed):
        # u steps of 5e-324 next to one of 1e50: a tangent divided by them
        # overflows, and here any divide, overflow or invalid operation raises
        prof = ProfileCurve(self.ODD_U[:nu], self.ODD_X[:nu], self.ODD_Y[:nu])
        mesh = RevolutionMesh(prof, self.ODD_V[:nv] + (self.TURN if closed else []), closed)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            normals = obj_normals(mesh_to_obj(mesh))
        assert normals.shape == (nu * mesh.nv, 3)
        assert np.isfinite(normals).all()

    def test_normals_of_a_tiny_cylinder_are_exact(self):
        # chords of 1e-201, whose squares underflow unless scaled first
        mesh = tessellate(cylinder(1e-200, 5), 0.0, 2.0 * math.pi, 8)
        normals = obj_normals(mesh_to_obj(mesh))
        want = np.column_stack([np.zeros(8), np.cos(mesh.v), np.sin(mesh.v)])
        assert np.array_equal(normals, np.tile(want, (5, 1)))

    @pytest.mark.parametrize("nu, nv, v_hi", [(2, 3, math.pi), (2, 3, 2.0 * math.pi),
                                              (9, 7, math.pi), (9, 10, 2.0 * math.pi)])
    def test_face_count_is_the_face_array_length(self, ref_params, nu, nv, v_hi):
        mesh = ref_mesh(ref_params, nu, nv, v_hi)
        assert mesh.face_count == len(mesh.faces) == len(reference_faces(nu, nv, mesh.closed))

    def test_ply_builds_no_face_array(self, ref_params, monkeypatch):
        mesh = small_ref_mesh(ref_params, 2.0 * math.pi, 10)
        # faces is built on each access, so reading it is what must not happen
        monkeypatch.setattr(
            RevolutionMesh, "faces", property(lambda self: pytest.fail("mesh_to_ply read faces"))
        )
        mesh_to_ply(mesh)

    def test_ply_traced_memory_stays_near_its_output(self, ref_params):
        mesh = ref_mesh(ref_params, 801, 314, 2.0 * math.pi)
        tracemalloc.start()
        try:
            size = len(mesh_to_ply(mesh))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the vertex block and face records are written into the result's own
        # buffer, so the peak is the output plus the face fill's temporaries
        assert peak <= size + 1_000_000

    # the benchmark's closed 201 x 157 mesh over u in [-0.33, 0.33], and an open one
    @pytest.mark.parametrize(
        "nu, nv, v_lo, v_hi", [(201, 157, 0.0, 2.0 * math.pi), (41, 33, 0.5, 2.5)],
        ids=["closed-201x157", "open-41x33"],
    )
    def test_obj_bytes_match_reference_at_size(self, ref_params, nu, nv, v_lo, v_hi):
        mesh = tessellate(profile_from_metric(ref_params, (-0.33, 0.33), n=nu), v_lo, v_hi, nv)
        assert mesh.closed == (v_hi == 2.0 * math.pi)
        assert mesh_to_obj(mesh) == reference_obj(mesh).encode("ascii")

    def test_obj_traced_memory_stays_near_its_output(self, ref_params):
        mesh = tessellate(profile_from_metric(ref_params, (-0.33, 0.33), n=201),
                          0.0, 2.0 * math.pi, 157)
        tracemalloc.start()
        try:
            size = len(mesh_to_obj(mesh))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text is written band by band into one buffer, so the peak is the
        # output plus the face array and one band's temporaries
        assert peak <= 1.6 * size

    def test_obj_structure(self):
        prof = cylinder(1.5, 5)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 8)
        lines = mesh_to_obj(mesh).decode("ascii").strip().split("\n")
        v_lines = [l for l in lines if l.startswith("v ")]
        vn_lines = [l for l in lines if l.startswith("vn ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == len(mesh.vertices)
        assert len(vn_lines) == len(mesh.vertices)
        assert len(f_lines) == len(mesh.faces)
        # normals are unit and outward for the cylinder
        nx, ny, nz = (float(t) for t in vn_lines[0].split()[1:])
        assert math.hypot(ny, nz) == pytest.approx(1.0, abs=1e-9)
        assert abs(nx) < 1e-9

    def test_ply_binary_layout(self):
        prof = cylinder(1.5, 4)
        mesh = tessellate(prof, 0.0, 2.0 * math.pi, 6)
        blob = mesh_to_ply(mesh)
        header, _, body = blob.partition(b"end_header\n")
        assert b"format binary_little_endian 1.0" in header
        assert f"element vertex {len(mesh.vertices)}".encode() in header
        n_vert_bytes = len(mesh.vertices) * 5 * 8
        n_face_bytes = len(mesh.faces) * (1 + 3 * 4)
        assert len(body) == n_vert_bytes + n_face_bytes
        first = np.frombuffer(body[:40], dtype="<f8")
        assert first[:3] == pytest.approx(mesh.vertices[0], abs=0)
        assert first[3:] == pytest.approx(mesh.uv[0], abs=0)


class TestQuadratureTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_profiles_reject(self, ref_params, tol):
        with pytest.raises(ParameterError, match="finite and positive"):
            profile_from_metric(ref_params, (-0.3, 0.3), tol=tol, n=11)

"""Tests for null spray charts, spine charts, and isometry verification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf.errors import (
    BadNormalizationError,
    DifferentiationFailureError,
    DomainError,
    NoMetricError,
    NotNullGeodesicError,
)
from affinesurf.catalog import get_model
from affinesurf.fields import christoffel_at
from affinesurf.lorentz import fit_l2_geodesic, l2_metric
from affinesurf.pseudosphere import minkowski_inner
from affinesurf.sprays import (
    IsometryReport,
    SprayChart,
    XSquaredMetric,
    _close_pairs,
    build_spray,
    injectivity_gap,
    invert_T_L2,
    invert_T_S2,
    l2_null_spray,
    map_T_L2,
    map_T_S2,
    s2_frame_products,
    s2_null_spray,
    spine_findings,
    spine_sprays,
    spray_metric,
    spray_metric_grid,
    tl2_grid,
    ts2_grid,
    verify_composition,
    verify_isometry,
)

RNG = np.random.default_rng(4207)


def central_diff_pullback(map_fn, inner, s, t, h=1e-6):
    """Independent oracle: second-order central differences, no complex step."""
    ds = (np.real(map_fn(s + h, t)) - np.real(map_fn(s - h, t))) / (2 * h)
    dt = (np.real(map_fn(s, t + h)) - np.real(map_fn(s, t - h))) / (2 * h)
    base = np.real(map_fn(s, t))
    return (
        inner(base, ds, ds),
        inner(base, ds, dt),
        inner(base, dt, dt),
    )


def l2_inner_at(p, a, b):
    return float(a @ l2_metric(p) @ b)


def mink_at(_p, a, b):
    return minkowski_inner(a, b)


class TestClosedMaps:
    def test_l2_chart_base_line(self):
        for s in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                map_T_L2(s, 0.0), [1.0 / s, 1.0 / s], rtol=0, atol=1e-15
            )

    def test_l2_chart_lands_in_half_plane(self):
        for s in np.linspace(0.2, 3.0, 11):
            for t in np.linspace(-3.0, 2.0 / s - 0.05, 11):
                x = map_T_L2(s, t)
                assert x[0] > 0.0

    def test_l2_chart_domain_errors(self):
        with pytest.raises(DomainError):
            map_T_L2(-1.0, 0.0)
        with pytest.raises(DomainError):
            map_T_L2(0.0, 0.0)
        with pytest.raises(DomainError):
            map_T_L2(1.0, 2.0)
        with pytest.raises(DomainError):
            map_T_L2(1.0, 2.5)

    def test_l2_chart_inverse_roundtrip(self):
        for _ in range(200):
            s = float(RNG.uniform(0.1, 3.0))
            t = float(RNG.uniform(-3.0, 2.0 / s - 0.05))
            s2, t2 = invert_T_L2(map_T_L2(s, t))
            assert abs(s2 - s) < 1e-11 * max(1.0, s)
            assert abs(t2 - t) < 1e-11 * max(1.0, abs(t))

    def test_l2_inverse_domain(self):
        with pytest.raises(DomainError):
            invert_T_L2((-0.5, 1.0))
        with pytest.raises(DomainError):
            invert_T_L2((1.0, -1.5))

    def test_s2_chart_base_point(self):
        np.testing.assert_allclose(map_T_S2(0.0, 0.0), [1.0, 0.0, 0.0], atol=0)

    def test_s2_chart_stays_on_surface(self):
        worst = 0.0
        for _ in range(1000):
            s = float(RNG.uniform(-4.0, 4.0))
            t = float(RNG.uniform(-4.0, 4.0))
            x = map_T_S2(s, t)
            worst = max(worst, abs(minkowski_inner(x, x) - 1.0))
        assert worst <= 1e-12 * (1 + 4.0**4)

    def test_s2_chart_inverse_roundtrip(self):
        for _ in range(200):
            s = float(RNG.uniform(-2.0, 2.0))
            t = float(RNG.uniform(-2.0, 2.0))
            x = map_T_S2(s, t)
            if abs(x[0] + 1.0) < 1e-6:
                continue
            s2, t2 = invert_T_S2(x)
            assert abs(s2 - s) < 1e-10
            assert abs(t2 - t) < 1e-10

    def test_s2_inverse_singular_locus(self):
        with pytest.raises(DomainError):
            invert_T_S2((-1.0, 0.3, 0.1))

    def test_s2_frame_identities(self):
        for s in (-3.0, -1.0, 0.0, 0.5, 2.0):
            prods = s2_frame_products(s)
            assert abs(prods["sigma.sigma"] - 1.0) < 1e-14
            assert abs(prods["sigma_vel.sigma_vel"]) < 1e-14
            assert abs(prods["xi.xi"]) < 1e-14 * (1 + s * s) ** 2
            assert abs(prods["sigma.xi"]) < 1e-14 * (1 + s * s)
            assert abs(prods["sigma_vel.xi"] - 1.0) < 1e-14


class TestNormalForm:
    def test_central_difference_oracle_s2(self):
        # second-order stencil agrees with the squared-coordinate form
        for s, t in ((0.0, 0.0), (1.1, -0.7), (-1.8, 1.9), (0.4, 1.3)):
            got = central_diff_pullback(map_T_S2, mink_at, s, t)
            want = XSquaredMetric.components(s, t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)

    def test_central_difference_oracle_l2(self):
        for s, t in ((0.5, 0.0), (1.0, 0.3), (2.0, -1.4), (0.8, 1.1)):
            got = central_diff_pullback(map_T_L2, l2_inner_at, s, t)
            want = XSquaredMetric.components(s, t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_s2_grid_defect(self):
        report = verify_isometry(
            map_T_S2, "minkowski", ts2_grid(41), label="pseudosphere spray"
        )
        assert report.rows.shape == (41 * 41, 5)
        assert report.max_defect < 1e-8

    def test_l2_grid_defect(self):
        report = verify_isometry(map_T_L2, "L2", tl2_grid(41), label="half-plane spray")
        assert report.rows.shape == (41 * 41, 5)
        assert report.max_defect < 1e-8

    @pytest.mark.parametrize("target", ["l2", "Minkowski", None])
    def test_unknown_target_names_the_accepted_ones(self, target):
        with pytest.raises(ValueError, match='"minkowski" or "L2"'):
            verify_isometry(map_T_S2, target, ts2_grid(3))

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="at least one grid node"):
            verify_isometry(map_T_S2, "minkowski", ts2_grid(0))

    def test_report_csv(self, tmp_path):
        report = verify_isometry(map_T_S2, "minkowski", ts2_grid(5))
        path = tmp_path / "defects.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,t,d_ss,d_st,d_tt"
        assert len(lines) == 1 + 25

    def test_composition_realizes_half_plane(self):
        report = verify_composition(window=(0.5, 3.0, -0.4, 2.0), n=41)
        assert report.columns == ("x1", "x2", "d_11", "d_12", "d_22")
        assert report.max_defect < 1e-7

    def test_injectivity_on_verification_grids(self):
        assert injectivity_gap(map_T_S2, ts2_grid(41)) > 1e-9
        assert injectivity_gap(map_T_L2, tl2_grid(41)) > 1e-9


class TestClosedCharts:
    def test_l2_chart_metric_examples(self):
        chart = l2_null_spray()
        np.testing.assert_allclose(
            spray_metric(chart, 1.0, 0.3), (0.09, 1.0, 0.0), atol=1e-8
        )
        np.testing.assert_allclose(
            spray_metric(chart, 0.5, -0.4), (0.16, 1.0, 0.0), atol=1e-8
        )

    def test_s2_chart_metric_examples(self):
        chart = s2_null_spray()
        np.testing.assert_allclose(
            spray_metric(chart, 1.0, 0.3), (0.09, 1.0, 0.0), atol=1e-8
        )
        np.testing.assert_allclose(
            spray_metric(chart, 0.5, -0.4), (0.16, 1.0, 0.0), atol=1e-8
        )

    def test_chart_point_dispatch(self):
        l2 = l2_null_spray()
        np.testing.assert_allclose(l2.point(2.0, 0.0), [0.5, 0.5], atol=1e-15)
        s2 = s2_null_spray()
        np.testing.assert_allclose(s2.point(0.0, 0.0), [1.0, 0.0, 0.0], atol=0)

    def test_l2_t_domain(self):
        chart = l2_null_spray()
        lo, hi = chart.t_domain(1.0)
        assert lo == -math.inf and hi == 2.0

    def test_grid_metric_shape(self):
        chart = s2_null_spray()
        grid = spray_metric_grid(chart, [0.0, 1.0], [-0.5, 0.0, 0.5])
        assert grid.shape == (2, 3, 3)
        for i, s in enumerate((0.0, 1.0)):
            for j, t in enumerate((-0.5, 0.0, 0.5)):
                np.testing.assert_allclose(
                    grid[i, j], XSquaredMetric.components(s, t), atol=1e-10
                )


def l2_base_curve():
    pt = lambda s: np.array([1.0 / s, 1.0 / s])
    vel = lambda s: np.array([-1.0 / s**2, -1.0 / s**2])
    return pt, vel


class TestBuildSpray:
    def test_numeric_chart_matches_closed_chart(self):
        chart = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        assert chart.kind == "numeric"
        for s, t in ((0.8, 0.4), (1.5, -0.9), (1.1, 1.2)):
            np.testing.assert_allclose(
                chart.point(s, t), map_T_L2(s, t), atol=1e-8
            )

    def test_numeric_chart_normal_form(self):
        chart = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        grid = spray_metric_grid(
            chart, np.linspace(0.6, 1.8, 5), np.linspace(-1.0, 1.0, 5)
        )
        for i, s in enumerate(np.linspace(0.6, 1.8, 5)):
            for j, t in enumerate(np.linspace(-1.0, 1.0, 5)):
                np.testing.assert_allclose(
                    grid[i, j], XSquaredMetric.components(s, t), atol=1e-8
                )

    def test_transported_frame_stays_constant(self):
        # the seed frame (1/2, -1/2) is already parallel along this curve
        chart = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        for s in (0.55, 0.9, 1.3, 1.95):
            np.testing.assert_allclose(chart.xi(s), [0.5, -0.5], atol=1e-9)

    def test_frame_invariants_along_curve(self):
        chart = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        pt, vel = l2_base_curve()
        for s in (0.6, 1.0, 1.7):
            g = l2_metric(pt(s))
            xi = chart.xi(s)
            assert abs(float(xi @ g @ xi)) < 1e-10
            assert abs(float(vel(s) @ g @ xi) - 1.0) < 1e-10

    def test_rejects_timelike_base(self):
        pt = lambda s: np.array([s, 0.0])
        vel = lambda s: np.array([1.0, 0.0])
        with pytest.raises(NotNullGeodesicError):
            build_spray("L2", (pt, vel), (0.5, -0.5), (0.5, 2.0))

    def test_rejects_nonaffine_parametrization(self):
        # same null line, quadratic parameter: null but not a geodesic in s
        pt = lambda s: np.array([1.0 / s**2, 1.0 / s**2])
        vel = lambda s: np.array([-2.0 / s**3, -2.0 / s**3])
        with pytest.raises(NotNullGeodesicError):
            build_spray("L2", (pt, vel), (0.5, -0.5), (0.8, 1.2))

    def test_rejects_bad_pairing(self):
        with pytest.raises(BadNormalizationError):
            build_spray("L2", l2_base_curve(), (-0.5, 0.5), (0.5, 2.0))
        with pytest.raises(BadNormalizationError):
            build_spray("L2", l2_base_curve(), (1.0, -1.0), (0.5, 2.0))
        # pairing with the tangent itself vanishes
        with pytest.raises(BadNormalizationError):
            build_spray("L2", l2_base_curve(), (0.5, 0.5), (0.5, 2.0))

    def test_rejects_non_null_seed(self):
        with pytest.raises(BadNormalizationError):
            build_spray("L2", l2_base_curve(), (0.6, -0.4), (0.5, 2.0))

    def test_rejects_model_without_metric(self):
        with pytest.raises(NoMetricError):
            build_spray("S1", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            build_spray("L2", l2_base_curve(), (0.5, -0.5), (2.0, 0.5))

    def test_single_point_metric_helper(self):
        chart = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        got = spray_metric(chart, 1.3, 0.7)
        np.testing.assert_allclose(got, (0.49, 1.0, 0.0), atol=1e-8)


class TestSpines:
    def test_vertical_form_at_example_point(self):
        chart = spine_sprays("vertical")
        got = spray_metric(chart, 0.2, 0.7)
        want = (math.cosh(0.7) ** 2, 0.0, -1.0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_vertical_form_on_grid(self):
        # t stays inside every column: the normals blow up at finite t > 0
        chart = spine_sprays("vertical")
        for s in np.linspace(-1.0, 1.0, 5):
            for t in np.linspace(-1.2, 0.45, 5):
                got = spray_metric(chart, s, t)
                np.testing.assert_allclose(
                    got, chart.expected_form(s, t), atol=1e-6
                )

    def test_horizontal_form_at_sample(self):
        chart = spine_sprays("horizontal")
        got = spray_metric(chart, 0.9, 0.3)
        want = (-math.cos(0.3) ** 2, 0.0, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_horizontal_form_on_grid(self):
        chart = spine_sprays("horizontal")
        for s in np.linspace(0.4, 3.0, 5):
            for t in np.linspace(-1.5, 0.25, 5):
                got = spray_metric(chart, s, t)
                np.testing.assert_allclose(
                    got, chart.expected_form(s, t), atol=1e-6
                )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spine_sprays("diagonal")

    def test_out_of_column_raises(self):
        chart = spine_sprays("horizontal")
        with pytest.raises(DifferentiationFailureError):
            spray_metric(chart, 0.9, 1e6)

    @pytest.mark.parametrize("kind, s, t", [("horizontal", 0.9, 4.0), ("vertical", 0.3, 2.0)])
    def test_points_past_the_escape_raise(self, kind, s, t):
        # the horizontal map is 2 pi-periodic in t: at t = 4 it would land on
        # another branch with x1 > 0
        chart = spine_sprays(kind)
        with pytest.raises(DomainError):
            chart.point(s, t)
        with pytest.raises(DifferentiationFailureError):
            spray_metric(chart, s, t)

    def test_vertical_normals_obey_orbit_invariant(self):
        # each normal column lies on x1^2 - x2^2 - 2 x2 cot(s) = -1, a
        # family of disjoint curves, so distinct columns never meet
        chart = spine_sprays("vertical")
        for s in (-1.2, -0.7, 0.3, 0.9, 1.3):
            lo, hi = chart.t_domain(s)
            for t in np.linspace(max(lo, -5.0) + 1e-3, min(hi, 5.0) - 1e-3, 9):
                x1, x2 = chart.point(s, t)
                assert x1 > 0.0
                assert abs(x1 * x1 - x2 * x2 - 2.0 * x2 / math.tan(s) + 1.0) < 1e-8


# the spine frames written out by hand: kind -> (sigma, sigma', xi, xi')
SPINE_FRAMES = {
    "vertical": (
        lambda s: np.array([1.0 / math.cos(s), math.tan(s)]),
        lambda s: np.array([math.tan(s) / math.cos(s), 1.0 / math.cos(s) ** 2]),
        lambda s: np.array([1.0 / math.cos(s) ** 2, math.tan(s) / math.cos(s)]),
        lambda s: np.array([
            2.0 * math.tan(s) / math.cos(s) ** 2,
            1.0 / math.cos(s) ** 3 + math.tan(s) ** 2 / math.cos(s),
        ]),
    ),
    "horizontal": (
        lambda s: np.array([1.0 / math.sinh(s), math.sqrt(2.0) - 1.0 / math.tanh(s)]),
        lambda s: np.array([-math.cosh(s) / math.sinh(s) ** 2, 1.0 / math.sinh(s) ** 2]),
        lambda s: np.array([1.0 / math.sinh(s) ** 2, -math.cosh(s) / math.sinh(s) ** 2]),
        lambda s: np.array([
            -2.0 * math.cosh(s) / math.sinh(s) ** 3,
            -1.0 / math.sinh(s) + 2.0 * math.cosh(s) ** 2 / math.sinh(s) ** 3,
        ]),
    ),
}


def _spine_s_values(chart, n=9):
    return np.linspace(chart.s_range[0] + 0.01, chart.s_range[1] - 0.01, n)


@pytest.mark.parametrize("kind", sorted(SPINE_FRAMES))
class TestClosedSpinesAgainstHandFrames:
    def test_base_curve_and_partials_are_the_hand_frame(self, kind):
        chart = spine_sprays(kind)
        sigma, sigma_vel, xi, _ = SPINE_FRAMES[kind]
        for s in _spine_s_values(chart):
            np.testing.assert_allclose(chart.sigma(s), sigma(s), rtol=0, atol=1e-12)
            np.testing.assert_allclose(chart.sigma_vel(s), sigma_vel(s), rtol=0, atol=1e-12)
            np.testing.assert_allclose(chart.xi(s), xi(s), rtol=0, atol=1e-12)

    def test_hand_normal_is_parallel_along_the_spine(self, kind):
        chart = spine_sprays(kind)
        sigma, sigma_vel, xi, xi_vel = SPINE_FRAMES[kind]
        for s in _spine_s_values(chart):
            gamma = christoffel_at(get_model("L2").field, sigma(s))
            cov = xi_vel(s) + np.einsum("ijk,i,j->k", gamma, sigma_vel(s), xi(s))
            assert float(np.max(np.abs(cov))) < 1e-9

    def test_columns_are_the_fitted_normal_geodesics(self, kind):
        chart = spine_sprays(kind)
        sigma, _, xi, _ = SPINE_FRAMES[kind]
        for s in _spine_s_values(chart):
            geo = fit_l2_geodesic(sigma(s), xi(s))
            lo, hi = chart.t_domain(s)
            for got, want in ((lo, geo.t_min), (hi, geo.t_max)):
                assert got == want or abs(got - want) < 1e-13
            for t in np.linspace(max(lo, -5.0) + 1e-3, min(hi, 5.0) - 1e-3, 9):
                np.testing.assert_allclose(
                    chart.point(s, t), geo.point(t), rtol=1e-10, atol=0
                )


@pytest.fixture(scope="module")
def vertical():
    return spine_findings(spine_sprays("vertical"), n_s=41, n_t=41)


@pytest.fixture(scope="module")
def horizontal():
    return spine_findings(spine_sprays("horizontal"), n_s=41, n_t=41)


def _folding_chart() -> SprayChart:
    """The closed map (s, t) -> (s^2, t): nodes (s, t) and (-s, t) collide."""
    return SprayChart(
        label="fold",
        kind="closed-chart",
        sigma=lambda s: np.array([s * s, 0.0]),
        sigma_vel=lambda s: np.array([2.0 * s, 0.0]),
        xi=lambda s: np.array([0.0, 1.0]),
        s_range=(-1.0, 1.0),
        closed_map=lambda s, t: np.array([s * s, t]),
    )


class TestSpineFindings:
    def test_no_collisions_measured(self, vertical, horizontal):
        assert vertical.collision is None
        assert horizontal.collision is None

    def test_folding_chart_collision_is_the_closest_mirror_pair(self):
        found = spine_findings(_folding_chart(), n_s=11, n_t=7)
        (s1, t1), (s2, t2), gap = found.collision
        assert t1 == t2
        assert s1 < 0.0 < s2
        assert abs(s1 + s2) < 1e-12
        assert gap == found.min_pair_gap < 1e-6
        # oracle: every well-separated node pair, compared directly
        s_vals = np.linspace(-0.99, 0.99, 11)
        t_vals = np.linspace(-6.0 + 0.012, 6.0 - 0.012, 7)
        nodes = [(s, t) for s in s_vals for t in t_vals]
        gaps = [
            float(np.linalg.norm([a[0] ** 2 - b[0] ** 2, a[1] - b[1]]))
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 0.25
        ]
        assert gap == min(gaps)

    def test_close_pairs_match_kd_tree_on_random_clouds(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(5)
        for trial in range(60):
            n, dim = int(rng.integers(2, 300)), int(rng.integers(2, 4))
            pts = rng.uniform(-1.0, 1.0, size=(n, dim))
            if trial % 3 == 0:
                pts = np.round(pts * 8.0) / 8.0  # repeated x1 values and points
            r = float(rng.uniform(0.01, 0.3))
            tree = spatial.cKDTree(pts)
            want = sorted(map(tuple, tree.query_pairs(r, output_type="ndarray").tolist()))
            assert _close_pairs(pts, r) == want
            nearest = float(np.min(tree.query(pts, k=2)[0][:, 1]))
            cloud = (np.arange(n), [0.0])
            assert injectivity_gap(lambda s, t: pts[int(s)], cloud) == nearest

    def test_both_charts_miss_window_cells(self, vertical, horizontal):
        assert 0 < vertical.unreached_cells < vertical.total_cells
        assert 0 < horizontal.unreached_cells < horizontal.total_cells


class TestCrossChecks:
    def test_numeric_vs_complex_step_metric(self):
        numeric = build_spray("L2", l2_base_curve(), (0.5, -0.5), (0.5, 2.0))
        closed = l2_null_spray()
        for s, t in ((0.7, 0.5), (1.2, -0.8), (1.8, 0.9)):
            a = spray_metric(numeric, s, t)
            b = spray_metric(closed, s, t)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_report_max_defect_definition(self):
        rows = np.array([[0.0, 0.0, 1e-12, -3e-9, 2e-10]])
        report = IsometryReport(label="x", columns=("s", "t", "a", "b", "c"), rows=rows)
        assert report.max_defect == pytest.approx(3e-9)

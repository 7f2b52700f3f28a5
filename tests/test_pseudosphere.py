"""Ambient pseudosphere geodesics, chart lifts, and the exp coverage map.

Oracles: the ambient formulas are checked against the defining ODE
sigma'' = -<sigma', sigma'> sigma via complex-step differentiation of the
closed velocity (independent of the construction), against conservation
of <sigma, sigma>, and against the chart pullback of the flat ambient
inner product.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf.catalog import get_model, model_metric
from affinesurf.coverage import REACHED, UNKNOWN, UNREACHED, exp_coverage
from affinesurf.errors import DomainError, LiftAmbiguityError, NotTangentError
from affinesurf.pseudosphere import (
    apex_reach,
    chart_T,
    chart_pullback_metric,
    lift_path,
    minkowski_inner,
    pseudosphere_geodesic,
    write_ambient_csv,
)


def random_surface_point(rng) -> np.ndarray:
    u = float(rng.uniform(-2.0, 2.0))
    v = float(rng.uniform(-math.pi, math.pi))
    return chart_T(u, v)


def random_tangent(rng, p) -> np.ndarray:
    # tangent vectors are Minkowski-orthogonal to the position
    u, v = math.asinh(p[2]), math.atan2(p[1], p[0])
    su, cu = math.sinh(u), math.cosh(u)
    t_u = np.array([su * math.cos(v), su * math.sin(v), cu])
    t_v = np.array([-cu * math.sin(v), cu * math.cos(v), 0.0])
    a, b = rng.uniform(-2.0, 2.0, size=2)
    return a * t_u + b * t_v


class TestInnerAndChart:
    def test_signature_example(self):
        assert minkowski_inner((1, 2, 3), (4, 5, 6)) == -4.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            minkowski_inner((1, 2), (3, 4))

    def test_chart_example_and_periodicity(self):
        assert np.allclose(chart_T(0.0, math.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, v = rng.uniform(-3, 3, size=2)
            assert np.allclose(
                chart_T(u, v), chart_T(u, v + 2 * math.pi), atol=1e-12
            )
            p = chart_T(u, v)
            assert abs(minkowski_inner(p, p) - 1.0) < 1e-12

    def test_pullback_metric_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            u, v = rng.uniform(-2.5, 2.5, size=2)
            g = chart_pullback_metric(u, v)
            want = np.diag([-1.0, math.cosh(u) ** 2])
            assert np.allclose(g, want, atol=1e-10)

    def test_pullback_matches_catalog_metric(self):
        metric = model_metric("pseudosphere")
        rng = np.random.default_rng(9)
        for _ in range(30):
            u, v = rng.uniform(-2.0, 2.0, size=2)
            assert np.allclose(
                chart_pullback_metric(u, v), metric((u, v)), atol=1e-12
            )


class TestGeodesics:
    def test_spacelike_example(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 0))
        assert geo.family == "spacelike"
        assert np.allclose(geo.point(math.pi), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_null_example(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 1))
        assert geo.family == "null"
        assert np.allclose(geo.point(5.0), [1.0, 5.0, 5.0], atol=1e-15)

    def test_timelike_family_label(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 0.3, 1.1))
        assert geo.family == "timelike"

    def test_velocity_at_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = random_surface_point(rng)
            xi = random_tangent(rng, p)
            geo = pseudosphere_geodesic(p, xi)
            assert np.allclose(geo.point(0.0), p, atol=1e-12)
            assert np.allclose(geo.velocity(0.0), xi, atol=1e-12)

    def test_stays_on_surface_relative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_surface_point(rng)
            xi = random_tangent(rng, p)
            geo = pseudosphere_geodesic(p, xi)
            for t in np.linspace(-20.0, 20.0, 41):
                x = geo.point(float(t))
                norm2 = minkowski_inner(x, x)
                scale = max(1.0, float(np.max(np.abs(x))) ** 2)
                assert abs(norm2 - 1.0) <= 1e-10 * scale

    def test_acceleration_proportional_to_position(self):
        # complex step through the closed velocity: an oracle the
        # construction itself never evaluates
        rng = np.random.default_rng(12)
        h = 1e-20
        for _ in range(15):
            p = random_surface_point(rng)
            xi = random_tangent(rng, p)
            geo = pseudosphere_geodesic(p, xi)
            q = minkowski_inner(xi, xi)
            for t in (-3.0, -0.7, 0.0, 1.3, 4.0):
                acc = np.imag(geo.velocity(t + 1j * h)) / h
                want = -q * geo.point(t)
                scale = 1.0 + float(np.max(np.abs(want)))
                assert np.max(np.abs(acc - want)) <= 1e-10 * scale

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            pseudosphere_geodesic((2, 0, 0), (0, 1, 0))
        with pytest.raises(NotTangentError):
            pseudosphere_geodesic((1, 0, 0), (1, 1, 0))
        with pytest.raises(ValueError):
            pseudosphere_geodesic((1, 0, 0), (0, 1))
        with pytest.raises(ValueError):
            pseudosphere_geodesic((1, 0, 0), (0, math.nan, 0))

    def test_csv_output(self, tmp_path):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 1))
        path = tmp_path / "amb.csv"
        write_ambient_csv(path, geo, [0.0, 1.0, 2.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert len(lines) == 4
        assert lines[2].split(",") == ["1", "1", "1", "1"]


class TestApexReach:
    def test_far_negative_x1_unreachable(self):
        # every apex geodesic has x1(t) in {cos, 1, cosh}: bounded below by -1
        for u in (1.0, 1.5, 2.5):
            target = chart_T(u, math.pi)  # x1 = -cosh u <= -1.54
            assert target[0] < -1.5 or u == 1.0
            verdict, geo, t = apex_reach(target)
            assert verdict == UNREACHED
            assert geo is None

    def test_random_surface_targets_with_witness(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(60):
            q = random_surface_point(rng)
            verdict, geo, t = apex_reach(q)
            if q[0] > -1.0 + 1e-10:
                assert verdict == REACHED
                assert np.allclose(geo.point(t), q, atol=1e-8)
                hits += 1
            else:
                assert verdict in (UNREACHED, UNKNOWN)
        assert hits > 30

    def test_antipode_reached(self):
        verdict, geo, t = apex_reach((-1.0, 0.0, 0.0))
        assert verdict == REACHED
        assert np.allclose(geo.point(t), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_base_itself(self):
        verdict, geo, t = apex_reach((1.0, 0.0, 0.0))
        assert verdict == REACHED and t == 0.0

    def test_off_surface_rejected(self):
        with pytest.raises(DomainError):
            apex_reach((0.0, 0.0, 0.0))


class TestLift:
    def test_spacelike_lift_passes_focus(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 0.2))
        ts = np.linspace(0.0, math.pi / geo.omega, 400)
        u, v = lift_path(geo.sample(ts))
        assert abs(u[0]) < 1e-14 and abs(v[0]) < 1e-14
        assert abs(u[-1]) < 1e-9
        assert abs(abs(v[-1]) - math.pi) < 1e-9

    def test_null_lift_asymptotically_horizontal(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 1))
        ts = np.linspace(0.0, 500.0, 20000)
        u, v = lift_path(geo.sample(ts))
        assert abs(v[-1] - math.pi / 2) < 5e-3
        assert u[-1] > 6.0  # u keeps growing while v saturates

    def test_coarse_sampling_raises(self):
        geo = pseudosphere_geodesic((1, 0, 0), (0, 1, 0))
        ts = np.linspace(0.0, 2.0 * math.pi, 5)  # quarter-turn jumps
        with pytest.raises(LiftAmbiguityError):
            lift_path(geo.sample(ts))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lift_path(np.zeros((3, 2)))


def reached_by_rule(u, v):
    """Closed-form exp image of the (u, v) chart from (0, 0): the target is
    reached iff |cosh u cos v| < 1, or cosh u cos v >= 1 and |v| < pi/2
    (the focal points (0, k pi) are measure zero and left out)."""
    c = np.cosh(u) * np.cos(v)
    return (np.abs(c) < 1.0) | ((c >= 1.0) & (np.abs(v) < math.pi / 2))


@pytest.fixture(scope="module")
def cover():
    # T(u, v) is 2 pi periodic in v, so the catalog chart is the universal cover
    field = get_model("pseudosphere").field
    return exp_coverage(field, (0.0, 0.0), (-4.0, 4.0, -4.0, 4.0), 40)


class TestCoverageAgainstTheClosedForm:
    @pytest.fixture(scope="class")
    def rule_cells(self, cover):
        """Per cell: the rule on a 5 x 5 grid of points spanning the cell."""
        n_u, n_v = cover.shape
        out = np.empty((n_u, n_v, 25), dtype=bool)
        for i in range(n_u):
            for j in range(n_v):
                u, v = np.meshgrid(
                    np.linspace(cover.x_edges[i], cover.x_edges[i + 1], 5),
                    np.linspace(cover.y_edges[j], cover.y_edges[j + 1], 5),
                )
                out[i, j] = reached_by_rule(u, v).ravel()
        return out

    def test_map_shape_and_base(self, cover):
        assert cover.base == (0.0, 0.0)
        assert cover.shape == (40, 40)

    def test_no_wholly_unreached_cell_reads_reached(self, cover, rule_cells):
        unreached = ~rule_cells.any(axis=2)
        assert unreached.sum() == 680
        assert not np.any(cover.grid[unreached] == REACHED)

    def test_wholly_reachable_cells_read_reached(self, cover, rule_cells):
        reachable = rule_cells.all(axis=2)
        assert reachable.sum() == 780
        hits = np.sum(cover.grid[reachable] == REACHED)
        assert hits >= 0.98 * reachable.sum()

    def test_no_cell_reads_unreached(self, cover):
        # a sweep has no proof of unreachability
        assert not np.any(cover.grid == UNREACHED)

    @pytest.mark.parametrize(
        "u, v",
        [
            (0.0, math.pi / 2),  # equator
            (3.5, 0.1), (-3.5, -0.1), (3.5, -0.1), (-3.5, 0.1),  # inside the null asymptotes
            (0.05, math.pi),  # its cell holds reachable points (0, pi - d) near the focus
            (-3.9, 1.3), (-3.9, -1.3),  # cosh u cos v ~ 6.6 with |v| < pi/2
        ],
    )
    def test_reachable_points_read_reached(self, cover, u, v):
        assert cover.value_at(u, v) == REACHED

    @pytest.mark.parametrize("u, v", [(3.5, 2.5), (-3.5, 2.5), (3.5, -2.5), (2.5, 3.9)])
    def test_unreachable_points_read_unknown(self, cover, u, v):
        # beyond v = pi/2 the reachable |u| is capped by arcsinh |tan v|
        assert not reached_by_rule(u, v)
        assert cover.value_at(u, v) == UNKNOWN

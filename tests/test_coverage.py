"""Coverage maps for the exponential map.

Oracle: on the Lorentz half-plane a target (x1, x2) is reachable from
(p1, p2) exactly when x1 > 0 and |x2 - p2| < p1 + x1.  Every geodesic
orbit x1^2 - (x2 + beta)^2 = mu satisfies |x2 - p2| < p1 + x1 along its
branch through the base (triangle inequality on the orbit equation), and
conversely each such target admits an orbit: the tests below check the
map against this wedge rule rather than against the implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesurf import coverage
from affinesurf.catalog import get_model
from affinesurf.coverage import (
    REACHED,
    UNKNOWN,
    UNREACHED,
    CoverageMap,
    exp_coverage,
    l2_reach_verdict,
)
from affinesurf.errors import DomainError, InvalidIVPError


def wedge_reachable(base, target) -> bool:
    return target[0] > 0.0 and abs(target[1] - base[1]) < base[0] + target[0]


class TestVerdictOracle:
    def test_known_examples(self):
        assert l2_reach_verdict((1.0, 0.0), (1.0, 2.5)) == UNREACHED
        assert l2_reach_verdict((1.0, 0.0), (2.0, 1.0)) == REACHED

    def test_matches_wedge_rule_on_random_targets(self):
        rng = np.random.default_rng(411)
        base = (1.0, 0.0)
        for _ in range(300):
            target = (float(rng.uniform(0.05, 5.0)), float(rng.uniform(-6.0, 6.0)))
            if abs(abs(target[1]) - (1.0 + target[0])) < 1e-3:
                continue  # stay off the boundary where the rule is marginal
            want = REACHED if wedge_reachable(base, target) else UNREACHED
            assert l2_reach_verdict(base, target) == want, target

    def test_matches_wedge_rule_for_shifted_base(self):
        rng = np.random.default_rng(412)
        base = (0.7, -1.3)
        for _ in range(200):
            target = (float(rng.uniform(0.05, 4.0)), float(rng.uniform(-7.0, 5.0)))
            if abs(abs(target[1] - base[1]) - (base[0] + target[0])) < 1e-3:
                continue
            want = REACHED if wedge_reachable(base, target) else UNREACHED
            assert l2_reach_verdict(base, target) == want, target

    def test_vertical_and_base_targets(self):
        assert l2_reach_verdict((1.0, 0.0), (1.0, 0.0)) == REACHED
        assert l2_reach_verdict((1.0, 0.0), (3.7, 0.0)) == REACHED
        assert l2_reach_verdict((1.0, 0.0), (0.02, 0.0)) == REACHED

    def test_other_line_of_a_null_pair_unreached(self):
        # the candidate orbit through (1, 0) and (2, -3) is the null line
        # pair x1 = |x2 + 1|; the base lies on x1 = x2 + 1, the target on
        # x1 = -(x2 + 1)
        assert not wedge_reachable((1.0, 0.0), (2.0, -3.0))
        assert l2_reach_verdict((1.0, 0.0), (2.0, -3.0)) == UNREACHED

    def test_nonpositive_x1_unreached(self):
        assert l2_reach_verdict((1.0, 0.0), (-0.5, 0.3)) == UNREACHED

    def test_bad_base_raises(self):
        with pytest.raises(DomainError):
            l2_reach_verdict((0.0, 0.0), (1.0, 1.0))


def _grid64(lo: int, hi: int):
    return st.integers(lo * 64, hi * 64).map(lambda n: n / 64.0)


@settings(max_examples=300, deadline=None)
@given(
    base=st.tuples(_grid64(0, 3).filter(lambda x: x > 0.0), _grid64(-3, 3)),
    target=st.tuples(_grid64(-1, 5), _grid64(-6, 6)),
    s=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
    d=st.integers(-8, 8),
)
def test_verdict_invariant_under_l2_symmetries(base, target, s, d):
    # (x1, x2) -> (s*x1, s*x2 + d) preserves the L2 connection; on a 1/64
    # grid every image coordinate is exact, so the verdicts must agree
    def image(p):
        return (s * p[0], s * p[1] + d)

    assert l2_reach_verdict(base, target) == l2_reach_verdict(image(base), image(target))


@pytest.fixture(scope="module")
def cover():
    field = get_model("L2").field
    return exp_coverage(field, (1.0, 0.0), (0.0, 4.0, -4.0, 4.0), 40, angles=256)


class TestL2Map:
    def test_shape_and_edges(self, cover):
        assert cover.shape == (40, 40)
        assert cover.x_edges[0] == 0.0 and cover.x_edges[-1] == 4.0
        assert cover.y_edges[0] == -4.0 and cover.y_edges[-1] == 4.0

    def test_wedge_cells_unreached(self, cover):
        cx, cy = cover.centers()
        checked = 0
        for i, x in enumerate(cx):
            for j, y in enumerate(cy):
                if abs(y) >= 1.0 + x + 0.05:
                    assert cover.grid[i, j] == UNREACHED, (x, y)
                    checked += 1
        assert checked > 100

    def test_interior_cells_reached(self, cover):
        cx, cy = cover.centers()
        interior = 0
        hit = 0
        for i, x in enumerate(cx):
            for j, y in enumerate(cy):
                if abs(y) <= 1.0 + x - 0.05:
                    interior += 1
                    hit += cover.grid[i, j] == REACHED
        assert interior > 200
        assert hit / interior >= 0.95

    def test_no_unknown_cells(self, cover):
        assert cover.counts()["unknown"] == 0

    def test_value_at_and_csv(self, cover, tmp_path):
        assert cover.value_at(2.0, 0.0) == REACHED
        assert cover.value_at(0.5, 3.5) == UNREACHED
        path = tmp_path / "cover.csv"
        cover.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        assert all(len(line.split(",")) == 40 for line in lines)
        top = [int(v) for v in lines[0].split(",")]  # row at x2 near +4
        assert top[0] == UNREACHED  # (0.05, 3.9) lies above the wedge line
        with pytest.raises(DomainError):
            cover.value_at(5.0, 0.0)


def test_l2_map_makes_no_root_search(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the L2 map called brentq")

    monkeypatch.setattr(coverage, "brentq", boom)
    field = get_model("L2").field
    cover = exp_coverage(field, (1.0, 0.0), (0.0, 4.0, -4.0, 4.0), 40)
    assert cover.counts()["unknown"] == 0


class TestSweepMap:
    def test_s3_reached_cells_confined_to_strip(self):
        field = get_model("S3").field
        cover = exp_coverage(
            field, (1.0, 0.0), (0.0, 4.0, -4.0, 4.0), 32, angles=96, t_max=20.0
        )
        cx, cy = cover.centers()
        reached_outside = 0
        reached_inside = 0
        for i in range(32):
            for j in range(32):
                if cover.grid[i, j] == REACHED:
                    if abs(cy[j]) >= math.pi:
                        reached_outside += 1
                    else:
                        reached_inside += 1
        assert reached_outside == 0
        assert reached_inside > 50
        # without closed forms the sweep never claims unreachability
        assert cover.counts()["unreached"] == 0

    def test_sweep_launches_every_requested_angle(self, monkeypatch):
        launched = []

        def fake(field, base, velocities, t_span, **kwargs):
            launched.extend(velocities)
            return []

        monkeypatch.setattr(coverage, "integrate_geodesics", fake)
        exp_coverage(
            get_model("S3").field, (0.0, 0.0), (-1.0, 1.0, -1.0, 1.0), 4, angles=512
        )
        assert len(launched) == 512

    @pytest.mark.parametrize("angles", [0, -1])
    def test_sweep_rejects_angles_below_one(self, monkeypatch, angles):
        def fake(*args, **kwargs):
            raise AssertionError("no geodesic may be launched")

        monkeypatch.setattr(coverage, "integrate_geodesics", fake)
        with pytest.raises(ValueError, match="angles"):
            exp_coverage(
                get_model("S3").field, (0.0, 0.0), (-1.0, 1.0, -1.0, 1.0), 4,
                angles=angles,
            )

    def test_l2_closed_form_ignores_angles(self):
        field = get_model("L2").field
        window = (0.5, 2.0, -1.0, 1.0)
        got = exp_coverage(field, (1.0, 0.0), window, 6, angles=0)
        want = exp_coverage(field, (1.0, 0.0), window, 6)
        assert np.array_equal(got.grid, want.grid)

    def test_sweep_rejects_base_outside_chart(self):
        field = get_model("S4", c=1).field
        with pytest.raises(DomainError):
            exp_coverage(field, (-1.0, 0.0), (0.0, 2.0, -2.0, 2.0), 8)


def test_non_finite_inputs_are_rejected():
    window = (0.5, 2.0, -1.0, 1.0)
    with pytest.raises(InvalidIVPError, match="finite"):
        exp_coverage(get_model("H2").field, (1.0, 0.0), window, 4, angles=8, t_max=math.nan)
    for base in [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(DomainError, match="finite"):
            exp_coverage(get_model("L2").field, base, window, 4)


class TestCoverageMapContainer:
    def test_roundtrip_orientation(self, tmp_path):
        grid = np.arange(6).reshape(3, 2) % 3
        cm = CoverageMap(
            base=(1.0, 0.0),
            x_edges=np.array([0.0, 1.0, 2.0, 3.0]),
            y_edges=np.array([-1.0, 0.0, 1.0]),
            grid=grid,
        )
        path = tmp_path / "grid.csv"
        cm.to_csv(path)
        lines = path.read_text().splitlines()
        # top row is the high-x2 cells: grid[:, 1]
        assert lines[0] == ",".join(str(v) for v in grid[:, 1])
        assert lines[1] == ",".join(str(v) for v in grid[:, 0])

"""Coverage maps for the exponential map.

Oracle: on the Lorentz half-plane a target (x1, x2) is reachable from
(p1, p2) exactly when x1 > 0 and |x2 - p2| < p1 + x1.  Every geodesic
orbit x1^2 - (x2 + beta)^2 = mu satisfies |x2 - p2| < p1 + x1 along its
branch through the base (triangle inequality on the orbit equation), and
conversely each such target admits an orbit: the tests below check the
map against this wedge rule rather than against the implementation.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from affinesurf.errors import DegenerateFitError, DomainError, InvalidIVPError
from affinesurf.fields import ChristoffelField
from affinesurf.lorentz import fit_l2_geodesic, l2_log


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

    def test_near_vertical_target_far_from_the_base_is_reached(self):
        # 6.3e-5 above the base's x2: an aim along the orbit constant
        # beta ~ 1e4 missed this target by more than 1e-8
        assert l2_reach_verdict((1.547, -0.132), (2.0, -0.131937)) == REACHED

    def test_near_vertical_targets_are_confirmed(self):
        rng = random.Random(1930)
        base = (1.547, -0.132)
        verdicts = Counter()
        for _ in range(4000):
            dx2 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -2.0)
            verdicts[l2_reach_verdict(base, (rng.uniform(0.05, 6.5), base[1] + dx2))] += 1
        assert verdicts[UNREACHED] == 0 and verdicts[UNKNOWN] <= 5

    def test_near_null_targets_are_confirmed(self):
        # |x2 - b2| = |x1 - b1| (1 +- 1e-9): c = <E(p), E(q)> is within
        # about 1e-9 of 1, where 1 - c**2 must come from the factored m and p
        rng = random.Random(964)
        for _ in range(2000):
            base = (rng.uniform(0.05, 4.0), rng.uniform(-4.0, 4.0))
            d1 = rng.uniform(-0.99 * base[0], 5.0)
            d2 = rng.choice([-1.0, 1.0]) * abs(d1) * (1.0 + rng.choice([-1e-9, 1e-9]))
            target = (base[0] + d1, base[1] + d2)
            assert l2_reach_verdict(base, target) == REACHED, (base, target)

    def test_targets_at_the_wedge_edge_are_never_unreached(self):
        # within 6e-5 of the edge the launch escapes just after t = 1, so
        # the confirmation may fail; the verdict then is UNKNOWN
        rng = random.Random(91)
        for _ in range(2000):
            base = (rng.uniform(0.05, 4.0), rng.uniform(-4.0, 4.0))
            a = rng.uniform(0.05, 5.0)
            d2 = (a + base[0]) * (1.0 - rng.uniform(0.0, 6e-5))
            target = (a, base[1] + rng.choice([-1.0, 1.0]) * d2)
            assert wedge_reachable(base, target)
            assert l2_reach_verdict(base, target) != UNREACHED, (base, target)

    def test_nonpositive_x1_unreached(self):
        assert l2_reach_verdict((1.0, 0.0), (-0.5, 0.3)) == UNREACHED

    def test_bad_base_raises(self):
        with pytest.raises(DomainError):
            l2_reach_verdict((0.0, 0.0), (1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    base=st.tuples(st.floats(0.01, 10.0), st.floats(-10.0, 10.0)),
    target=st.tuples(st.floats(-1.0, 10.0), st.floats(-20.0, 20.0)),
)
# launches the closed-form fit cannot carry (v1**2 - v2**2 underflows; a
# nearly vertical orbit with beta ~ 1e170 overflows) and targets whose
# x1 is 1e308 times smaller than the base's
@example(base=(1.0, 0.0), target=(1.0, 3.384437812916436e-173))
@example(base=(1.0, 3.384437812916436e-173), target=(3.731202708851291e-274, 0.0))
@example(base=(0.25, 0.0), target=(5e-324, 0.0))
@example(base=(10.0, 0.0), target=(5e-324, 0.0))
def test_unreached_exactly_outside_the_wedge(base, target):
    assert (l2_reach_verdict(base, target) == UNREACHED) == (not wedge_reachable(base, target))


def test_target_whose_fit_underflows_reads_unknown():
    # the log launch (0, 3.4e-173) is spacelike, but its lam underflows to 0
    target = (1.0, 3.384437812916436e-173)
    with pytest.raises(DegenerateFitError):
        fit_l2_geodesic((1.0, 0.0), l2_log((1.0, 0.0), target))
    assert l2_reach_verdict((1.0, 0.0), target) == UNKNOWN


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

    def test_value_at_and_csv(self, cover):
        assert cover.value_at(2.0, 0.0) == REACHED
        assert cover.value_at(0.5, 3.5) == UNREACHED
        lines = cover.to_csv().splitlines()
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


def test_unnamed_l2_table_gets_the_closed_form_map():
    # the catalog's L2 connection built without its name, and the same
    # coefficients as a kind-A table, which is a different connection
    window = (0.0, 4.0, -4.0, 4.0)
    unnamed = ChristoffelField.type_b((-1, 0, 0, -1, -1, 0))
    got = exp_coverage(unnamed, (1.0, 0.0), window, 16)
    want = exp_coverage(get_model("L2").field, (1.0, 0.0), window, 16)
    assert np.array_equal(got.grid, want.grid)
    constant = ChristoffelField.type_a((-1, 0, 0, -1, -1, 0))
    swept = exp_coverage(constant, (1.0, 0.0), window, 4, angles=4, t_max=0.5)
    assert UNREACHED not in swept.grid


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
        # an odd count sweeps the doubled fan, so both maps are the same
        field = get_model("H2").field
        maps = [exp_coverage(field, (1.0, 0.1), (0.05, 3.0, -1.9, 2.1), 12, angles=a, t_max=8.0)
                for a in (9, 18)]
        assert np.array_equal(maps[0].grid, maps[1].grid)
        calls = []

        def fake(field, base, velocities, t_max, **kwargs):
            calls.append((list(velocities), t_max))
            return SimpleNamespace(sample_ts=np.empty(1), n_samples=np.empty(0, dtype=int),
                                   sample_ys=np.empty((0, 1, 4)))

        monkeypatch.setattr(coverage, "integrate_geodesics", fake)
        for angles in (512, 7):
            exp_coverage(get_model("S3").field, (0.0, 0.0), (-1.0, 1.0, -1.0, 1.0), 4,
                         angles=angles, t_max=3.0)
        # an even count is a fan closed under v -> -v, stepped forward only
        (even, t_even), (odd, t_odd) = calls
        assert len(even) == 512 and t_even == t_odd == 3.0
        # the doubled fan holds every requested direction with the same bits
        assert len(odd) == 14
        thetas = (2.0 * math.pi * k / 7 for k in range(7))
        assert {(math.cos(th), math.sin(th)) for th in thetas} <= set(odd)

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



# SHA-256 of the CSV of three numeric sweep maps shaped like the benchmark's
# (96 angles, 40 cells), recorded while each map still ran its backward and
# forward launches as two batched runs.  A change to the step loop that
# moves any cell fails here.
SWEEP_PINS = {
    "S3": ((0.3, -0.1), (-2.5, 3.1, -4.3, 4.1), 4.0,
           "7515b7103253abbb6b13b707836edead06add128372b8b997b9b93b297edf83a"),
    "H2": ((1.0, 0.1), (0.05, 3.0, -1.9, 2.1), 40.0,
           "3d0822b860a08c1a3676d013e059fd99d1a93503fbfd71d99db3732642a91d7a"),
    "S3~": ((0.75, 0.1), (-2.25, 3.75, -3.9, 4.1), 10.0,
            "5b40bc21fd57c99f2aeb9ffd5a3c217a81d935830eede7246804426796ed8ebc"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_maps_keep_their_pinned_cells(name):
    base, window, t_max, digest = SWEEP_PINS[name]
    cover = exp_coverage(get_model(name).field, base, window, 40, angles=96, t_max=t_max)
    assert hashlib.sha256(cover.to_csv().encode("ascii")).hexdigest() == digest

def test_non_finite_inputs_are_rejected():
    window = (0.5, 2.0, -1.0, 1.0)
    with pytest.raises(InvalidIVPError, match="finite"):
        exp_coverage(get_model("H2").field, (1.0, 0.0), window, 4, angles=8, t_max=math.nan)
    for base in [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(DomainError, match="finite"):
            exp_coverage(get_model("L2").field, base, window, 4)


class TestCoverageMapContainer:
    def test_roundtrip_orientation(self):
        grid = np.arange(6).reshape(3, 2) % 3
        cm = CoverageMap(
            base=(1.0, 0.0),
            x_edges=np.array([0.0, 1.0, 2.0, 3.0]),
            y_edges=np.array([-1.0, 0.0, 1.0]),
            grid=grid,
        )
        lines = cm.to_csv().splitlines()
        # top row is the high-x2 cells: grid[:, 1]
        assert lines[0] == ",".join(str(v) for v in grid[:, 1])
        assert lines[1] == ",".join(str(v) for v in grid[:, 0])

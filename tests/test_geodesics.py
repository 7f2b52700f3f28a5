"""Geodesic IVPs: closed-form checks, completeness verdicts, exp map."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinesurf.catalog import MODEL_NAMES, get_model
from affinesurf.errors import InvalidIVPError
from affinesurf.fields import KIND_B, ChristoffelField
from affinesurf.geodesics import (
    Incomplete,
    _reduced_rhs,
    _reduced_rhs_batch,
    exp_map,
    geodesic_rhs,
    geodesic_rhs_batch,
    integrate_geodesic,
    write_trajectory_csv,
)

FLAT = ChristoffelField.type_a((0, 0, 0, 0, 0, 0))


def test_flat_geodesics_are_straight_lines():
    traj = integrate_geodesic(FLAT, (0.0, 0.0), (1.0, -2.0), (-1.0, 2.0))
    assert traj.status_forward == "complete"
    assert traj.status_backward == "complete"
    want = np.outer(traj.t, [1.0, -2.0])
    assert np.allclose(traj.x, want, atol=1e-10)
    assert np.allclose(traj.v, np.tile([1.0, -2.0], (len(traj.t), 1)), atol=1e-10)


def test_analytic_gamma_with_five_values_raises():
    # flat until x1 = 1.5, then the callable drops a coefficient
    field = ChristoffelField.analytic(
        lambda x1, x2: (0.0,) * (6 if x1 < 1.5 else 5),
        lambda x1, x2: np.zeros((6, 2)),
    )
    with pytest.raises(ValueError, match="six values"):
        integrate_geodesic(field, (1.0, 0.0), (1.0, 0.0), 2.0)


def test_rhs_packs_velocity_then_acceleration():
    f = geodesic_rhs(get_model("S1").field)
    # S1: xdd1 = (v1)**2 + v1*v2, xdd2 = 0
    out = f(0.0, np.array([0.3, -0.8, 2.0, 5.0]))
    assert np.allclose(out, [2.0, 5.0, 4.0 + 10.0, 0.0])


# Every chart the batched right-hand sides serve: the catalog, a kind-A
# table without a zero entry (no term is left out) and an analytic chart
# that is not a catalog one.
RHS_FIELDS = {name: get_model(name).field for name in MODEL_NAMES if name != "S4"}
RHS_FIELDS.update({
    "S4:c=3/4": get_model("S4", "3/4").field,
    "full-A": ChristoffelField.type_a((1, "-1/3", "2/7", -2, "5/11", "3/5")),
    "cubic": ChristoffelField.analytic(
        lambda x1, x2: (0.0, 0.0, 0.0, 0.0, x1 + 0.3 * x1 ** 3, 0.0),
        lambda x1, x2: ((0.0, 0.0),) * 4 + ((1.0 + 0.9 * x1 ** 2, 0.0), (0.0, 0.0)),
    ),
})
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0)


@st.composite
def _rhs_states(draw):
    """A chart and up to six states in it, with signed zeros among the entries."""
    name = draw(st.sampled_from(sorted(RHS_FIELDS)))
    x1 = st.floats(0.05, 3.0) if RHS_FIELDS[name].kind == KIND_B else _COORDS
    rows = draw(st.lists(st.tuples(x1, _COORDS, _COORDS, _COORDS), min_size=1, max_size=6))
    return name, rows


@settings(max_examples=200, deadline=None)
@example(("full-A", [(0.0, 0.0, 2.9, 1.5)]))  # the (0, 1) and (1, 0) terms in turn
@given(case=_rhs_states())
def test_batched_rhs_rows_have_the_bits_of_the_single_rhs(case):
    # the contraction the batched right-hand sides share must make the
    # single ones' operations in their order, zero terms and signs included
    name, rows = case
    field = RHS_FIELDS[name]
    pairs = [(geodesic_rhs_batch, geodesic_rhs)]
    if field.kind == KIND_B:
        pairs.append((_reduced_rhs_batch, _reduced_rhs))
    y = np.array(rows)
    for batch, single in pairs:
        out = batch(field)(np.zeros(len(rows)), y)
        assert out.shape == y.shape
        for r, row in enumerate(rows):
            assert out[r].tobytes() == np.array(single(field)(0.0, list(row))).tobytes()


def test_batched_reduced_rhs_marks_rows_outside_the_chart():
    f = _reduced_rhs_batch(get_model("H2").field)
    out = f(np.zeros(3), np.array([[1.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5],
                                   [-1.0, 0.0, 0.5, 0.5]]))
    assert np.all(np.isfinite(out[0]))
    assert np.all(np.isnan(out[1:, 0:2]))


def test_s1_blowup_time_is_exact_inverse_speed():
    # With v2 = 0 the S1 equation reduces to u' = u**2: escape at 1/v1.
    model = get_model("S1")
    traj = integrate_geodesic(model.field, (0.0, 0.0), (2.0, 0.0), (0.0, 10.0))
    assert traj.status_forward == "blowup"
    assert abs(traj.t_escape_forward - 0.5) < 1e-7
    # third-quadrant directions are complete instead
    back = integrate_geodesic(model.field, (0.0, 0.0), (-2.0, -1.0), (0.0, 50.0))
    assert back.status_forward == "complete"


def test_s1_closed_form_x1_profile():
    # x1(t) = x1(0) - log(1 - u0*t) when v2 = 0
    model = get_model("S1")
    traj = integrate_geodesic(
        model.field, (0.0, 0.0), (0.5, 0.0), (0.0, 1.0), samples=41
    )
    assert traj.status_forward == "complete"
    want = -np.log1p(-0.5 * traj.t)
    assert np.allclose(traj.x[:, 0], want, atol=1e-9)
    assert np.allclose(traj.x[:, 1], 0.0, atol=1e-12)


def test_s2_exponential_growth_is_complete():
    model = get_model("S2")
    traj = integrate_geodesic(model.field, (0.0, 0.0), (1.0, 1.0), (-50.0, 50.0))
    assert traj.status_forward == "complete"
    assert traj.status_backward == "complete"
    # x2 stays affine; x1 grows roughly like e**t
    assert np.allclose(traj.x[:, 1], traj.t, atol=1e-8 * 50)
    assert traj.x[-1, 0] > 1e10


def test_s3_strip_confinement():
    model = get_model("S3")
    for v in [(0.0, 1.0), (1.0, 1.0), (-0.5, -2.0), (0.3, 0.7)]:
        traj = integrate_geodesic(model.field, (0.0, 0.0), v, (-40.0, 40.0))
        assert np.max(np.abs(traj.x[:, 1])) < math.pi


def test_s3_vertical_launch_blows_up_at_half_pi():
    # v = (0, 1): x1 = -log(cos t), escape at t = pi/2 both ways
    model = get_model("S3")
    traj = integrate_geodesic(model.field, (0.0, 0.0), (0.0, 1.0), (-5.0, 5.0))
    assert traj.status_forward == "blowup"
    assert traj.status_backward == "blowup"
    assert abs(traj.t_escape_forward - math.pi / 2.0) < 1e-6
    assert abs(traj.t_escape_backward + math.pi / 2.0) < 1e-6


@pytest.mark.parametrize("k", [0.5, 2.0])
@pytest.mark.parametrize("name, v", [("S1", (1.0, 0.0)), ("S3", (0.0, 1.0))])
def test_escape_time_scales_inversely_with_the_speed(name, v, k):
    # v -> k v reparametrizes the geodesic by t -> k t
    field = get_model(name).field
    base = integrate_geodesic(field, (0.0, 0.0), v, (-5.0, 5.0))
    fast = integrate_geodesic(field, (0.0, 0.0), (k * v[0], k * v[1]), (-5.0 / k, 5.0 / k))
    assert fast.status_forward == base.status_forward == "blowup"
    want = base.t_escape_forward / k
    assert abs(fast.t_escape_forward - want) <= 1e-9 * want
    if base.status_backward == "blowup":
        want = base.t_escape_backward / k
        assert abs(fast.t_escape_backward - want) <= 1e-9 * abs(want)


def test_h2_is_complete_through_the_horizon_crawl():
    model = get_model("H2")
    traj = integrate_geodesic(model.field, (1.0, 0.0), (-1.0, 0.5), (0.0, 50.0))
    assert traj.status_forward == "complete"
    assert np.all(traj.x[:, 0] > 0.0)


def test_h2_launch_toward_the_edge_stays_on_its_semicircle():
    # H2 geodesics are semicircles centred on x1 = 0; from (1, 0) along
    # (-1, 0.5) the orbit is x1**2 + (x2 + 2)**2 = 5, and x1 decays like
    # e**-|t| toward both ends
    traj = integrate_geodesic(get_model("H2").field, (1.0, 0.0), (-1.0, 0.5), (-50.0, 50.0))
    assert traj.complete
    assert np.max(traj.x[[0, -1], 0]) < 1e-20
    orbit = traj.x[:, 0] ** 2 + (traj.x[:, 1] + 2.0) ** 2
    assert np.max(np.abs(orbit - 5.0)) < 1e-8


# Kind-B charts are invariant under (x1, x2) -> (s x1, s x2 + d), which maps
# the geodesic from (p, v) to the one from (s p1, s p2 + d, s v): the same
# statuses and escape times, with the trajectory moved by the map.
META_LAUNCHES = [
    ("H2", (1.0, 0.1), (0.6, 0.8)),
    ("H2", (1.0, 0.0), (-1.0, 0.5)),
    ("S5", (1.0, 0.0), (0.3, 1.0)),
    ("S5", (1.0, 0.0), (-1.0, 0.2)),
    ("L2", (1.0, 0.0), (0.0, 1.0)),  # spacelike: escapes both ways
    ("L2", (1.0, 0.0), (1.0, 1.0)),  # null: escapes forward only
    ("L2", (2.0, -1.0), (0.3, 1.1)),
]


@pytest.mark.parametrize("s, d", [(1.0, 0.75), (1.0, -5.0), (0.5, 0.0), (3.0, 0.0)])
@pytest.mark.parametrize("name, p, v", META_LAUNCHES)
def test_kind_b_geodesics_follow_the_chart_symmetries(name, p, v, s, d):
    field = get_model(name).field
    base = integrate_geodesic(field, p, v, (-6.0, 6.0), samples=49)
    moved = integrate_geodesic(field, (s * p[0], s * p[1] + d), (s * v[0], s * v[1]),
                               (-6.0, 6.0), samples=49)
    assert moved.status_forward == base.status_forward
    assert moved.status_backward == base.status_backward
    for got, want in ((moved.t_escape_forward, base.t_escape_forward),
                      (moved.t_escape_backward, base.t_escape_backward)):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-9 * abs(want)
    assert moved.t.tolist() == base.t.tolist()
    np.testing.assert_allclose(moved.x, s * base.x + [0.0, d], rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(moved.v, s * base.v, rtol=1e-8, atol=1e-8)
    assert base.complete == (name != "L2")


def test_l2_null_geodesic_escapes_one_way_only():
    model = get_model("L2")
    traj = integrate_geodesic(model.field, (1.0, 0.0), (1.0, 1.0), (-5.0, 5.0))
    # x1(t) = 1/(1 - t): forward blowup at t = 1, backward complete
    assert traj.status_forward == "blowup"
    assert abs(traj.t_escape_forward - 1.0) < 1e-7
    assert traj.status_backward == "complete"


def test_kind_b_straight_line_leaves_chart():
    fb = ChristoffelField.type_b((0, 0, 0, 0, 0, 0))
    traj = integrate_geodesic(fb, (1.0, 0.0), (-1.0, 0.0), (0.0, 5.0))
    assert traj.status_forward == "left_chart"
    assert abs(traj.t_escape_forward - 1.0) < 1e-3


# Gamma_11^1 = 1/x1: x1'' = -(x1')^2/x1, so (x1^2)'' = 0 and the launch
# (s, 0), v = (-s, 0) gives x1 = s sqrt(1 - 2t), at x1 = 0 when t = 1/2
SQRT_EDGE = ChristoffelField.type_b((1, 0, 0, 0, 0, 0))
# Gamma_22^2 = -1/x1 from (1, 0) with v = (0, 1): p1 stays 0, x1 stays 1 and
# x2 = -log(1 - t) escapes to infinity at t = 1 inside the chart
LOG_ESCAPE = ChristoffelField.type_b((0, 0, 0, 0, 0, -1))


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e5])
def test_a_blowup_into_the_edge_reads_left_chart_both_ways(s):
    # x1 / s is still about 8.5e-6 at the numeric stop, so the status must
    # not hang on the size of x1
    traj = integrate_geodesic(SQRT_EDGE, (s, 0.0), (-s, 0.0), (-1.0, 1.0))
    assert traj.status_forward == "left_chart"
    assert traj.t_escape_forward == pytest.approx(0.5, abs=1e-6)
    assert traj.status_backward == "complete"
    # the reversed launch meets the edge at t = -1/2
    back = integrate_geodesic(SQRT_EDGE, (s, 0.0), (s, 0.0), (-1.0, 1.0))
    assert back.status_backward == "left_chart"
    assert back.t_escape_backward == pytest.approx(-0.5, abs=1e-6)
    assert back.status_forward == "complete"
    ok = traj.t <= 0.45
    np.testing.assert_allclose(traj.x[ok, 0], s * np.sqrt(1.0 - 2.0 * traj.t[ok]), rtol=1e-8)


def test_exp_map_reads_a_run_into_the_edge_as_left_chart():
    # x1 = sqrt(1 - 4t) from (1, 0) with v = (-2, 0)
    miss = exp_map(SQRT_EDGE, (1.0, 0.0), (-2.0, 0.0))
    assert isinstance(miss, Incomplete)
    assert miss.status == "left_chart"
    assert miss.t_escape == pytest.approx(0.25, abs=1e-6)


def test_a_blowup_inside_the_chart_stays_a_blowup():
    traj = integrate_geodesic(LOG_ESCAPE, (1.0, 0.0), (0.0, 1.0), (0.0, 5.0))
    assert traj.status_forward == "blowup"
    assert traj.t_escape_forward == pytest.approx(1.0, abs=1e-6)
    ok = traj.t <= 0.9
    np.testing.assert_allclose(traj.x[ok, 0], 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.x[ok, 1], -np.log1p(-traj.t[ok]), rtol=1e-8)
    # x2 = -log(1 - 2t) with v = (0, 2)
    miss = exp_map(LOG_ESCAPE, (1.0, 0.0), (0.0, 2.0))
    assert isinstance(miss, Incomplete)
    assert miss.status == "blowup"
    assert miss.t_escape == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e5])
def test_a_blowup_of_p2_alone_stays_a_blowup_while_x1_falls(s):
    # Gamma^1 = 0, so x1 = s (1 - 0.1 t) falls at every knot and p1 < 0, but
    # x2' blows up first, at t = 10 (1 - e^-0.1), with x1 = s e^-0.1 inside
    # the chart: p1 stays near -0.1 while p2 grows without bound
    t_stop = 10.0 * -math.expm1(-0.1)
    traj = integrate_geodesic(LOG_ESCAPE, (s, 0.0), (-0.1 * s, s), (0.0, 5.0))
    assert traj.status_forward == "blowup"
    assert traj.t_escape_forward == pytest.approx(t_stop, abs=1e-6)
    assert traj.result_forward.ys[-1, 0] == pytest.approx(s * math.exp(-0.1), rel=1e-6)
    miss = exp_map(LOG_ESCAPE, (s, 0.0), (-0.1 * s, s))
    assert isinstance(miss, Incomplete)
    assert miss.status == "blowup"
    assert miss.t_escape == pytest.approx(t_stop, abs=1e-6)


def _x1_power(res, lo, hi):
    """Slope of log x1 against log |T - t| between the knots nearest
    |T - t| = lo |T| and hi |T|, with T the run's escape time."""
    gap = np.log(np.abs(res.t_escape - res.ts[:-1]) / abs(res.t_escape))
    i, j = (int(np.argmin(np.abs(gap - math.log(g)))) for g in (lo, hi))
    x1 = res.ys[:, 0]
    return (math.log(x1[j]) - math.log(x1[i])) / (gap[j] - gap[i])


def test_random_kind_b_stops_read_left_chart_exactly_when_x1_goes_to_zero():
    # x1 goes to 0 at the stop exactly when log x1 falls linearly in
    # log |T - t|, x1 ~ |T - t|^a with a > 0; a blowup inside the chart has
    # a slope that dies away (x1 at a positive limit) or is negative.
    # Several edge runs stop with x1 far above 0, so a test on the size of
    # x1 would misread them; the two explicit launches of LOG_ESCAPE fall
    # toward x1 = s e^-0.1 and s e^-5 and must stay blowups.
    rng = random.Random(3)
    launches = [((0, 0, 0, 0, 0, -1), (-0.1, 1.0)), ((0, 0, 0, 0, 0, -1), (-5.0, 1.0))]
    for _ in range(40):
        c = tuple(str(round(rng.uniform(-3.0, 3.0), 3)) for _ in range(6))
        launches.append((c, (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))))
    statuses = []
    missed_by_size = 0
    for c, v in launches:
        field = ChristoffelField.type_b(c)
        runs = [integrate_geodesic(field, (s, 0.0), (s * v[0], s * v[1]), (0.0, 5.0),
                                   samples=2, rtol=1e-8, atol=1e-10)
                for s in (1e-3, 1.0, 1e5)]
        assert len({r.status_forward for r in runs}) == 1
        status, res = runs[1].status_forward, runs[1].result_forward
        statuses.append(status)
        if status == "complete":
            continue
        early, late = _x1_power(res, 1e-3, 1e-6), _x1_power(res, 1e-6, 1e-9)
        if status == "left_chart":
            assert late > 1e-2 and abs(early - late) <= 0.1 * late
            missed_by_size += res.ys[-1, 0] > 1e-6
        else:
            assert status == "blowup" and late < 1e-3
    assert statuses[:2] == ["blowup", "blowup"]
    assert missed_by_size >= 3 and "blowup" in statuses[2:]


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3, 1e5])
def test_edge_status_follows_the_chart_scaling(s):
    # (x, v) -> (s x, s v) maps kind-B geodesics to geodesics with the same
    # parameter: the run into x1 = 0 at t = 1 and the L2 null ray out to
    # x1 = infinity at t = 1 keep their statuses at every scale
    edge = integrate_geodesic(ChristoffelField.type_b((0,) * 6), (s, 0.0), (-s, 0.0), (0.0, 5.0))
    assert edge.status_forward == "left_chart"
    assert edge.t_escape_forward == pytest.approx(1.0, abs=1e-6)
    null = integrate_geodesic(get_model("L2").field, (s, 0.0), (s, s), (0.0, 5.0))
    assert null.status_forward == "blowup"
    assert null.t_escape_forward == pytest.approx(1.0, abs=1e-6)


def test_sample_grid_and_window():
    traj = integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 0.0), (-2.0, 3.0), samples=11)
    assert traj.t[0] == -2.0 and traj.t[-1] == 3.0
    assert np.any(traj.t == 0.0)
    traj2 = integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 0.0), 3.0)
    assert traj2.t[0] == 0.0 and traj2.t[-1] == 3.0


def test_invalid_ivps_are_rejected():
    with pytest.raises(InvalidIVPError):
        integrate_geodesic(FLAT, (0.0,), (1.0, 0.0), 1.0)
    with pytest.raises(InvalidIVPError):
        integrate_geodesic(FLAT, (0.0, math.nan), (1.0, 0.0), 1.0)
    with pytest.raises(InvalidIVPError):
        integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 0.0), (1.0, 2.0))
    with pytest.raises(InvalidIVPError):
        integrate_geodesic(
            ChristoffelField.type_b((0,) * 6), (-1.0, 0.0), (1.0, 0.0), 1.0
        )


@pytest.mark.parametrize(
    "t_span", [math.inf, math.nan, (math.nan, 1.0), (-1.0, math.inf), (-math.inf, 1.0)]
)
def test_non_finite_time_bounds_are_rejected(t_span):
    with pytest.raises(InvalidIVPError, match="finite"):
        integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 0.0), t_span)


def test_exp_map_flat_and_zero_vector():
    q = exp_map(FLAT, (1.0, 2.0), (0.5, -0.25))
    assert np.allclose([q.x1, q.x2], [1.5, 1.75], atol=1e-12)
    p = exp_map(FLAT, (1.0, 2.0), (0.0, 0.0))
    assert (p.x1, p.x2) == (1.0, 2.0)


def test_exp_map_s1_closed_form_and_incomplete():
    model = get_model("S1")
    q = exp_map(model.field, (0.0, 0.0), (0.5, 0.0))
    assert abs(q.x1 - math.log(2.0)) < 1e-9
    assert abs(q.x2) < 1e-12
    miss = exp_map(model.field, (0.0, 0.0), (1.0, 0.0))
    assert isinstance(miss, Incomplete)
    assert miss.status == "blowup"


def test_trajectory_csv_round_trip():
    traj = integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 2.0), 1.0, samples=5)
    text = write_trajectory_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert len(lines) == 6
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(got[:, 0], traj.t, atol=0.0)
    assert np.allclose(got[:, 1:3], traj.x, atol=0.0)
    # writing twice gives identical text
    assert write_trajectory_csv(traj) == text

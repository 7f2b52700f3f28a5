"""Geodesic IVPs: closed-form checks, completeness verdicts, exp map."""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf.catalog import get_model
from affinesurf.errors import InvalidIVPError
from affinesurf.fields import ChristoffelField
from affinesurf.geodesics import (
    Incomplete,
    exp_map,
    geodesic_rhs,
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


def test_chart_floor_guard_stops_early():
    model = get_model("H2")
    traj = integrate_geodesic(
        model.field, (1.0, 0.0), (-1.0, 0.0), (0.0, 50.0), chart_floor=1e-10
    )
    assert traj.status_forward == "left_chart"
    assert traj.x[-1, 0] <= 1e-10 * 1.01


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


def test_trajectory_csv_round_trip(tmp_path):
    traj = integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 2.0), 1.0, samples=5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    assert len(lines) == 6
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(got[:, 0], traj.t, atol=0.0)
    assert np.allclose(got[:, 1:3], traj.x, atol=0.0)
    # writing twice gives identical bytes
    path2 = tmp_path / "traj2.csv"
    write_trajectory_csv(traj, path2)
    assert path.read_bytes() == path2.read_bytes()

"""Adaptive integrator: accuracy, exact sampling, and stop diagnosis."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from affinesurf.catalog import get_model
from affinesurf.errors import DomainError, IntegrationError
from affinesurf.fields import ChristoffelField
from affinesurf.geodesics import integrate_geodesic, integrate_geodesics
from affinesurf.integrate import solve_ode, solve_ode_batch


def test_exponential_accuracy():
    res = solve_ode(lambda t, y: y, 0.0, [1.0], 5.0, rtol=1e-12, atol=1e-14)
    assert res.status == "reached"
    assert res.t_final == 5.0
    assert abs(res.ys[-1][0] - math.exp(5.0)) < 1e-9 * math.exp(5.0)


def test_harmonic_oscillator_round_trip():
    def f(t, y):
        return np.array([y[1], -y[0]])

    res = solve_ode(f, 0.0, [1.0, 0.0], 2.0 * math.pi, rtol=1e-12, atol=1e-14)
    assert res.status == "reached"
    assert np.allclose(res.ys[-1], [1.0, 0.0], atol=1e-9)


def test_sample_times_hit_exactly():
    want = [0.1, 0.25, 1.0 / 3.0, 0.7, 1.0]
    res = solve_ode(lambda t, y: y, 0.0, [1.0], 1.0, t_eval=want)
    assert res.sample_ts.tolist() == want
    assert np.allclose(res.sample_ys[:, 0], np.exp(want), rtol=1e-9)


def test_backward_integration():
    res = solve_ode(lambda t, y: y, 0.0, [1.0], -3.0, t_eval=[-1.0, -2.0, -3.0])
    assert res.status == "reached"
    assert np.allclose(res.sample_ys[:, 0], np.exp([-1.0, -2.0, -3.0]), rtol=1e-9)


def test_zero_span_is_a_no_op():
    res = solve_ode(lambda t, y: y, 2.0, [4.0], 2.0)
    assert res.status == "reached" and res.nfev == 0
    assert res.ts.tolist() == [2.0]


def test_blowup_escape_time():
    # y' = y**2 from y(0) = 1 escapes at exactly t = 1
    res = solve_ode(lambda t, y: y * y, 0.0, [1.0], 5.0)
    assert res.status == "blowup"
    assert res.t_final < 1.0
    assert abs(res.t_escape - 1.0) < 1e-7


def test_overflowing_stages_are_rejected_without_warnings():
    # every stage sum from the largest floats overflows; the steps are
    # rejected as designed and NumPy must not warn about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_ode(lambda t, y: np.array([1e308]), 0.0, np.array([1.79e308]), 1.0)
    assert res.status == "blowup"


def test_exponential_growth_is_not_blowup():
    # e**30 is far above the blowup norm, but the growth is not finite-time
    res = solve_ode(lambda t, y: y, 0.0, [1.0], 30.0)
    assert res.status == "reached"
    assert res.ys[-1][0] > 1e12


def test_rhs_domain_error_means_stalled_not_crash():
    def f(t, y):
        if y[0] < 0.0:
            raise DomainError("left the half line")
        return np.array([-1.0])

    res = solve_ode(f, 0.0, [1.0], 5.0)
    assert res.status == "stalled"
    assert abs(res.t_final - 1.0) < 1e-6
    assert abs(res.ys[-1][0]) < 1e-6


def test_rhs_programming_error_raises_instead_of_stalling():
    def f(t, y):
        if t > 0.5:
            return -y + np.ones(3)  # broadcast bug: y has two entries
        return -y

    with pytest.raises(ValueError, match="broadcast"):
        solve_ode(f, 0.0, [1.0, 2.0], 2.0)


def test_rhs_nan_is_rejected_like_an_exception():
    def f(t, y):
        v = 1.0 - y[0]
        return np.array([math.nan]) if v < 0.0 else np.array([math.sqrt(v)])

    res = solve_ode(f, 0.0, [0.0], 10.0)
    # y approaches 1 with vanishing speed; never finite-time blowup
    assert res.status in ("reached", "stalled")
    assert res.ys[-1][0] <= 1.0 + 1e-9


def test_guard_status_passes_through():
    def guard(t, y):
        return "crossed" if y[0] > 2.0 else None

    res = solve_ode(lambda t, y: y, 0.0, [1.0], 5.0, guard=guard, max_step=0.05)
    assert res.status == "crossed"
    assert 2.0 < res.ys[-1][0] < 2.3


def test_max_step_is_respected():
    res = solve_ode(lambda t, y: y, 0.0, [1.0], 1.0, max_step=0.01)
    steps = np.diff(res.ts)
    assert np.all(steps <= 0.01 + 1e-15)


def test_non_finite_initial_state_raises():
    with pytest.raises(IntegrationError):
        solve_ode(lambda t, y: y, 0.0, [math.nan], 1.0)


# Batched runs against solo runs.  Each batched row must reproduce the run
# solve_ode makes for it alone: same status, evaluation count and samples,
# and the same escape estimate.


def _fan(count, speed=1.0):
    th = [2.0 * math.pi * (k + 0.25) / count for k in range(count)]
    return [(speed * math.cos(t), speed * math.sin(t)) for t in th]


def _assert_row_matches(batch, r, solo):
    m = int(batch.n_samples[r])
    assert batch.status[r] == solo.status, solo.message
    assert batch.nfev[r] == solo.nfev
    assert m == len(solo.sample_ts)
    assert batch.sample_ts[:m].tolist() == solo.sample_ts.tolist()
    if solo.t_escape is None:
        assert batch.t_escape[r] is None
    else:
        assert abs(batch.t_escape[r] - solo.t_escape) <= 1e-12 * abs(solo.t_escape)
    np.testing.assert_allclose(batch.sample_ys[r, :m], solo.sample_ys, rtol=1e-9, atol=0.0)
    assert np.all(np.isnan(batch.sample_ys[r, m:]))


BATCH_CASES = {
    "S3": (get_model("S3").field, (0.1, -0.2), _fan(6), 4.0, {}),
    "H2": (get_model("H2").field, (1.0, 0.1), _fan(5), 40.0, {}),
    "S3~": (get_model("S3~").field, (0.75, 0.0), _fan(5), 10.0, {}),
    "S1-blowup": (get_model("S1").field, (0.0, 0.0), _fan(6, 1.5), 10.0, {}),
    # the null ray along (1, 1) leaves the chart through x1 -> infinity at
    # t = 1, the one along (-1, -1) backward at t = -1
    "L2-null": (get_model("L2").field, (1.0, 0.0), [(1.0, 1.0), (-1.0, -1.0), (0.5, 1.0)],
                5.0, {}),
    # kind-B straight lines run into x1 = 0 at t = 1, 1/2 and 1/4; their
    # stages beyond the edge come back NaN and are rejected row by row
    "kind-B-edge": (ChristoffelField.type_b((0, 0, 0, 0, 0, 0)), (1.0, 0.0),
                    [(-1.0, 0.0), (-2.0, 0.5), (-4.0, 1.0), (1.0, 0.0)], 2.0, {}),
    "S3-budget": (get_model("S3").field, (0.1, -0.2), _fan(4), 4.0, {"max_steps": 40}),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_rows_match_solo_runs(case):
    field, base, velocities, t_max, kw = BATCH_CASES[case]
    runs = integrate_geodesics(field, base, velocities, (-t_max, t_max), samples=81,
                               rtol=1e-8, atol=1e-10, **kw)
    assert len(runs) == 2
    for r, v in enumerate(velocities):
        solo = integrate_geodesic(field, base, v, (-t_max, t_max), samples=81,
                                  rtol=1e-8, atol=1e-10, **kw)
        _assert_row_matches(runs[0], r, solo.result_backward)
        _assert_row_matches(runs[1], r, solo.result_forward)


def test_batched_rows_stopping_at_different_times():
    # three rows leave the chart at three different times and one reaches
    # t_end: the rows still running after each stop must keep their state
    field, base, velocities, t_max, _ = BATCH_CASES["kind-B-edge"]
    runs = integrate_geodesics(field, base, velocities, (0.0, t_max), samples=81)
    (fwd,) = runs
    assert fwd.status == ["stalled", "stalled", "stalled", "reached"]
    assert fwd.t_final[:3] == pytest.approx([1.0, 0.5, 0.25], abs=1e-6)
    assert fwd.t_final[3] == t_max
    assert fwd.y_final[3] == pytest.approx([1.0 + t_max, 0.0, 1.0, 0.0], abs=1e-9)
    for r, v in enumerate(velocities):
        solo = integrate_geodesic(field, base, v, (0.0, t_max), samples=81)
        _assert_row_matches(fwd, r, solo.result_forward)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_batched_rows_match_solo_runs_when_only_the_solution_overflows():
    # the stages stay finite while y + h * sum(b k) overflows near the
    # largest float: solve_ode has evaluated all six stages by then
    def f(t, y):
        return np.full_like(y, 1e308)

    y0 = [[1.79e308], [1.0e308], [0.0]]
    batch = solve_ode_batch(f, 0.0, y0, 1.0, [0.5, 1.0])
    for r, y in enumerate(y0):
        _assert_row_matches(batch, r, solve_ode(f, 0.0, y, 1.0, t_eval=[0.5, 1.0]))
    assert batch.status[0] != "reached"


def test_batched_rhs_programming_error_raises_instead_of_stalling():
    def f(t, y):
        if np.any(t > 0.5):
            return -y + np.ones(3)  # broadcast bug: rows have two entries
        return -y

    with pytest.raises(ValueError, match="broadcast"):
        solve_ode_batch(f, 0.0, [[1.0, 2.0], [3.0, 4.0]], 2.0, [1.0, 2.0])


def test_batched_rhs_of_wrong_shape_raises():
    with pytest.raises(IntegrationError, match="shape"):
        solve_ode_batch(lambda t, y: y[:, :1], 0.0, [[1.0, 2.0]], 1.0, [1.0])


def test_batched_blowup_escape_times():
    # y' = y**2 from y(0) = c escapes at t = 1/c, row by row
    res = solve_ode_batch(lambda t, y: y * y, 0.0, [[1.0], [2.0], [0.1]], 5.0, [5.0])
    assert res.status == ["blowup", "blowup", "reached"]
    assert res.t_escape[0] == pytest.approx(1.0, abs=1e-7)
    assert res.t_escape[1] == pytest.approx(0.5, abs=1e-7)
    assert res.t_escape[2] is None
    assert res.n_samples.tolist() == [0, 0, 1]
    assert res.sample_ys[2, 0, 0] == pytest.approx(1.0 / (10.0 - 5.0), rel=1e-9)

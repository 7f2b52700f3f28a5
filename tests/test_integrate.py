"""Adaptive integrator: accuracy, exact sampling, and stop diagnosis."""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesurf.catalog import get_model
from affinesurf.errors import DomainError, IntegrationError
from affinesurf.fields import ChristoffelField
from affinesurf.geodesics import (
    geodesic_rhs,
    geodesic_rhs_batch,
    integrate_geodesic,
    integrate_geodesics,
)
from affinesurf.integrate import solve_ode, solve_ode_batch
from affinesurf.jacobi import _jacobi_rhs
from affinesurf.sprays import _transport_rhs


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


@pytest.mark.parametrize("span", [5e-13, -5e-13])
def test_span_shorter_than_the_smallest_step_is_reached(span):
    # Brent refinement in conjugate_points re-integrates such spans from a knot
    def f(t, y):
        return [y[1], -y[0]]

    res = solve_ode(f, 1.0, [1.0, 0.5], 1.0 + span)
    assert res.status == "reached" and res.t_final == 1.0 + span
    batch = solve_ode_batch(lambda t, y: np.stack([y[:, 1], -y[:, 0]], axis=1),
                            1.0, np.array([[1.0, 0.5]]), 1.0 + span, [])
    assert batch.status == ["reached"]
    assert batch.y_final[0].tolist() == res.ys[-1].tolist()


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


@pytest.mark.parametrize("wrong", [[-1.0, 0.0], np.array([-1.0, 0.0])], ids=["list", "array"])
def test_rhs_with_wrong_length_rejects_the_step(wrong):
    def f(t, y):
        return wrong if y[0] < 0.0 else [-1.0]

    res = solve_ode(f, 0.0, [1.0], 5.0)
    assert res.status == "stalled"
    assert abs(res.t_final - 1.0) < 1e-6


@pytest.mark.parametrize(
    "t_end, t_eval, match",
    [
        (1.0, [0.5, 0.5], "monotone"),
        (1.0, [0.6, 0.4], "monotone"),
        (-1.0, [-0.4, -0.2], "monotone"),
        (1.0, [-0.1, 0.5], "within"),
        (1.0, [0.5, 1.1], "within"),
        (-1.0, [-0.5, -1.5], "within"),
    ],
)
def test_bad_sample_times_raise(t_end, t_eval, match):
    with pytest.raises(IntegrationError, match=match):
        solve_ode(lambda t, y: y, 0.0, [1.0], t_end, t_eval=t_eval)


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


# a chart point of each model to launch random fans from
FAN_BASES = {"S1": (0.0, 0.0), "S2": (0.0, 0.0), "S3": (0.1, -0.2), "S3~": (0.75, 0.0),
             "S5": (1.0, 0.0), "H2": (1.0, 0.1), "L2": (1.0, 0.0), "pseudosphere": (0.0, 0.0)}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(FAN_BASES)),
    velocities=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                        min_size=1, max_size=4),
    forward=st.booleans(),
    max_steps=st.integers(1, 300),
)
def test_random_fans_match_solo_runs_bit_for_bit(name, velocities, forward, max_steps):
    # the batched loop steps NumPy rows, solve_ode Python floats: the same
    # operations in the same order must give every row the same bits
    field = get_model(name).field
    y0 = [[*FAN_BASES[name], *v] for v in velocities]
    t_end = 3.0 if forward else -3.0
    t_eval = np.linspace(0.0, t_end, 9)
    kw = dict(rtol=1e-8, atol=1e-10, max_steps=max_steps)
    batch = solve_ode_batch(geodesic_rhs_batch(field), 0.0, y0, t_end, t_eval, **kw)
    for r, y in enumerate(y0):
        solo = solve_ode(geodesic_rhs(field), 0.0, y, t_end, t_eval=t_eval, **kw)
        m = int(batch.n_samples[r])
        assert (batch.status[r], batch.message[r]) == (solo.status, solo.message)
        assert batch.nfev[r] == solo.nfev
        assert batch.t_final[r] == solo.t_final
        assert batch.t_escape[r] == solo.t_escape
        assert batch.y_final[r].tobytes() == solo.ys[-1].tobytes()
        assert m == len(solo.sample_ts)
        assert batch.sample_ys[r, :m].tobytes() == solo.sample_ys.tobytes()


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


def test_zero_component_with_zero_atol_stalls_like_ieee_division():
    # the second component stays 0 with atol = 0, so its error scale is 0
    # and 0/0 makes every error norm NaN: each step is rejected until the
    # step size collapses, as IEEE division has it, instead of raising
    res = solve_ode(lambda t, y: np.array([1.0, 0.0]), 0.0, [1.0, 0.0], 1.0, atol=0.0)
    assert res.status == "stalled"
    assert res.nfev == 73


# Frozen bits.  Each IVP below keeps the status, evaluation count, stop
# message and escape estimate, and the exact bits (float.hex) of its final
# state, of every knot and of every sample, that it had when solve_ode still
# stepped NumPy arrays.  Knots and samples enter through one SHA-256 digest.

BITS_TABLE = pathlib.Path(__file__).with_name("data") / "solve_ode_bits.json"


def _geodesic(name, p, v, t_end, samples=None, c=None, **kw):
    field = get_model(name, c).field
    t_eval = None if samples is None else np.linspace(0.0, t_end, samples)
    return lambda: solve_ode(geodesic_rhs(field), 0.0, [*p, *v], t_end, t_eval=t_eval, **kw)


def _jacobi(name, p, v, t_end, pairs, samples):
    y0 = [*p, *v, 1.0, 0.0, 0.0, 1.0] + [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0][: 4 * pairs]
    rhs = _jacobi_rhs(get_model(name).field, pairs)
    return lambda: solve_ode(rhs, 0.0, y0, t_end, t_eval=np.linspace(0.0, t_end, samples))


def _transport(t_end, samples):
    # parallel transport along the H2 line (1 + s/2, s/5)
    rhs = _transport_rhs(get_model("H2").field, lambda s: (1.0 + 0.5 * s, 0.2 * s),
                         lambda s: np.array([0.5, 0.2]))
    t_eval = np.linspace(0.0, t_end, samples)
    return lambda: solve_ode(rhs, 0.0, [0.3, -1.1], t_end, rtol=1e-11, atol=1e-13,
                             t_eval=t_eval)


def _toy(f, y0, t_end, **kw):
    return lambda: solve_ode(f, 0.0, y0, t_end, **kw)


def _half_line(t, y):
    if y[0] < 0.0:
        raise DomainError("left the half line")
    return np.array([-1.0])


def _sqrt_speed(t, y):
    v = 1.0 - y[0]
    return np.array([math.nan]) if v < 0.0 else np.array([math.sqrt(v)])


FLAT_B = ChristoffelField.type_b((0, 0, 0, 0, 0, 0))
FROZEN_CASES = {
    "S1": _geodesic("S1", (0.0, 0.0), (0.3, -0.2), 3.0, 21),
    "S1-blowup": _geodesic("S1", (0.0, 0.0), (1.5, 0.0), 10.0, 21),
    "S1-backward-knots": _geodesic("S1", (0.5, -1.0), (-0.4, 0.7), -4.0),
    "S2": _geodesic("S2", (0.0, 0.0), (0.8, 0.6), 6.0, 31),
    "S2-backward": _geodesic("S2", (0.0, 0.0), (0.8, 0.6), -6.0, 31),
    "S3": _geodesic("S3", (0.1, -0.2), (1.0, 0.5), 4.0, 41),
    "S3-backward-knots": _geodesic("S3", (0.1, -0.2), (-0.7, 0.9), -4.0, rtol=1e-8,
                                   atol=1e-10),
    "S3-backward-blowup": _geodesic("S3", (0.0, 0.0), (-1.0, 0.0), -5.0, 11),
    "S4": _geodesic("S4", (1.0, 0.5), (0.4, -0.9), 5.0, 26, c="1/2"),
    "S4-negative-c": _geodesic("S4", (2.0, 0.0), (-0.5, 1.0), -3.0, 16, c=-2),
    "S5": _geodesic("S5", (1.0, 0.0), (0.3, 1.0), 5.0, 26),
    "S5-toward-edge": _geodesic("S5", (1.0, 0.0), (-1.0, 0.2), 5.0, 26),
    "H2": _geodesic("H2", (1.0, 0.1), (0.6, 0.8), 20.0, 41),
    "H2-backward-knots": _geodesic("H2", (1.0, 0.1), (0.6, 0.8), -20.0),
    "S3~": _geodesic("S3~", (0.75, 0.0), (0.5, 1.0), 10.0, 51, rtol=1e-8, atol=1e-10),
    "S3~-backward": _geodesic("S3~", (0.75, 0.0), (-0.3, 0.4), -6.0, 31),
    "pseudosphere": _geodesic("pseudosphere", (0.0, 0.0), (0.4, 1.0), 6.0, 31),
    "pseudosphere-timelike": _geodesic("pseudosphere", (0.2, 0.5), (1.0, 0.3), -4.0, 21),
    "L2-spacelike-blowup": _geodesic("L2", (1.0, 0.0), (0.0, 1.0), 3.0, 31),
    "L2-spacelike-backward": _geodesic("L2", (1.0, 0.0), (0.0, 1.0), -3.0),
    "L2-null": _geodesic("L2", (1.0, 0.0), (1.0, 1.0), 5.0, 11),
    "L2-timelike": _geodesic("L2", (1.0, 0.0), (math.sqrt(2.0), 1.0), 3.0, 21),
    "L2-vertical": _geodesic("L2", (2.0, 0.0), (1.0, 0.0), -1.0, 11),
    "flat-B-edge": lambda: solve_ode(geodesic_rhs(FLAT_B), 0.0, [1.0, 0.0, -2.0, 0.5], 2.0,
                                     t_eval=[0.1, 0.2, 0.3, 2.0]),
    "H2-guard": lambda: solve_ode(geodesic_rhs(get_model("H2").field), 0.0,
                                  [1.0, 0.0, -0.5, 0.5], 10.0,
                                  guard=lambda t, y: "left_chart" if y[0] <= 0.6 else None),
    "S3-budget": _geodesic("S3", (0.1, -0.2), (1.0, 0.5), 4.0, 41, max_steps=40),
    "exp": _toy(lambda t, y: y, [1.0], 5.0, rtol=1e-12, atol=1e-14),
    "exp-backward": _toy(lambda t, y: y, [1.0], -3.0, t_eval=[-1.0, -2.0, -3.0]),
    "exp-max-step": _toy(lambda t, y: y, [1.0], 1.0, max_step=0.01),
    "exp-first-step": _toy(lambda t, y: y, [1.0, -2.0], 2.0, first_step=0.5),
    "oscillator": _toy(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], 2.0 * math.pi,
                       rtol=1e-12, atol=1e-14),
    "square-blowup": _toy(lambda t, y: y * y, [1.0], 5.0),
    "overflow": _toy(lambda t, y: np.array([1e308]), [1.79e308], 1.0),
    "domain-error": _toy(_half_line, [1.0], 5.0),
    "nan-rhs": _toy(_sqrt_speed, [0.0], 10.0),
    "guard": _toy(lambda t, y: y, [1.0], 5.0, max_step=0.05,
                  guard=lambda t, y: "crossed" if y[0] > 2.0 else None),
    "jacobi-d12-L2": _jacobi("L2", (1.0, 0.0), (0.0, 1.0), 1.45, 1, 41),
    "jacobi-d16-pseudosphere": _jacobi("pseudosphere", (0.0, 0.0), (0.0, 1.0), 3.5, 2, 60),
    "jacobi-d16-L2-timelike": _jacobi("L2", (1.0, 0.0), (math.sqrt(2.0), 1.0), 0.8, 2, 30),
    "transport-d2": _transport(2.0, 17),
    "transport-d2-backward": _transport(-1.5, 13),
}


def _bits(res):
    digest = hashlib.sha256()
    for values in (res.ts, res.ys, res.sample_ts, res.sample_ys):
        digest.update(" ".join(float(v).hex() for v in np.ravel(values)).encode() + b"|")
    return {
        "status": res.status,
        "message": res.message,
        "nfev": res.nfev,
        "t_final": float(res.t_final).hex(),
        "t_escape": None if res.t_escape is None else float(res.t_escape).hex(),
        "final": [float(v).hex() for v in res.ys[-1]],
        "knots": len(res.ts),
        "samples": len(res.sample_ts),
        "digest": digest.hexdigest(),
    }


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_solo_runs_keep_their_frozen_bits(case):
    want = json.loads(BITS_TABLE.read_text())[case]
    assert _bits(FROZEN_CASES[case]()) == want

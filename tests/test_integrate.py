"""Adaptive integrator: accuracy, exact sampling, and stop diagnosis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf.errors import DomainError, IntegrationError
from affinesurf.integrate import solve_ode


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

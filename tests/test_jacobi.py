"""Jacobi fields in a parallel frame and conjugate-point detection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf import jacobi
from affinesurf.catalog import get_model
from affinesurf.errors import DomainError, FrameDegenerateError, InvalidIVPError
from affinesurf.fields import ChristoffelField
from affinesurf.jacobi import _jacobi_rhs, brentq, conjugate_points, integrate_jacobi
from affinesurf.lorentz import l2_inner

L2 = get_model("L2")
PSEUDO = get_model("pseudosphere")
FLAT = ChristoffelField.type_a((0, 0, 0, 0, 0, 0))


def test_flat_jacobi_fields_are_linear():
    sol = integrate_jacobi(FLAT, (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.3, -0.7), 4.0)
    assert sol.status == "complete"
    want = np.outer(sol.t, [0.3, -0.7])
    assert np.max(np.abs(sol.a - want)) < 1e-10


def test_l2_spacelike_normal_component_is_sine():
    # unit spacelike geodesic; seed velocity g-orthogonal to it
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.45
    )
    assert sol.status == "complete"
    assert np.max(np.abs(sol.a[:, 0] - np.sin(sol.t))) < 1e-9
    assert np.max(np.abs(sol.a[:, 1])) < 1e-9


def test_l2_tangential_component_is_linear():
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0), 1.45
    )
    assert np.max(np.abs(sol.a[:, 1] - sol.t)) < 1e-12
    assert np.max(np.abs(sol.a[:, 0])) < 1e-12


def test_l2_timelike_normal_component_is_sinh():
    p, v = (1.0, 0.0), (math.sqrt(2.0), 1.0)
    w = (1.0, math.sqrt(2.0))
    assert abs(l2_inner(p, v, w)) < 1e-15
    # the geodesic escapes at arcsinh(1); the sweep is capped just before
    sol = integrate_jacobi(L2.field, p, v, (0.0, 0.0), w, 2.0)
    assert sol.status == "blowup"
    assert abs(sol.t_escape - math.asinh(1.0)) < 1e-6
    assert sol.t[-1] < math.asinh(1.0)
    want = np.outer(np.sinh(sol.t), w)
    assert np.max(np.abs(sol.a - want)) < 1e-7


def test_pseudosphere_chart_normal_component_is_sine():
    # base (0,0), spacelike direction d/dv; normal seed d/du
    sol = integrate_jacobi(
        PSEUDO.field, (0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 3.0
    )
    assert np.max(np.abs(sol.a[:, 0] - np.sin(sol.t))) < 1e-8


def test_frame_stays_parallel_and_jacobi_chart_matches():
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.2,
        frame=((2.0, 0.0), (0.0, 0.5)),
    )
    # frame columns evolve by parallel transport; at t=0 they are as given
    assert np.allclose(sol.frame[0], [[2.0, 0.0], [0.0, 0.5]], atol=1e-12)
    for i in (0, 50, 200):
        assert np.allclose(
            sol.jacobi_chart(i), sol.frame[i] @ sol.a[i], atol=1e-12
        )


def test_pseudosphere_conjugate_points_at_pi_and_two_pi():
    found = conjugate_points(PSEUDO.field, (0.0, 0.0), (0.0, 1.0), 7.0)
    assert len(found) == 2
    assert abs(found[0] - math.pi) < 1e-10
    assert abs(found[1] - 2.0 * math.pi) < 1e-10


def test_no_conjugate_points_on_timelike_or_flat_runs():
    assert conjugate_points(PSEUDO.field, (0.0, 0.0), (1.0, 0.0), 6.0) == []
    assert conjugate_points(FLAT, (0.0, 0.0), (1.0, 1.0), 10.0) == []
    assert (
        conjugate_points(L2.field, (1.0, 0.0), (math.sqrt(2.0), 1.0), 6.0) == []
    )


def test_l2_spacelike_run_escapes_before_focusing():
    # maximal domain ends at pi/2 < pi, so no conjugate point is reachable
    found = conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), math.pi)
    assert found == []


def test_degenerate_frame_is_rejected():
    with pytest.raises(FrameDegenerateError):
        integrate_jacobi(
            L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.0,
            frame=((1.0, 0.0), (2.0, 0.0)),
        )


@pytest.mark.parametrize("x1", [0.0, -0.5])
def test_kind_b_rhs_outside_chart_raises_domain_error(x1):
    y = np.array([x1, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        _jacobi_rhs(L2.field, 1)(0.0, y)


def test_bad_ivp_propagates():
    with pytest.raises(InvalidIVPError):
        integrate_jacobi(
            L2.field, (-1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.0
        )


# ----------------------------------------------------------------------------
# the Brent root finder


def _brent_outcome(solver, f, a, b, **kw):
    """The root's bits, or the type of the error raised."""
    try:
        return solver(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def test_brentq_matches_scipy_bit_for_bit_on_random_brackets():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    shapes = (
        lambda c, k: lambda x: math.tanh(k * (x - c)),
        lambda c, k: lambda x: k * (x - c) ** 3 + 1e-3 * math.sin(7.0 * x),
        lambda c, k: lambda x: math.sin(k * x) - 0.3,
        lambda c, k: lambda x: math.exp(x) - k,
        lambda c, k: lambda x: math.copysign(abs(x - c) ** 0.2, x - c),
    )
    unconverged = 0
    for _ in range(400):
        c, k = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
        a, b = rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)
        for shape in shapes:
            f = shape(c, k)
            for kw in ({}, {"xtol": 1e-12}, {"maxiter": int(rng.integers(1, 8))}):
                want = _brent_outcome(scipy_optimize.brentq, f, a, b, **kw)
                assert _brent_outcome(brentq, f, a, b, **kw) == want, (a, b, c, k, kw)
                unconverged += want == "RuntimeError"
    # the small maxiter budgets reach the RuntimeError path as well
    assert unconverged > 0


def test_conjugate_point_refinement_matches_scipy_brentq(monkeypatch):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    launches = [((0.0, 0.0), (0.0, 1.0), 3.5), ((0.0, 0.2), (0.0, 1.1), 3.5 / 1.1)]
    ours = [conjugate_points(PSEUDO.field, p, v, t) for p, v, t in launches]
    monkeypatch.setattr(jacobi, "brentq", scipy_optimize.brentq)
    theirs = [conjugate_points(PSEUDO.field, p, v, t) for p, v, t in launches]
    assert all(ours)
    assert [[r.hex() for r in roots] for roots in ours] == [
        [float(r).hex() for r in roots] for roots in theirs
    ]


def test_brentq_returns_an_exact_end_point_root():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_rejects_nan_values():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)
    # a NaN inside the bracket, met by the first interpolation step
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if 0.4 < x < 0.9 else x - 0.75, 0.0, 1.0)


def test_brentq_reports_an_exhausted_iteration_budget():
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=3)
    assert abs(brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0) - 2.0 ** (1.0 / 3.0)) < 1e-12

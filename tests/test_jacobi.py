"""Jacobi fields in a parallel frame and conjugate-point detection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from affinesurf.catalog import get_model
from affinesurf.errors import DomainError, FrameDegenerateError, InvalidIVPError
from affinesurf.fields import ChristoffelField
from affinesurf.jacobi import _jacobi_rhs, conjugate_points, integrate_jacobi
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

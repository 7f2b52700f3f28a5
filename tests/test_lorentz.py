"""Closed-form Lorentz half-plane geodesics, orbits, and the involution."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesurf.catalog import get_model
from affinesurf.errors import DegenerateFitError, DomainError, ParamOutOfDomainError
from affinesurf.geodesics import integrate_geodesic
from affinesurf.lorentz import (
    causal_type,
    conserved_quantities,
    fit_l2_geodesic,
    hyperbola_residual,
    involution,
    involution_pushforward,
    l2_inner,
    l2_metric,
    orbit_residual,
)

L2 = get_model("L2")


def test_metric_and_inner_product():
    assert np.allclose(l2_metric((2.0, 0.0)), [[-0.25, 0.0], [0.0, 0.25]])
    assert l2_inner((1.0, 5.0), (1.0, 1.0), (1.0, 1.0)) == 0.0
    assert l2_inner((2.0, 0.0), (2.0, 0.0), (0.0, 4.0)) == 0.0
    with pytest.raises(DomainError):
        l2_metric((0.0, 0.0))


def test_causal_types():
    p = (3.0, -1.0)
    assert causal_type(p, (1.0, 0.0)) == "timelike"
    assert causal_type(p, (0.0, 1.0)) == "spacelike"
    assert causal_type(p, (2.0, -2.0)) == "null"
    assert causal_type(p, (1.0, 1.0 + 1e-12), tol=1e-9) == "null"


def test_conserved_quantities_values():
    c, lam = conserved_quantities((2.0, 7.0), (1.0, 3.0))
    assert c == 3.0 / 4.0
    assert lam == (9.0 - 1.0) / 4.0


def test_point_and_vertical_families():
    still = fit_l2_geodesic((1.5, -2.0), (0.0, 0.0))
    assert still.family == "point" and still.complete
    assert still.point(100.0) == (1.5, -2.0)

    vert = fit_l2_geodesic((2.0, 5.0), (3.0, 0.0))
    assert vert.family == "vertical" and vert.complete
    q = vert.point(2.0)
    assert abs(q.x1 - 2.0 * math.exp(3.0)) < 1e-9 * math.exp(3.0)
    assert q.x2 == 5.0


def test_null_family_frozen_point():
    # descending null line through (1,1): reaches (1/2, 1/2) at t = 2
    geo = fit_l2_geodesic((1.0, 1.0), (-0.5, -0.5))
    assert geo.family == "null"
    assert np.allclose(geo.point(2.0), [0.5, 0.5], atol=1e-14)
    # one-sided domain: finite escape backward, complete forward
    assert geo.t_max == math.inf
    assert abs(geo.t_min + 2.0) < 1e-14
    with pytest.raises(ParamOutOfDomainError):
        geo.point(-2.0)


def test_timelike_family_domain_endpoint():
    # unit-momentum timelike hyperbola through (1,0); the backward escape
    # sits at affine distance arcsinh(1) from the seed point
    geo = fit_l2_geodesic((1.0, 0.0), (-math.sqrt(2.0), 1.0))
    assert geo.family == "timelike"
    assert abs(geo.c - 1.0) < 1e-15
    assert abs(geo.lam + 1.0) < 1e-15
    assert abs(geo.t_min + math.asinh(1.0)) < 1e-14
    assert geo.t_max == math.inf
    assert abs(geo.beta + math.sqrt(2.0)) < 1e-15


def test_spacelike_family_has_affine_length_pi_over_omega():
    geo = fit_l2_geodesic((1.0, 0.0), (0.0, 1.0))
    assert geo.family == "spacelike"
    assert abs((geo.t_max - geo.t_min) - math.pi) < 1e-14
    assert abs(geo.t_max - math.pi / 2.0) < 1e-14
    for scale in (0.5, 2.0, 3.5):
        g2 = fit_l2_geodesic((1.0, 0.0), (0.3 * scale, 1.1 * scale))
        omega = math.sqrt(g2.lam)
        assert abs((g2.t_max - g2.t_min) - math.pi / omega) < 1e-12


def test_spacelike_fit_where_an_arcsin_branch_loses_digits():
    # near the apex v1 = 0 (u0 = pi/2) an arcsin of sin(u0) = 1/(C*x1) keeps
    # only half the digits, and on a nearly null launch pi - u0 rounds a
    # tiny u0 away; the fit must still reproduce the launch
    for p, v in (((1.35, 0.0), (-0.0, -0.5625)), ((1.0, 0.3), (1e-8, 0.7)),
                 ((0.8, -1.2), (-3e-6, -1.9)), ((2.5, 1.0), (4e-12, 0.4)),
                 ((1.65, 1.5), (1.3299999999999998, 1.33)),
                 ((1.03, 1.41), (1.7999999999999599, -1.8)),
                 ((0.7, -1.3), (0.6999999999999998, -0.7))):
        geo = fit_l2_geodesic(p, v)
        assert geo.family == "spacelike"
        assert np.allclose(geo.point(0.0), p, rtol=0.0, atol=1e-14)
        assert np.allclose(geo.velocity(0.0), v, rtol=0.0, atol=1e-14)


def test_fit_reproduces_every_ivp_and_matches_integration():
    rng = random.Random(4711)
    for _ in range(25):
        p = (rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        v = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        geo = fit_l2_geodesic(p, v)
        assert np.allclose(geo.point(0.0), p, atol=1e-12)
        assert np.allclose(geo.velocity(0.0), v, atol=1e-10)
        hi = min(2.0, 0.9 * geo.t_max)
        lo = max(-2.0, 0.9 * geo.t_min)
        traj = integrate_geodesic(L2.field, p, v, (lo, hi), samples=41)
        pts = np.array([geo.point(t) for t in traj.t])
        assert np.max(np.abs(pts - traj.x)) < 1e-8


@st.composite
def _launches(draw):
    """A launch in the null, timelike or spacelike family, any quadrant."""
    p = (draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0)))
    family = draw(st.sampled_from(["null", "timelike", "spacelike"]))
    big = draw(st.floats(0.2, 1.0))
    small = big * {"null": 1.0, "timelike": draw(st.floats(0.05, 0.95)),
                   "spacelike": draw(st.floats(0.0, 0.95))}[family]
    v1, v2 = (small, big) if family == "spacelike" else (big, small)
    s1, s2 = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    return family, p, (s1 * v1, s2 * v2)


@settings(max_examples=300, deadline=None)
@given(launch=_launches(), frac=st.floats(0.05, 0.95))
def test_t_at_x2_round_trips_the_point(launch, frac):
    # compare points, not parameters: t is ill-conditioned where a timelike
    # orbit flattens onto its asymptote, but the point it names is not
    family, p, v = launch
    geo = fit_l2_geodesic(p, v)
    assert geo.family == family
    lo, hi = max(geo.t_min, -5.0), min(geo.t_max, 5.0)
    want = geo.point(lo + frac * (hi - lo))
    got = geo.point(geo.t_at_x2(want.x2))
    tol = 1e-9 * (1.0 + max(abs(want.x1), abs(want.x2)))
    assert abs(got.x1 - want.x1) <= tol and abs(got.x2 - want.x2) <= tol


def test_t_at_x2_misses_values_off_the_geodesic():
    null = fit_l2_geodesic((1.0, 1.0), (-0.5, -0.5))
    assert null.t_at_x2(-null.beta) is None  # x2 = alpha: the line's far end
    geo = fit_l2_geodesic((1.0, 0.0), (-math.sqrt(2.0), 1.0))
    # the timelike orbit x1^2 - (x2 + beta)^2 = lam/c^2 flattens onto the
    # asymptote x2 = -beta + side*sqrt(-lam)/|c| as x1 -> 0, on the side of
    # -beta where it starts; it never gets past it, nor to the other side
    side = 1.0 if geo.point(0.0).x2 + geo.beta > 0.0 else -1.0
    reach = math.sqrt(-geo.lam) / abs(geo.c)
    assert geo.t_at_x2(-geo.beta + side * 1.01 * reach) is not None
    for x2 in (-geo.beta + side * 0.99 * reach, -geo.beta, -geo.beta - side):
        assert geo.t_at_x2(x2) is None


def test_t_at_x2_needs_a_moving_x2():
    for v in ((0.0, 0.0), (3.0, 0.0)):
        with pytest.raises(DegenerateFitError):
            fit_l2_geodesic((2.0, 5.0), v).t_at_x2(5.0)


def test_orbit_residual_flags_wrong_curves():
    p, v = (1.0, 0.0), (0.5, 1.0)
    geo = fit_l2_geodesic(p, v)
    ts = np.linspace(0.9 * geo.t_min, 0.9 * geo.t_max, 25)
    pts = [geo.point(t) for t in ts]
    assert orbit_residual(pts, p, v) < 1e-12
    assert hyperbola_residual(pts, p, v) < 1e-12
    off = [(x1 + 0.01, x2) for (x1, x2) in pts]
    assert hyperbola_residual(off, p, v) > 1e-3


def test_vertical_orbit_residual_degenerates():
    p, v = (2.0, 5.0), (3.0, 0.0)
    geo = fit_l2_geodesic(p, v)
    pts = [geo.point(t) for t in np.linspace(-1.0, 1.0, 9)]
    assert orbit_residual(pts, p, v) == 0.0
    with pytest.raises(DegenerateFitError):
        hyperbola_residual(pts, p, v)


def test_involution_fixed_point_and_frozen_values():
    assert np.allclose(involution((1.0, 0.0)), [1.0, 0.0], atol=0.0)
    assert np.allclose(involution((2.0, 1.0)), [2.0 / 3.0, -1.0 / 3.0], atol=1e-15)
    with pytest.raises(DomainError):
        involution((1.0, 1.0))
    with pytest.raises(DomainError):
        involution((1.0, -2.0))


def test_involution_is_an_involution():
    rng = random.Random(99)
    for _ in range(20):
        x1 = rng.uniform(0.2, 3.0)
        x2 = rng.uniform(-0.95, 0.95) * x1
        q = involution((x1, x2))
        back = involution(q)
        assert np.allclose(back, [x1, x2], atol=1e-12)


def test_involution_reverses_null_line_parameter():
    # sigma(t) = (1/t, 1/t - 1) maps to sigma(2 - t)
    for t in (0.5, 0.9, 1.0, 1.3, 1.7):
        p = (1.0 / t, 1.0 / t - 1.0)
        q = involution(p)
        s = 2.0 - t
        assert np.allclose(q, [1.0 / s, 1.0 / s - 1.0], atol=1e-13)


def test_involution_pushforward_sends_geodesics_to_geodesics():
    rng = random.Random(31415)
    for _ in range(20):
        x1 = rng.uniform(0.4, 2.5)
        x2 = rng.uniform(-0.9, 0.9) * x1
        v = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        geo = fit_l2_geodesic((x1, x2), v)
        q, w = involution_pushforward((x1, x2), v)
        image = fit_l2_geodesic(q, (w.xi1, w.xi2))
        lo = max(geo.t_min, image.t_min) * 0.5
        hi = min(geo.t_max, image.t_max) * 0.5
        for t in np.linspace(max(lo, -0.05), min(hi, 0.05), 7):
            src = geo.point(t)
            if src.x1 <= abs(src.x2):
                continue
            assert np.allclose(involution(src), image.point(t), atol=1e-9)

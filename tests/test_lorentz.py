"""Closed-form Lorentz half-plane geodesics, orbits, and the involution."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    l2_log,
    l2_metric,
    orbit_residual,
)
from affinesurf.pseudosphere import minkowski_inner

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


def test_slow_launch_whose_lam_underflows_is_a_degenerate_fit():
    # lam = (v2**2 - v1**2)/x1**2 underflows to 0 on a launch that is not null
    with pytest.raises(DegenerateFitError, match="underflows"):
        fit_l2_geodesic((1.0, 0.0), (-0.0, 3.4e-173))
    with pytest.raises(DegenerateFitError):
        fit_l2_geodesic((1.0, 0.0), (3e-170, 1e-170))


@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_slow_null_launch_keeps_its_line(sgn):
    # v1 * v2 underflows to 0 here; the null line x2 = sgn*(x1 - 1) must not flip
    geo = fit_l2_geodesic((1.0, 0.0), (1e-170, sgn * 1e-170))
    assert geo.family == "null" and geo.lam == 0.0
    x1, x2 = geo.point(0.5e170)
    assert x1 == pytest.approx(2.0, rel=1e-15)
    assert x2 == pytest.approx(sgn, rel=1e-15)


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


def _embed(x):
    """E: the half plane onto the slice B - T = 1/x1 > 0 of the pseudosphere."""
    x1, x2 = x
    return np.array([x2 / x1, (1.0 + x1 * x1 - x2 * x2) / (2.0 * x1),
                     (x1 * x1 - x2 * x2 - 1.0) / (2.0 * x1)])


def _push(x, v):
    """dE(x) v, the chart velocity as an ambient tangent vector."""
    x1, x2 = x
    jac = np.array([[-x2 / x1**2, 1.0 / x1],
                    [0.5 + (x2 * x2 - 1.0) / (2.0 * x1**2), -x2 / x1],
                    [0.5 + (x2 * x2 + 1.0) / (2.0 * x1**2), -x2 / x1]])
    return jac @ np.asarray(v, dtype=float)


def test_embedding_pairs_points_by_the_wedge_formula():
    p, q = (1.3, -0.4), (0.6, 1.1)
    assert abs(minkowski_inner(_embed(p), _embed(p)) - 1.0) < 1e-15
    want = (p[0] ** 2 + q[0] ** 2 - (p[1] - q[1]) ** 2) / (2.0 * p[0] * q[0])
    assert abs(minkowski_inner(_embed(p), _embed(q)) - want) < 1e-15


_chart = st.tuples(st.floats(0.25, 4.0), st.floats(-4.0, 4.0))


def _exact_embed(x):
    """_embed in exact rationals of the float chart coordinates."""
    x1, x2 = Fraction(x[0]), Fraction(x[1])
    return (x2 / x1, (1 + x1 * x1 - x2 * x2) / (2 * x1),
            (x1 * x1 - x2 * x2 - 1) / (2 * x1))


def _pseudosphere_log(base, target):
    """theta/sin(theta) (Q - c P) with c = <P, Q>, P = E(base), Q = E(target).

    c, 1 - c, 1 + c and Q - c P are exact, so the factor keeps its digits
    where theta -> pi at the wedge edge and 1/sin(theta) blows up.
    """
    P, Q = _exact_embed(base), _exact_embed(target)
    c = P[0] * Q[0] + P[1] * Q[1] - P[2] * Q[2]
    lo, hi = math.sqrt(float(abs(1 - c))), math.sqrt(float(1 + c))
    theta = 2.0 * (math.atan2(lo, hi) if c < 1 else math.atanh(lo / hi))
    k = theta / (lo * hi) if lo > 0.0 else 1.0  # theta / sin -> 1 as c -> 1
    return np.array([k * float(qi - c * pi) for pi, qi in zip(P, Q)])


@settings(max_examples=300, deadline=None)
@given(base=_chart, target=_chart)
@example(base=(1.0, 0.0), target=(3.00001, 4.0))
def test_log_launch_is_the_pseudosphere_log(base, target):
    # independent oracle: dE(v) is the ambient log map from E(base) to
    # E(target), stopping 1e-6 short of the wedge edge.  The launch is
    # compared, not the point exp(v) at t = 1: near the edge that point
    # moves by ~|v|**3 ulps, so even the correctly rounded launch misses
    # E(target) by 1e-7 there
    gap = base[0] + target[0] - abs(target[1] - base[1])
    assume(gap > 1e-6 * (base[0] + target[0]))
    xi = _pseudosphere_log(base, target)
    err = np.max(np.abs(_push(base, l2_log(base, target)) - xi))
    assert err <= 1e-12 * (1.0 + np.max(np.abs(xi)))


def test_log_launch_on_the_vertical_line_has_no_sideways_part():
    # a rounded v2 != 0 would turn the vertical launch into a hyperbola
    # whose fit cannot reproduce it
    rng = random.Random(2718)
    for _ in range(500):
        b1, b2 = rng.uniform(0.05, 4.0), rng.uniform(-4.0, 4.0)
        a = rng.uniform(0.01, 8.0)
        v = l2_log((b1, b2), (a, b2))
        assert v[1] == 0.0 and abs(v[0] - b1 * math.log(a / b1)) <= 1e-14 * (1.0 + abs(v[0]))
        geo = fit_l2_geodesic((b1, b2), v)
        assert geo.family in ("vertical", "point")
        assert abs(geo.point(1.0).x1 - a) <= 1e-12 * a and geo.point(1.0).x2 == b2
    # x1 from 1e-16 to 1e-308 of the base's, where atanh(r) has r = 1.0
    for b1, a in ((1.0, 1e-17), (0.25, 5e-324), (10.0, 5e-324)):
        v = l2_log((b1, 0.0), (a, 0.0))
        want = b1 * (math.log(a) - math.log(b1))
        assert v[1] == 0.0 and abs(v[0] - want) <= 1e-14 * abs(want)


def test_log_launch_needs_a_target_in_the_wedge():
    assert l2_log((1.0, 0.0), (1.0, 0.0)) == (0.0, 0.0)
    assert l2_log((1.0, 0.0), (2.0, 1.0)) == (0.5, 0.5)  # null: d1 = d2
    for base, target in (((1.0, 0.0), (1.0, 2.0)), ((1.0, 0.0), (1.0, 2.5)),
                         ((1.0, 0.0), (-0.5, 0.3)), ((0.0, 0.0), (1.0, 0.0))):
        with pytest.raises(DomainError):
            l2_log(base, target)


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


@settings(max_examples=25, deadline=None)
@given(
    x=st.tuples(st.floats(0.3, 3.0), st.floats(-2.0, 2.0)),
    v=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
# subnormal launch speeds, whose squares underflow to 0
@example(x=(2.9375, 0.0), v=(0.0, 2.236626474663235e-241))
@example(x=(0.30078125, 0.0), v=(0.0, 2.88e-233))
def test_numeric_geodesics_conserve_c_and_lambda(x, v):
    # c = v2/x1**2 and lam = (v2**2 - v1**2)/x1**2 hold on every sample,
    # escaping geodesics included, to well within the step tolerance,
    # measured against the size |v|/x1**2 (|v|**2/x1**2) of the sample;
    # hypot keeps |v| from underflowing where v1**2 + v2**2 would
    traj = integrate_geodesic(L2.field, x, v, (-1.5, 1.5), samples=31)
    c0, lam0 = conserved_quantities(x, v)
    x1, v1, v2 = traj.x[:, 0], traj.v[:, 0], traj.v[:, 1]
    speed = np.hypot(v1, v2) / x1
    assert np.all(np.abs(v2 / (x1 * x1) - c0) <= 1e-8 * speed / x1)
    assert np.all(np.abs((v2 * v2 - v1 * v1) / (x1 * x1) - lam0) <= 1e-8 * speed * speed)


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


@pytest.mark.parametrize("p, v, span", [
    ((1.3, 0.2), (0.4, -0.7), 0.3),
    ((0.84, 0.39), (-0.75, 0.41), 0.2),
    ((0.63, -0.16), (1.0, -0.58), 0.2),
])
def test_involution_maps_numeric_geodesics_to_geodesics_with_the_same_parameter(p, v, span):
    # metamorphic: iota(sigma(t)) = tau(t), both integrated, where tau starts
    # from the pushforward of (sigma(0), sigma'(0)); the image is traversed
    # the other way only from the negated pushed velocity
    sigma = integrate_geodesic(L2.field, p, v, (-span, span), samples=61)
    q, w = involution_pushforward(p, v)
    tau = integrate_geodesic(L2.field, q, (w.xi1, w.xi2), (-span, span), samples=61)
    back = integrate_geodesic(L2.field, q, (-w.xi1, -w.xi2), (-span, span), samples=61)
    assert sigma.complete and tau.complete and back.complete
    image = np.array([involution(x) for x in sigma.x])
    np.testing.assert_allclose(image, tau.x, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(image, back.x[::-1], rtol=0.0, atol=1e-10)
    assert np.max(np.abs(image - tau.x[::-1])) > 1e-2


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

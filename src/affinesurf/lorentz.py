"""Closed-form geodesics of the Lorentzian half-plane model ``L2``.

The chart is the half plane x1 > 0 with metric g = (x1)**(-2) diag(-1, 1),
which coincides with the Ricci tensor of the connection.  Two quantities
are constant along every geodesic:

    c   = v2 / (x1)**2          (Killing field d/dx2)
    lam = (v2**2 - v1**2) / (x1)**2   (the metric energy g(v, v))

A vector is timelike (lam < 0) when |v1| > |v2| and spacelike when
|v1| < |v2|.  Eliminating the parameter gives the orbit equation

    (x1)**2 - (x2 + beta)**2 = lam / c**2      (c != 0)

so non-vertical geodesics run along hyperbolas (or line pairs when null).
Every geodesic belongs to one of four closed-form families:

* vertical:  (a*exp(b*t), alpha), complete, timelike or a point;
* null:      (k/s, +-k/s + alpha) in affine parameter s, one-sided escape;
* timelike:  (1/(C*sinh u), S*coth(u)/C - beta) with u an affine rescaling
  of t, escape toward u -> 0 where x1 -> infinity;
* spacelike: (1/(C*sin u), S*cot(u)/C - beta) with u in (0, pi) an affine
  rescaling of t, escaping in BOTH directions with total affine length
  pi/omega (pi when lam = 1).

``l2_log`` inverts the exponential map: the half plane is the slice
B - T > 0 of the pseudosphere through E(x1, x2) = (x2/x1, (1 + x1**2 -
x2**2)/(2 x1), (x1**2 - x2**2 - 1)/(2 x1)), and <E(p), E(q)> =
(p1**2 + q1**2 - (p2 - q2)**2)/(2 p1 q1), so q = exp_p(v) with v =
``l2_log(p, q)`` exactly when q lies in the wedge |q2 - p2| < p1 + q1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateFitError, DomainError, ParamOutOfDomainError
from .fields import Point2, TangentVector2

__all__ = [
    "l2_metric",
    "l2_inner",
    "causal_type",
    "conserved_quantities",
    "ClosedFormGeodesic",
    "fit_l2_geodesic",
    "l2_log",
    "orbit_residual",
    "hyperbola_residual",
    "involution",
    "involution_pushforward",
]


def l2_metric(p) -> np.ndarray:
    x1 = float(p[0])
    if x1 <= 0.0:
        raise DomainError("the Lorentz half-plane chart needs x1 > 0")
    s = 1.0 / (x1 * x1)
    return np.array([[-s, 0.0], [0.0, s]])


def l2_inner(p, u, w) -> float:
    g = l2_metric(p)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(u @ g @ w)


def causal_type(p, v, *, tol: float = 0.0) -> str:
    q = l2_inner(p, v, v)
    if q < -tol:
        return "timelike"
    if q > tol:
        return "spacelike"
    return "null"


def conserved_quantities(p, v) -> tuple[float, float]:
    """(c, lam): the Killing momentum and the metric energy of (p, v)."""
    x1 = float(p[0])
    if x1 <= 0.0:
        raise DomainError("the Lorentz half-plane chart needs x1 > 0")
    v1, v2 = float(v[0]), float(v[1])
    return v2 / (x1 * x1), (v2 * v2 - v1 * v1) / (x1 * x1)


@dataclass(frozen=True)
class ClosedFormGeodesic:
    """A fitted closed-form geodesic with point(0), velocity(0) prescribed.

    ``t_min``/``t_max`` bound the maximal affine domain (infinite where the
    geodesic is complete); finite bounds are escape times at which x1 blows
    up.  ``family`` is "point", "vertical", "null", "timelike" or
    "spacelike".
    """

    family: str
    c: float
    lam: float
    t_min: float
    t_max: float
    _point: Callable[[float], tuple[float, float]]
    _velocity: Callable[[float], tuple[float, float]]
    beta: float | None = None

    def point(self, t: float) -> Point2:
        self._require(t)
        x1, x2 = self._point(float(t))
        return Point2(x1, x2)

    def velocity(self, t: float) -> TangentVector2:
        self._require(t)
        v1, v2 = self._velocity(float(t))
        return TangentVector2(v1, v2)

    def _require(self, t: float) -> None:
        if not (self.t_min < t < self.t_max):
            raise ParamOutOfDomainError(
                f"t={t} outside the maximal domain ({self.t_min}, {self.t_max})"
            )

    @property
    def complete(self) -> bool:
        return math.isinf(self.t_min) and math.isinf(self.t_max)


def fit_l2_geodesic(point, velocity) -> ClosedFormGeodesic:
    """Fit the closed-form family through (point, velocity) at t = 0."""
    x1, x2 = float(point[0]), float(point[1])
    v1, v2 = float(velocity[0]), float(velocity[1])
    if x1 <= 0.0:
        raise DomainError("the Lorentz half-plane chart needs x1 > 0")
    c, lam = conserved_quantities(point, velocity)
    inf = math.inf

    if v1 == 0.0 and v2 == 0.0:
        return ClosedFormGeodesic(
            family="point", c=0.0, lam=0.0, t_min=-inf, t_max=inf,
            _point=lambda t: (x1, x2), _velocity=lambda t: (0.0, 0.0),
        )

    if c == 0.0:
        # vertical line x2 = const with exponential x1
        b = v1 / x1
        return ClosedFormGeodesic(
            family="vertical", c=0.0, lam=lam, t_min=-inf, t_max=inf,
            _point=lambda t: (x1 * math.exp(b * t), x2),
            _velocity=lambda t: (b * x1 * math.exp(b * t), 0.0),
        )

    if abs(v1) == abs(v2):
        # null: sigma(s) = (k/s, sgn*k/s + alpha) in affine parameter s
        sgn = 1.0 if (v1 > 0.0) == (v2 > 0.0) else -1.0
        s0 = -x1 / v1
        k = x1 * s0
        alpha = x2 - sgn * x1
        t_min, t_max = (-s0, inf) if s0 > 0.0 else (-inf, -s0)
        return ClosedFormGeodesic(
            family="null", c=c, lam=0.0, t_min=t_min, t_max=t_max,
            _point=lambda t: (k / (t + s0), sgn * k / (t + s0) + alpha),
            _velocity=lambda t: (-k / (t + s0) ** 2, -sgn * k / (t + s0) ** 2),
            beta=-alpha,
        )

    if lam == 0.0:
        raise DegenerateFitError(f"lam = (v2**2 - v1**2)/x1**2 underflows at v = {(v1, v2)}")
    omega = math.sqrt(abs(lam))
    beta = x1 * v1 / v2 - x2
    big_c = abs(c) / omega

    if lam < 0.0:
        # timelike: u = eps*omega*t + u0 with sinh(u0) = 1/(C*x1).  Since
        # |v1| > |v2| >= 0 here, v1 is never 0 and fixes the direction; S is
        # pinned by the Killing momentum (c = -eps*omega*S*C).
        sin, cos = math.sinh, math.cosh
        u0 = math.asinh(1.0 / (big_c * x1))
        eps = -1.0 if v1 > 0.0 else 1.0
        big_s = -1.0 if c * eps > 0.0 else 1.0
        t_min, t_max = ((-u0 / omega, inf) if eps > 0 else (-inf, u0 / omega))
    else:
        # spacelike: u = eps*omega*t + u0 in (0, pi) with sin(u0) = 1/(C*x1)
        # and cot(u0) = S*C*(x2 + beta); c = -eps*omega*S*C pins S.  As
        # reversing u traces the same curve, eps = +1 and the sign of the
        # cotangent picks the arcsin branch, except where a branch loses
        # digits: near the apex u0 = pi/2 the arcsin keeps only half of them,
        # so u0 comes from the cotangent; and on a nearly null launch
        # pi - u0 rounds a tiny u0 away, so eps = -1 keeps u0 itself.
        sin, cos = math.sin, math.cos
        eps, big_s = 1.0, (-1.0 if c > 0.0 else 1.0)
        cot0 = big_s * big_c * (x2 + beta)
        if abs(cot0) < 1e-4:
            u0 = math.atan2(1.0, cot0)
        else:
            u0 = math.asin(min(1.0, 1.0 / (big_c * x1)))
            if cot0 < 0.0 and u0 < 1e-6:
                eps, big_s = -1.0, -big_s
            elif cot0 < 0.0:
                u0 = math.pi - u0
        t_min, t_max = -u0 / omega, (math.pi - u0) / omega
        if eps < 0.0:
            t_min, t_max = -t_max, -t_min

    # sin and cos are hyperbolic on a timelike orbit.  x2 = S cot(u)/C - beta
    # is written as its difference from x2(0), free of beta, which is huge
    # on a nearly vertical launch and would take x2's digits with it
    def pt(t, e=eps, w=omega, u_0=u0, C=big_c, S=big_s, y0=x2, sn0=sin(u0)):
        u = e * w * t + u_0
        sn = sin(u)
        return (1.0 / (C * sn), y0 + S * sin(u_0 - u) / (C * sn * sn0))

    def vel(t, e=eps, w=omega, u_0=u0, C=big_c, S=big_s):
        u = e * w * t + u_0
        sn = sin(u)
        return (-e * w * cos(u) / (C * sn * sn), -e * w * S / (C * sn * sn))

    geo = ClosedFormGeodesic(
        family="timelike" if lam < 0.0 else "spacelike", c=c, lam=lam,
        t_min=t_min, t_max=t_max, _point=pt, _velocity=vel, beta=beta,
    )

    _check_fit(geo, (x1, x2), (v1, v2))
    return geo


def l2_log(base, target) -> tuple[float, float]:
    """The launch v with exp_base(v) = target at t = 1, for a target in the
    wedge |target2 - base2| < base1 + target1.

    On the pseudosphere v is theta/sin(theta) (E(q) - c E(p)) with c =
    <E(p), E(q)> and theta = arccos(c) (arccosh(c) when c > 1).  In the
    chart, c - 1 = -m/(2 a b1) and c + 1 = p/(2 a b1) with the factored
    m and p below, which keep their digits where c is near 1 or -1; a
    target on the base's vertical line gets v2 = 0 exactly.  The
    coordinates are squared, so they must stay below about 1e154.
    """
    b1, b2 = float(base[0]), float(base[1])
    a, b = float(target[0]), float(target[1])
    d1, d2 = a - b1, b - b2
    m = (abs(d2) - abs(d1)) * (abs(d2) + abs(d1))  # > 0 spacelike, < 0 timelike
    # the gap to the wedge edge is summed exactly: near the edge theta ->
    # pi (or atanh -> infinity) and k carries the gap's relative error
    gap = math.fsum((a, b1, -b, b2) if d2 >= 0.0 else (a, b1, b, -b2))
    p = gap * (a + b1 + abs(d2))  # > 0 inside the wedge
    if not (b1 > 0.0 and a > 0.0 and p > 0.0):
        raise DomainError("l2_log needs x1 > 0 and |q2 - p2| < p1 + q1")
    if m > 0.0:
        k = 2.0 * math.atan2(math.sqrt(m), math.sqrt(p)) * b1 / math.sqrt(m * p)
    elif m < 0.0:
        # theta = 2 atanh(sqrt(-m/p)), written with p + m = 4 a b1 so that a
        # target with x1 far from b1 (atanh near 1) keeps its digits; past a
        # ratio of 1e308 the log1p argument overflows and is taken apart
        r, s = math.sqrt(-m), math.sqrt(p)
        q = r / a * ((s + r) / (2.0 * b1))
        theta = math.log1p(q) if q < math.inf else (
            math.log(r) - math.log(a) + math.log(s + r) - math.log(2.0 * b1))
        k = theta * b1 / math.sqrt(-m * p)
    else:
        k = 0.5 / a  # null: theta/sin(theta) -> 1
    return k * ((a + b1) * d1 - d2 * d2), k * (2.0 * b1 * d2)


def _check_fit(geo: ClosedFormGeodesic, p, v) -> None:
    p0 = geo.point(0.0)
    v0 = geo.velocity(0.0)
    scale = 1.0 + max(abs(p[0]), abs(p[1]), abs(v[0]), abs(v[1]))
    err = max(abs(p0[0] - p[0]), abs(p0[1] - p[1]), abs(v0[0] - v[0]), abs(v0[1] - v[1]))
    if err > 1e-9 * scale:
        raise ParamOutOfDomainError(
            f"closed-form fit failed to reproduce initial data (defect {err:.3e})"
        )


def orbit_residual(points, point0, velocity0) -> float:
    """Max defect of sampled points from the conserved orbit equation.

    Non-vertical geodesics satisfy (x1)^2 - (x2+beta)^2 = lam/c^2; vertical
    ones degenerate to the line x2 = const and are checked against it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    c, lam = conserved_quantities(point0, velocity0)
    if c == 0.0:
        return float(np.max(np.abs(pts[:, 1] - float(point0[1])))) if pts.size else 0.0
    beta = float(point0[0]) * float(velocity0[0]) / float(velocity0[1]) - float(point0[1])
    vals = pts[:, 0] ** 2 - (pts[:, 1] + beta) ** 2 - lam / (c * c)
    return float(np.max(np.abs(vals))) if pts.size else 0.0


def hyperbola_residual(points, point0, velocity0) -> float:
    """orbit_residual restricted to orbits that really are conic sections.

    Vertical geodesics carry no angular momentum, so the quadratic orbit
    equation does not exist for them; asking for its residual is an error
    rather than a zero.
    """
    c, _ = conserved_quantities(point0, velocity0)
    if abs(c) < 1e-13:
        raise DegenerateFitError(
            "vertical geodesic: no hyperbola equation (c = v2/x1^2 vanishes)"
        )
    return orbit_residual(points, point0, velocity0)


def involution(p) -> Point2:
    """The half-plane involution (x1, x2) -> (x1, -x2)/((x1)^2 - (x2)^2).

    Defined on the wedge (x1)^2 > (x2)^2; it is an involutive connection
    symmetry.  It maps a geodesic sigma to the geodesic tau launched from
    ``involution_pushforward(sigma(0), sigma'(0))`` with the same parameter,
    involution(sigma(t)) = tau(t); the null line x2 = x1 - 1 through the
    fixed point (1, 0) goes to itself, run the other way.
    """
    x1, x2 = float(p[0]), float(p[1])
    d = x1 * x1 - x2 * x2
    if x1 <= 0.0 or d <= 0.0:
        raise DomainError("involution needs x1 > |x2|")
    return Point2(x1 / d, -x2 / d)


def involution_pushforward(p, v) -> tuple[Point2, TangentVector2]:
    """Image point and pushed tangent vector under the involution."""
    x1, x2 = float(p[0]), float(p[1])
    q = involution(p)
    d = x1 * x1 - x2 * x2
    jac = (
        np.array([[-(x1 * x1 + x2 * x2), 2.0 * x1 * x2],
                  [2.0 * x1 * x2, -(x1 * x1 + x2 * x2)]])
        / (d * d)
    )
    w = jac @ np.asarray(v, dtype=float)
    return q, TangentVector2(float(w[0]), float(w[1]))

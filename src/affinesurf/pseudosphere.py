"""The unit pseudosphere in Minkowski 3-space and its universal cover.

The surface is {x : <x, x> = 1} for the inner product with signature
(+, +, -).  Its geodesics through a point P with tangent xi are elementary
in the ambient coordinates, which makes reachability questions and the
lifted picture in the (u, v) chart fully explicit.

T(u, v) is 2 pi periodic in v, so the (u, v) plane, the catalog's
``pseudosphere`` chart, is the universal cover.  ``lift_path`` lifts ambient
paths to it; its exp map is ``coverage.exp_coverage``, a reached/unknown sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coverage import REACHED, UNKNOWN, UNREACHED
from .errors import DomainError, LiftAmbiguityError, NotTangentError

__all__ = [
    "minkowski_inner",
    "chart_T",
    "chart_partials",
    "chart_pullback_metric",
    "AmbientGeodesic",
    "pseudosphere_geodesic",
    "apex_reach",
    "lift_path",
    "write_ambient_csv",
]


def minkowski_inner(x, y) -> float:
    """Inner product of signature (+, +, -): x1 y1 + x2 y2 - x3 y3."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (3,) or y.shape != (3,):
        raise ValueError("minkowski_inner expects 3-vectors")
    return float(x[0] * y[0] + x[1] * y[1] - x[2] * y[2])


def chart_T(u: float, v: float) -> np.ndarray:
    """Global chart (cosh u cos v, cosh u sin v, sinh u); 2 pi periodic in v."""
    cu = np.cosh(u)
    return np.array([cu * np.cos(v), cu * np.sin(v), np.sinh(u)])


def chart_partials(u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    su, cu = np.sinh(u), np.cosh(u)
    sv, cv = np.sin(v), np.cos(v)
    t_u = np.array([su * cv, su * sv, cu])
    t_v = np.array([-cu * sv, cu * cv, 0.0])
    return t_u, t_v


def chart_pullback_metric(u: float, v: float) -> np.ndarray:
    """Ambient inner products of the chart partials: diag(-1, cosh^2 u)."""
    t_u, t_v = chart_partials(u, v)
    g = np.empty((2, 2))
    g[0, 0] = minkowski_inner(t_u, t_u)
    g[0, 1] = g[1, 0] = minkowski_inner(t_u, t_v)
    g[1, 1] = minkowski_inner(t_v, t_v)
    return g


@dataclass(frozen=True)
class AmbientGeodesic:
    """Ambient-coordinate geodesic of the pseudosphere.

    ``family`` is "spacelike", "null" or "timelike" by the sign of
    <xi, xi>; omega is sqrt(|<xi, xi>|) (0 for null).  point and velocity
    accept complex parameters, so derivatives can be taken by complex
    step.
    """

    family: str
    omega: float
    base: np.ndarray
    xi: np.ndarray
    _point: Callable
    _velocity: Callable

    def point(self, t):
        return self._point(t)

    def velocity(self, t):
        return self._velocity(t)

    def sample(self, ts) -> np.ndarray:
        return np.array([self._point(float(t)) for t in np.asarray(ts)])


def pseudosphere_geodesic(point, velocity, *, tol: float = 1e-10) -> AmbientGeodesic:
    """Geodesic with sigma(0) = point, sigma'(0) = velocity.

    The base point must satisfy <P, P> = 1 within tol and the velocity
    must be tangent (<P, xi> = 0 within tol).  The velocity is kept as
    given; a non-unit causal velocity just rescales the affine parameter.
    """
    p = np.asarray(point, dtype=float)
    xi = np.asarray(velocity, dtype=float)
    if p.shape != (3,) or xi.shape != (3,):
        raise ValueError("point and velocity must be 3-vectors")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(xi))):
        raise ValueError("point and velocity must be finite")
    if abs(minkowski_inner(p, p) - 1.0) > tol:
        raise DomainError("base point is not on the surface <x, x> = 1")
    pairing = minkowski_inner(p, xi)
    if abs(pairing) > tol:
        raise NotTangentError(
            f"velocity is not tangent to the surface: <P, xi> = {pairing:.3e}"
        )

    q = minkowski_inner(xi, xi)
    if abs(q) <= tol:
        return AmbientGeodesic(
            family="null", omega=0.0, base=p, xi=xi,
            _point=lambda t: p + t * xi,
            _velocity=lambda t: xi + 0.0 * t,
        )
    omega = math.sqrt(abs(q))
    xin = xi / omega
    if q > 0.0:
        return AmbientGeodesic(
            family="spacelike", omega=omega, base=p, xi=xi,
            _point=lambda t: np.cos(omega * t) * p + np.sin(omega * t) * xin,
            _velocity=lambda t: omega * (
                -np.sin(omega * t) * p + np.cos(omega * t) * xin
            ),
        )
    return AmbientGeodesic(
        family="timelike", omega=omega, base=p, xi=xi,
        _point=lambda t: np.cosh(omega * t) * p + np.sinh(omega * t) * xin,
        _velocity=lambda t: omega * (
            np.sinh(omega * t) * p + np.cosh(omega * t) * xin
        ),
    )


def apex_reach(target):
    """Reachability of a surface point from (1, 0, 0), with witness.

    Every geodesic through the apex has first coordinate cos(omega t), 1
    or cosh(omega t), so targets with x1 < -1 are beyond all of them.
    Returns (verdict, geodesic, t) where verdict is REACHED/UNREACHED and
    geodesic.point(t) hits the target when reached.
    """
    tol = 1e-10
    q = np.asarray(target, dtype=float)
    if q.shape != (3,):
        raise ValueError("target must be a 3-vector")
    if abs(minkowski_inner(q, q) - 1.0) > 1e-8:
        raise DomainError("target is not on the surface <x, x> = 1")
    p = np.array([1.0, 0.0, 0.0])
    q1 = q[0]
    w = np.array([0.0, q[1], q[2]])

    if q1 < -1.0 - tol:
        return UNREACHED, None, None
    if q1 < -1.0 + tol:
        if np.hypot(q[1], q[2]) <= tol:
            # the antipode itself: half turn along any spacelike direction
            geo = pseudosphere_geodesic(p, np.array([0.0, 1.0, 0.0]))
            return REACHED, geo, math.pi
        return UNKNOWN, None, None
    if abs(q1 - 1.0) <= tol:
        # on the null cone through the apex: x = P + t (0, 1, +-1)
        if np.hypot(q[1], q[2]) <= tol:
            geo = pseudosphere_geodesic(p, np.array([0.0, 1.0, 1.0]))
            return REACHED, geo, 0.0
        geo = pseudosphere_geodesic(p, w)
        return REACHED, geo, 1.0
    geo = pseudosphere_geodesic(p, w)
    if q1 > 1.0:
        return REACHED, geo, math.acosh(q1) / geo.omega
    return REACHED, geo, math.acos(q1) / geo.omega


def lift_path(points) -> tuple[np.ndarray, np.ndarray]:
    """Continuous (u, v) lift of an ambient path on the surface.

    u = arcsinh(x3) is global; v is the continuously unwrapped angle of
    (x1, x2).  Consecutive angle jumps above pi / 8 make the unwrapping
    ambiguous and raise LiftAmbiguityError (resample finer).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError("expected an (n, 3) array of ambient points")
    u = np.arcsinh(pts[:, 2])
    raw = np.arctan2(pts[:, 1], pts[:, 0])
    deltas = np.diff(raw)
    deltas = (deltas + math.pi) % (2.0 * math.pi) - math.pi
    if deltas.size and float(np.max(np.abs(deltas))) > math.pi / 8:
        raise LiftAmbiguityError(
            "angle step exceeds the unwrapping cap; sample the path finer"
        )
    v = raw[0] + np.concatenate([[0.0], np.cumsum(deltas)])
    return u, v


def write_ambient_csv(path, geo: AmbientGeodesic, ts) -> None:
    """Write sampled ambient coordinates as CSV rows t,x1,x2,x3."""
    ts = np.asarray(ts, dtype=float)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x1,x2,x3\n")
        for t in ts:
            x = geo.point(float(t))
            fh.write(f"{t:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g}\n")

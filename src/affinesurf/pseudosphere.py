"""The unit pseudosphere in Minkowski 3-space and its universal cover.

The surface is {x : <x, x> = 1} for the inner product with signature
(+, +, -).  Its geodesics through a point P with tangent xi are elementary
in the ambient coordinates, which makes reachability questions and the
lifted picture in the (u, v) chart fully explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coverage import REACHED, UNKNOWN, UNREACHED, CoverageMap, _mark_samples
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
    "coverage_universal_cover",
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


def _direction_samples(xi2: float, xi3: float, u_cap: float, n: int) -> np.ndarray:
    """Sampled ambient points along the apex geodesic with tangent
    (0, xi2, xi3), restricted to |u| <= u_cap."""
    p = np.array([1.0, 0.0, 0.0])
    geo = pseudosphere_geodesic(p, np.array([0.0, xi2, xi3]), tol=1e-12)
    x3_cap = math.sinh(u_cap)
    if geo.family == "spacelike":
        t_hi = 2.0 * math.pi / geo.omega
        ts = np.linspace(-t_hi, t_hi, 2 * n + 1)
    elif geo.family == "null":
        t_hi = x3_cap / max(abs(xi3), 1e-300)
        ts = np.linspace(-t_hi, t_hi, 2 * n + 1)
    else:
        t_hi = math.asinh(x3_cap * geo.omega / abs(xi3)) / geo.omega
        ts = np.linspace(-t_hi, t_hi, 2 * n + 1)
    return geo.sample(ts)


def coverage_universal_cover(
    window=(-4.0, 4.0, -4.0, 4.0),
    cells=80,
    *,
    directions: int = 512,
    samples_per_curve: int = 2048,
) -> CoverageMap:
    """Sweep apex geodesics, lift them, and mark the (u, v) cells they hit.

    ``window`` is (u_lo, u_hi, v_lo, v_hi).  Cells are REACHED when a
    sampled lifted point lands in them and UNREACHED otherwise, so the map
    is empirical: a fine ``directions``/``samples_per_curve`` budget is
    needed for a faithful picture.  Spacelike lifts are checked to refocus
    at (0, +-pi) before marking; a failure raises ValueError.
    """
    from .coverage import _window_edges

    u_edges, v_edges = _window_edges(window, cells)
    grid = np.full((len(u_edges) - 1, len(v_edges) - 1), UNREACHED, dtype=int)
    u_cap = max(abs(u_edges[0]), abs(u_edges[-1])) + 0.2

    for k in range(directions):
        phi = 2.0 * math.pi * k / directions
        xi2, xi3 = math.cos(phi), math.sin(phi)
        pts = _direction_samples(xi2, xi3, u_cap, samples_per_curve)
        n_try = samples_per_curve
        while True:
            try:
                u, v = lift_path(pts)
                break
            except LiftAmbiguityError:
                n_try *= 2
                if n_try > 2**17:
                    raise
                pts = _direction_samples(xi2, xi3, u_cap, n_try)
        if xi2 * xi2 - xi3 * xi3 > 1e-12:
            # spacelike: the lift must pass through the focus (0, +-pi)
            omega = math.sqrt(xi2 * xi2 - xi3 * xi3)
            geo = pseudosphere_geodesic(
                np.array([1.0, 0.0, 0.0]), np.array([0.0, xi2, xi3])
            )
            half = geo.point(math.pi / omega)
            fu, fv = lift_path(np.array([[1.0, 0.0, 0.0], *_arc(geo, omega)]))
            if abs(fu[-1]) > 1e-6 or abs(abs(fv[-1]) - math.pi) > 1e-6:
                raise ValueError(
                    f"focusing check failed for direction {phi}: "
                    f"lift of the antipode {half} is ({fu[-1]}, {fv[-1]})"
                )
        inside = (np.abs(u) <= u_cap)
        _mark_samples(grid, u_edges, v_edges, np.column_stack([u, v])[inside])

    return CoverageMap(
        base=(0.0, 0.0),
        x_edges=u_edges,
        y_edges=v_edges,
        grid=grid,
        axis_names=("u", "v"),
    )


def _arc(geo: AmbientGeodesic, omega: float) -> np.ndarray:
    ts = np.linspace(0.0, math.pi / omega, 257)[1:]
    return geo.sample(ts)


def write_ambient_csv(path, geo: AmbientGeodesic, ts) -> None:
    """Write sampled ambient coordinates as CSV rows t,x1,x2,x3."""
    ts = np.asarray(ts, dtype=float)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x1,x2,x3\n")
        for t in ts:
            x = geo.point(float(t))
            fh.write(f"{t:.17g},{x[0]:.17g},{x[1]:.17g},{x[2]:.17g}\n")

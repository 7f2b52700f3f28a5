"""Jacobi fields along geodesics and conjugate-point location.

A Jacobi field J along a geodesic sigma satisfies the second-order system
nabla^2 J + R(J, sigma') sigma' = 0.  ``integrate_jacobi`` integrates it in
a parallel frame (e1, e2) transported along sigma, so the unknowns are the
frame coefficients a with J = a1 e1 + a2 e2 and the equation becomes

    a''_b = [E^{-1} W]_b,   W = -sum_b a_b R(e_b, sigma') sigma'

with E the chart matrix of the frame.

Conjugate points need no frame.  Take the parallel frame (sigma', E).  The
Jacobi operator K a = R(a, sigma') sigma' has K sigma' = 0 and trace K =
rho(sigma', sigma') =: kappa, so R(E, sigma') sigma' = kappa E + mu sigma'.
The field with J(0) = 0, J'(0) = sigma' is t sigma', and the E coefficient
a of the field with J(0) = 0, J'(0) = E solves the scalar linear equation

    a'' + kappa(t) a = 0,   a(0) = 0,   a'(0) = 1.

The two fields are dependent exactly where t a(t) = 0, so the conjugate
points of sigma(0) are the zeros of a for t > 0, and a nontrivial solution
of this equation has only simple zeros: each one is a sign change.

Where the curvature is parallel, kappa is constant along sigma, a(t) =
sin(sqrt(kappa) t) / sqrt(kappa), and the conjugate points are t = n pi /
sqrt(kappa) when kappa > 0; there are none when kappa <= 0.
``conjugate_points`` uses this on kind-A/B charts that pass the exact
nabla rho = 0 test.  Elsewhere (analytic charts, whose symmetry test is
only grid-sampled, and kind-A/B charts that are not locally symmetric) it
integrates a alongside the geodesic and refines each sign change on the
scan grid by Brent's method (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4), ported here as ``brentq``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at, is_locally_symmetric
from .errors import FrameDegenerateError, IntegrationError, InvalidIVPError
from .fields import KIND_ANALYTIC, ChristoffelField, christoffel_at
from .geodesics import _check_ivp, _run, geodesic_rhs
from .integrate import solve_ode

__all__ = ["JacobiSolution", "integrate_jacobi", "conjugate_points"]


def brentq(f, a: float, b: float, *, xtol: float = 2e-12, maxiter: int = 100) -> float:
    """A root of f in the bracket [a, b] by Brent's method.

    Step for step the algorithm of SciPy's ``brentq``, so it returns the
    same float: an inverse quadratic or secant step while it shrinks the
    bracket fast enough, bisection otherwise.  Raises ValueError when f(a)
    and f(b) have the same sign or f returns NaN, and RuntimeError when
    ``maxiter`` iterations do not converge.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # converged once the bracket [xcur, xblk] is shorter than 2 * delta;
        # the relative part is SciPy's default rtol, four float epsilons
        delta = (xtol + 4 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        if short:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _pack_state(point, velocity, frame, a, adot) -> np.ndarray:
    """The state ``_jacobi_rhs`` steps: x, v, the frame legs e1 and e2 (the
    columns of ``frame``), then the field's frame coefficients a and a'."""
    parts = (point, velocity, frame[:, 0], frame[:, 1], a, adot)
    return np.concatenate([np.asarray(c, dtype=float) for c in parts])


def _frame_matrix(y: np.ndarray) -> np.ndarray:
    """Columns e1, e2 of the transported frame from the packed state."""
    return np.array([[y[4], y[6]], [y[5], y[7]]])


def _chart_vectors(y: np.ndarray):
    """Point, velocity and the first Jacobi field in chart components."""
    return y[0:2], y[2:4], _frame_matrix(y) @ y[8:10]


def _jacobi_rhs(field: ChristoffelField):
    def f(t, y):
        y = np.asarray(y, dtype=float)
        x = y[0:2]
        v = y[2:4]
        g = christoffel_at(field, x)
        out = np.empty_like(y)
        out[0:2] = v
        out[2:4] = -np.einsum("ijk,i,j->k", g, v, v)
        # parallel transport of both frame legs
        gv = np.einsum("ijk,i->jk", g, v)  # gv[j, k]
        e1 = y[4:6]
        e2 = y[6:8]
        out[4:6] = -e1 @ gv
        out[6:8] = -e2 @ gv
        emat = _frame_matrix(y)
        det = emat[0, 0] * emat[1, 1] - emat[0, 1] * emat[1, 0]
        if abs(det) < 1e-14:
            raise FrameDegenerateError("transported frame degenerated")
        inv = np.array([[emat[1, 1], -emat[0, 1]], [-emat[1, 0], emat[0, 0]]]) / det
        r = curvature_at(field, x)
        # rv[i, l] = components of R(d_i, v) v
        rv = np.einsum("ijkl,j,k->il", r, v, v)
        j_chart = emat @ y[8:10]
        w = -j_chart @ rv  # w[l]
        out[8:10] = y[10:12]
        out[10:12] = inv @ w
        return out

    return f


def _kappa(field: ChristoffelField, p, v) -> float:
    """kappa = rho(v, v) = R[i, j, k, i] v_j v_k at p, summed from 0.0 in
    (i, j, k) order."""
    r = curvature_at(field, p).tolist()
    kappa = 0.0
    for i, j, k in itertools.product((0, 1), repeat=3):
        kappa += r[i][j][k][i] * v[j] * v[k]
    return kappa


def _scalar_jacobi_rhs(field: ChristoffelField):
    """Right-hand side of y = (x1, x2, v1, v2, a, a'): the geodesic and the
    scalar Jacobi equation a'' = -rho(v, v) a along it."""
    geodesic = geodesic_rhs(field)

    def f(t, y):
        x1, x2, v1, v2, a, adot = y
        return geodesic(t, y[:4]) + [adot, -_kappa(field, (x1, x2), (v1, v2)) * a]

    return f


@dataclass
class JacobiSolution:
    """Samples of a geodesic, its parallel frame, and Jacobi coefficients."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    frame: np.ndarray  # (n, 2, 2) chart matrix, columns are e1 and e2
    a: np.ndarray  # (n, 2)
    adot: np.ndarray
    status: str
    t_escape: float | None

    def jacobi_chart(self, i: int) -> np.ndarray:
        """Chart components of the Jacobi field at sample i."""
        return self.frame[i] @ self.a[i]


def _validate_frame(frame) -> np.ndarray:
    """Initial frame given as a pair of chart vectors (e1, e2) -> columns."""
    e = np.asarray(frame, dtype=float)
    if e.shape != (2, 2):
        raise InvalidIVPError("frame must be a pair of 2-vectors (e1, e2)")
    e = e.T
    if abs(np.linalg.det(e)) < 1e-12:
        raise FrameDegenerateError("initial frame is (near) degenerate")
    return e


def _reachable_cap(field, p, v, t_max):
    """Largest safe sweep end before the plain geodesic stops.

    A geodesic system augmented by Jacobi unknowns becomes hopelessly stiff
    inside a finite-time escape, so the geodesic alone is run first, as
    ``geodesics._run`` steps and diagnoses it; if it stops before t_max the
    sweep end is pulled back by a small relative margin.  Returns (cap,
    status, t_escape) where status is the verdict to report when the cap is
    the binding constraint.
    """
    t_max = float(t_max)
    probe, status = _run(field, p, v, t_max)
    if status == "complete":
        return t_max, "complete", None
    t_stop = probe.t_final
    margin = 2e-3 * max(1.0, abs(t_stop))
    cap = t_stop - math.copysign(margin, t_max)
    if t_max < 0.0:
        cap = min(cap, 0.0)
    else:
        cap = max(cap, 0.0)
    return cap, status, probe.t_escape


def integrate_jacobi(
    field: ChristoffelField,
    point,
    velocity,
    a0,
    adot0,
    t_max: float,
    *,
    frame=((1.0, 0.0), (0.0, 1.0)),
    samples: int = 201,
) -> JacobiSolution:
    """Integrate one Jacobi field with frame coefficients (a0, adot0).

    The run ends at the reachable cap of the plain geodesic (see
    ``_reachable_cap``) and reports that geodesic's status and escape
    estimate.  In the rare case where the 12-component run itself stops
    before the cap, its own solver status and escape estimate are reported.
    ``solve_ode``'s default tolerances serve both runs.
    """
    p, v = _check_ivp(field, point, velocity)
    if not math.isfinite(t_max):
        raise InvalidIVPError("t_max must be finite")
    e = _validate_frame(frame)
    y0 = _pack_state(p, v, e, a0, adot0)
    cap, cap_status, cap_escape = _reachable_cap(field, p, v, t_max)
    res = solve_ode(_jacobi_rhs(field), 0.0, y0, cap, t_eval=np.linspace(0.0, cap, samples))
    if res.status == "reached":
        status, t_escape = cap_status, cap_escape
    else:
        status, t_escape = res.status, res.t_escape
    ys = res.sample_ys
    frames = np.empty((ys.shape[0], 2, 2))
    for i in range(ys.shape[0]):
        frames[i] = _frame_matrix(ys[i])
    return JacobiSolution(
        t=res.sample_ts,
        x=ys[:, 0:2],
        v=ys[:, 2:4],
        frame=frames,
        a=ys[:, 8:10],
        adot=ys[:, 10:12],
        status=status,
        t_escape=t_escape,
    )


def _parallel_curvature_roots(field, p, v, t_max) -> list[float]:
    """Conjugate points n pi / sqrt(kappa), kappa = rho(v, v), up to the
    reachable cap of the geodesic; none when kappa <= 0."""
    kappa = _kappa(field, p, v)
    if kappa <= 0.0:
        return []
    period = math.pi / math.sqrt(kappa)
    if period > t_max:
        return []
    cap, _, _ = _reachable_cap(field, p, v, t_max)
    return list(itertools.takewhile(lambda t: t <= cap, (n * period for n in itertools.count(1))))


def conjugate_points(
    field: ChristoffelField,
    point,
    velocity,
    t_max: float,
    *,
    scan_samples: int = 400,
) -> list[float]:
    """Parameter values in (0, t_max] conjugate to t = 0 along the geodesic.

    On a kind-A/B chart with nabla rho = 0 (an exact test) the roots are
    n pi / sqrt(kappa) with kappa = rho(velocity, velocity) at the launch
    point, and there are none when kappa <= 0; the geodesic is integrated
    only when the first of them lies within t_max, to find how far it
    reaches.  ``scan_samples`` is then unused.

    Otherwise integrates the scalar Jacobi equation a'' + rho(sigma',
    sigma') a = 0, a(0) = 0, a'(0) = 1 alongside the geodesic; the
    conjugate points are the zeros of a, each a sign change (see the module
    docstring).  Sign changes on a ``scan_samples`` grid are refined by
    Brent's method re-integrating from the nearest accepted knot, so each
    root is located to integrator accuracy rather than grid accuracy.

    On either path, if the geodesic itself stops before t_max (escape or
    chart exit), only roots up to a small relative margin before the stop
    are returned.  Every run uses ``solve_ode``'s default tolerances.
    """
    p, v = _check_ivp(field, point, velocity)
    if not math.isfinite(t_max):
        raise InvalidIVPError("t_max must be finite")
    if v == (0.0, 0.0):
        raise InvalidIVPError("conjugate points need a nonzero velocity")
    if field.kind != KIND_ANALYTIC and is_locally_symmetric(field):
        return _parallel_curvature_roots(field, p, v, t_max)
    rhs = _scalar_jacobi_rhs(field)
    cap, _, _ = _reachable_cap(field, p, v, t_max)
    if cap <= 0.0:
        return []
    grid = np.linspace(0.0, cap, scan_samples)
    res = solve_ode(rhs, 0.0, [*p, *v, 0.0, 1.0], cap, t_eval=grid)
    knots_t, knots_y = res.ts, res.ys

    def a_at(t: float) -> float:
        idx = int(np.searchsorted(knots_t, t, side="right")) - 1
        idx = max(0, min(idx, knots_t.shape[0] - 1))
        t0, y0k = float(knots_t[idx]), knots_y[idx]
        if t0 == t:
            return float(y0k[4])
        sub = solve_ode(rhs, t0, y0k, t)
        if sub.status != "reached":
            raise IntegrationError(f"could not re-integrate to t={t} while refining a root")
        return float(sub.ys[-1][4])

    ts, avals = res.sample_ts, res.sample_ys[:, 4]
    # a starts at 0; skip the launch sample
    roots: list[float] = []
    for i in range(1, len(ts) - 1):
        a, b = avals[i], avals[i + 1]
        if a == 0.0 and abs(ts[i]) > 1e-12:
            roots.append(float(ts[i]))
        elif a * b < 0.0:
            roots.append(brentq(a_at, ts[i], ts[i + 1], xtol=1e-12))
    return roots

"""Geodesic initial value problems for connection charts.

The geodesic system is integrated in first-order form y = (x1, x2, v1, v2)
with y' = (v, -G(v, v)) where G is the pointwise connection table.  A
trajectory that cannot be continued to the requested parameter bound is
reported with a finite escape-time estimate; completeness probes are built
on top of that diagnosis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import InvalidIVPError
from .fields import KIND_B, ChristoffelField, Point2, christoffel_at
from .integrate import BatchResult, IntegrationResult, solve_ode, solve_ode_batch

__all__ = [
    "GeodesicTrajectory",
    "Incomplete",
    "geodesic_rhs",
    "geodesic_rhs_batch",
    "integrate_geodesic",
    "integrate_geodesics",
    "exp_map",
    "write_trajectory_csv",
]

COMPLETE = "complete"
NOT_REQUESTED = "not_requested"


def geodesic_rhs(field: ChristoffelField) -> Callable:
    """Right-hand side (v, -G(v, v)) of the first-order geodesic system.

    Takes y as a float ndarray (4,) and returns a list of floats.  G(v, v)_k
    is summed from 0.0 over (i, j) in order as (G[i, j, k] * v_i) * v_j,
    which gives the bits of ``np.einsum("ijk,i,j->k", G, v, v)``.
    """

    def f(t, y):
        x1, x2, v1, v2 = y.tolist()
        (g00, g01), (g10, g11) = christoffel_at(field, (x1, x2)).tolist()
        return [v1, v2] + [
            -(0.0 + a * v1 * v1 + b * v1 * v2 + c * v2 * v1 + e * v2 * v2)
            for a, b, c, e in zip(g00, g01, g10, g11)
        ]

    return f


def geodesic_rhs_batch(field: ChristoffelField) -> Callable:
    """``geodesic_rhs`` for n states at once, the rows of y (n, 4).

    A row outside the chart of a kind-B field gets NaN derivatives, which
    make ``solve_ode_batch`` reject that row's step alone.
    """

    def f(t, y):
        x = y[:, 0:2]
        if field.kind == KIND_B:
            x = np.where(x[:, 0:1] > 0.0, x, np.nan)
        g = christoffel_at(field, x)
        v = y[:, 2:4]
        acc = -np.einsum("nijk,ni,nj->nk", g, v, v)
        return np.concatenate((v, acc), axis=1)

    return f


def _check_ivp(field: ChristoffelField, point, velocity):
    p = tuple(float(c) for c in point)
    v = tuple(float(c) for c in velocity)
    if len(p) != 2 or len(v) != 2:
        raise InvalidIVPError("point and velocity must have two components")
    if not all(math.isfinite(c) for c in p + v):
        raise InvalidIVPError("point and velocity must be finite")
    if not field.contains(p):
        raise InvalidIVPError(
            f"initial point {p} lies outside the chart of the field"
        )
    return p, v


def _status_of(field: ChristoffelField, res: IntegrationResult) -> str:
    if res.status == "reached":
        return COMPLETE
    if res.status == "stalled" and field.kind == KIND_B and res.ys[-1][0] < 1e-6:
        # steps collapsed against the x1 = 0 chart boundary
        return "left_chart"
    return res.status


@dataclass
class GeodesicTrajectory:
    """Sampled geodesic over [t_min, t_max] with per-direction diagnosis.

    Samples are ascending in t and cover only the reachable part of the
    requested window.  ``status_*`` is ``"complete"`` when the corresponding
    bound was reached, otherwise ``"blowup"``, ``"left_chart"`` or
    ``"stalled"`` with the matching escape-time estimate.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    status_forward: str
    status_backward: str
    t_escape_forward: float | None = None
    t_escape_backward: float | None = None
    result_forward: IntegrationResult | None = dc_field(default=None, repr=False)
    result_backward: IntegrationResult | None = dc_field(default=None, repr=False)

    @property
    def complete(self) -> bool:
        done_f = self.status_forward in (COMPLETE, NOT_REQUESTED)
        done_b = self.status_backward in (COMPLETE, NOT_REQUESTED)
        return done_f and done_b


def _normalize_span(t_span) -> tuple[float, float]:
    if np.isscalar(t_span):
        hi = float(t_span)
        if not 0.0 < hi < math.inf:
            raise InvalidIVPError("scalar time bound must be positive and finite")
        return (0.0, hi)
    lo, hi = (float(v) for v in t_span)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidIVPError("time window bounds must be finite")
    if lo > 0.0 or hi < 0.0 or lo == hi:
        raise InvalidIVPError("time window must contain 0 with t_min <= 0 <= t_max")
    return (lo, hi)


def _sample_times(lo: float, hi: float, samples: int) -> tuple[list, list]:
    """Sample times of the backward run (0 down to lo) and the forward run
    (0 up to hi) over ``samples`` evenly spaced times on [lo, hi]."""
    if samples < 2:
        raise InvalidIVPError("need at least two sample times")
    grid = np.linspace(lo, hi, samples)
    back = [t for t in grid[::-1] if t <= 0.0]
    fwd = [t for t in grid if t >= 0.0]
    if not fwd or fwd[0] != 0.0:
        fwd = [0.0] + fwd
    return back, fwd


def integrate_geodesic(
    field: ChristoffelField,
    point,
    velocity,
    t_span,
    *,
    samples: int = 201,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> GeodesicTrajectory:
    """Integrate a geodesic across a window [t_min, t_max] containing 0.

    A kind-B trajectory whose steps collapse against the x1 = 0 chart
    boundary is reported ``"left_chart"``.
    """
    p, v = _check_ivp(field, point, velocity)
    lo, hi = _normalize_span(t_span)
    rhs = geodesic_rhs(field)
    y0 = np.array([p[0], p[1], v[0], v[1]])
    back_eval, fwd_eval = _sample_times(lo, hi, samples)

    def run(t_end, t_eval):
        return solve_ode(
            rhs,
            0.0,
            y0,
            t_end,
            rtol=rtol,
            atol=atol,
            t_eval=t_eval,
            max_steps=max_steps,
        )

    status_f = status_b = NOT_REQUESTED
    esc_f = esc_b = None
    res_f = res_b = None
    parts_t: list[np.ndarray] = []
    parts_y: list[np.ndarray] = []

    if lo < 0.0:
        res_b = run(lo, back_eval)
        status_b = _status_of(field, res_b)
        esc_b = res_b.t_escape
        parts_t.append(res_b.sample_ts[::-1])
        parts_y.append(res_b.sample_ys[::-1])
    if hi > 0.0:
        res_f = run(hi, fwd_eval)
        status_f = _status_of(field, res_f)
        esc_f = res_f.t_escape
        start = 1 if parts_t and parts_t[-1].size and parts_t[-1][-1] == 0.0 else 0
        parts_t.append(res_f.sample_ts[start:])
        parts_y.append(res_f.sample_ys[start:])

    ts = np.concatenate(parts_t)
    ys = np.concatenate(parts_y)
    return GeodesicTrajectory(
        t=ts,
        x=ys[:, 0:2],
        v=ys[:, 2:4],
        status_forward=status_f,
        status_backward=status_b,
        t_escape_forward=esc_f,
        t_escape_backward=esc_b,
        result_forward=res_f,
        result_backward=res_b,
    )


def integrate_geodesics(
    field: ChristoffelField,
    point,
    velocities,
    t_span,
    *,
    samples: int = 201,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> list[BatchResult]:
    """Integrate the geodesics from one point along each row of ``velocities``.

    Row r takes the steps ``integrate_geodesic(field, point, velocities[r],
    t_span, ...)`` takes, with the same sample times, but all rows are
    stepped together by ``solve_ode_batch``.  Returns the backward run (0
    down to t_min) when t_min < 0, then the forward run (0 up to t_max)
    when t_max > 0.
    """
    p = _check_ivp(field, point, (0.0, 0.0))[0]
    y0 = np.array([p + _check_ivp(field, p, v)[1] for v in velocities]).reshape(-1, 4)
    lo, hi = _normalize_span(t_span)
    back_eval, fwd_eval = _sample_times(lo, hi, samples)
    rhs = geodesic_rhs_batch(field)
    return [
        solve_ode_batch(rhs, 0.0, y0, t_end, t_eval, rtol=rtol, atol=atol, max_steps=max_steps)
        for t_end, t_eval in ((lo, back_eval), (hi, fwd_eval))
        if t_end != 0.0
    ]


@dataclass(frozen=True)
class Incomplete:
    """Marker returned by exp_map when the unit-time geodesic breaks down."""

    status: str
    t_escape: float | None


def exp_map(
    field: ChristoffelField,
    point,
    velocity,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> Point2 | Incomplete:
    """Exponential map: follow the geodesic for unit parameter time.

    Returns the endpoint, or an Incomplete marker carrying the breakdown
    diagnosis and escape-time estimate when the geodesic does not extend to
    parameter 1.
    """
    p, v = _check_ivp(field, point, velocity)
    if v == (0.0, 0.0):
        return Point2(p[0], p[1])
    res = solve_ode(
        geodesic_rhs(field),
        0.0,
        np.array([p[0], p[1], v[0], v[1]]),
        1.0,
        rtol=rtol,
        atol=atol,
        max_steps=max_steps,
    )
    status = _status_of(field, res)
    if status == COMPLETE:
        yf = res.ys[-1]
        return Point2(float(yf[0]), float(yf[1]))
    return Incomplete(status=status, t_escape=res.t_escape)


def write_trajectory_csv(traj: GeodesicTrajectory, path=None) -> str | None:
    """Write samples as CSV with full float precision (17 significant digits).

    With no ``path`` the CSV text is returned instead.
    """
    lines = ["t,x1,x2,v1,v2"]
    for t, x, v in zip(traj.t, traj.x, traj.v):
        lines.append(",".join(f"{val:.17g}" for val in (t, x[0], x[1], v[0], v[1])))
    text = "\n".join(lines) + "\n"
    if path is None:
        return text
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)

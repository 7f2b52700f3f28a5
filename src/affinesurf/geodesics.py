"""Geodesic initial value problems for connection charts.

The geodesic system is integrated in first-order form y = (x1, x2, v1, v2)
with y' = (v, -G(v, v)) where G is the pointwise connection table.  A
kind-B table G = C/x1 is integrated instead in y = (x1, x2, p1, p2) with
p = v/x1, which the chart's symmetries (x1, x2) -> (s x1, s x2 + t) fix:
x1' = p1 x1, x2' = p2 x1, p' = -C(p, p) - p1 p.  This system is polynomial,
so steps do not shrink as x1 decays, and a run into x1 = 0 shows as a
blowup of p driven by p1, which points back along the run.  Trajectories
hold chart values (v = x1 p); the raw ``IntegrationResult``/``BatchResult``
rows of a kind-B run hold (x1, x2, p1, p2).

Every single run (both halves of ``integrate_geodesic``, ``exp_map`` and the
reach probe of ``jacobi``) goes through ``_run``, which picks the state,
steps it and names the stop with one rule: ``"complete"``, ``"left_chart"``
(a kind-B blowup into x1 = 0), or the solver's ``"blowup"`` or
``"stalled"``.  A run that stops before the requested parameter bound
carries a finite escape-time estimate; completeness probes are built on top
of that diagnosis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidIVPError
from .fields import KIND_A, KIND_B, ChristoffelField, Point2, christoffel_at
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

    Takes y as the list of four floats ``solve_ode`` steps (any sequence of
    four floats serves) and returns a list of floats.  G(v, v)_k is summed
    from 0.0 over (i, j) in order as (G[i, j, k] * v_i) * v_j; the batched
    right-hand sides make the same operations on columns (``_contract``).
    A kind-A table is read once, when f is built; other kinds evaluate G at
    each y.
    """
    table = christoffel_at(field, (0.0, 0.0)).tolist() if field.kind == KIND_A else None

    def f(t, y):
        x1, x2, v1, v2 = y
        (g00, g01), (g10, g11) = table or christoffel_at(field, (x1, x2)).tolist()
        return [v1, v2] + [
            -(0.0 + a * v1 * v1 + b * v1 * v2 + c * v2 * v1 + e * v2 * v2)
            for a, b, c, e in zip(g00, g01, g10, g11)
        ]

    return f


def _terms(table) -> tuple:
    """The terms of -G(w, w) for a constant (2, 2, 2) table G, column by column.

    Column k lists (combine, i, j, c) over (i, j) in ``geodesic_rhs``'s
    order, for the term (G[i, j, k] * w_i) * w_j.  Entries that are exactly
    0 are left out: a sum begun at +0.0 is not changed by adding +-0.0, and
    a row whose w is not finite fails through its w columns anyway.  The
    sign of G[i, j, k] goes into combine (``np.subtract`` for a negative
    entry) and c is its size, or None for size 1; (-c * w_i) * w_j is
    -((c * w_i) * w_j) exactly and s - x is s + (-x), so the bits stay.
    """
    return tuple(
        tuple((np.subtract if c < 0.0 else np.add, i, j, None if abs(c) == 1.0 else abs(c))
              for i in (0, 1) for j in (0, 1) if (c := table[i][j][k]) != 0.0)
        for k in (0, 1)
    )


def _contract(columns, w) -> list:
    """-(0.0 + sum of (c * w[i]) * w[j]) for each column of (combine, i, j, c)
    terms, in order: the operations ``geodesic_rhs`` makes on one state, on
    the arrays w.  A column without terms gives -0.0."""
    out = []
    for terms in columns:
        acc = 0.0
        for combine, i, j, c in terms:
            acc = combine(acc, w[i] * w[j] if c is None else c * w[i] * w[j])
        out.append(-acc)
    return out


def geodesic_rhs_batch(field: ChristoffelField) -> Callable:
    """``geodesic_rhs`` for n states at once, the rows of y (n, 4).

    A kind-A table is read once, when f is built, as ``_terms``.  Other
    kinds evaluate G per row and contract it pair by pair, with the columns
    G[:, i, j] (n, 2) as c.
    """
    if field.kind == KIND_A:
        columns = _terms(christoffel_at(field, (0.0, 0.0)).tolist())

        def f(t, y):
            out = np.empty_like(y)
            out[:, 0:2] = y[:, 2:4]
            out[:, 2], out[:, 3] = _contract(columns, (y[:, 2], y[:, 3]))
            return out

        return f

    def f(t, y):
        g = christoffel_at(field, y[:, 0:2])
        pairs = [(np.add, i, j, g[:, i, j]) for i in (0, 1) for j in (0, 1)]
        (acc,) = _contract((pairs,), (y[:, 2:3], y[:, 3:4]))
        return np.concatenate((y[:, 2:4], acc), axis=1)

    return f


def _reduced_rhs(field: ChristoffelField) -> Callable:
    """Right-hand side of the kind-B system in y = (x1, x2, p1, p2), p = v/x1.

    C(p, p)_k is summed as in ``geodesic_rhs``, on the table C read once;
    a state with x1 <= 0 raises ``DomainError``.
    """
    (c00, c01), (c10, c11) = christoffel_at(field, (1.0, 0.0)).tolist()

    def f(t, y):
        x1, x2, p1, p2 = y
        if not x1 > 0.0:
            raise DomainError("x1 <= 0 lies outside the chart of a kind-B field")
        return [p1 * x1, p2 * x1] + [
            -(0.0 + a * p1 * p1 + b * p1 * p2 + c * p2 * p1 + e * p2 * p2) - p1 * p
            for a, b, c, e, p in zip(c00, c01, c10, c11, (p1, p2))
        ]

    return f


def _reduced_rhs_batch(field: ChristoffelField) -> Callable:
    """``_reduced_rhs`` for n states at once, the rows of y (n, 4), on the
    table C read once as ``_terms``; a row with x1 <= 0 gets NaN derivatives."""
    columns = _terms(christoffel_at(field, (1.0, 0.0)).tolist())

    def f(t, y):
        x1 = y[:, 0:1]
        p = y[:, 2], y[:, 3]
        out = np.empty_like(y)
        np.multiply(y[:, 2:4], np.where(x1 > 0.0, x1, np.nan), out=out[:, 0:2])
        out[:, 2], out[:, 3] = (acc - p[0] * pk for acc, pk in zip(_contract(columns, p), p))
        return out

    return f


def _state(field: ChristoffelField, p, v) -> list[float]:
    """Stepped state at chart point p with velocity v."""
    if field.kind == KIND_B:
        return [p[0], p[1], v[0] / p[0], v[1] / p[0]]
    return [*p, *v]


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


def _run(field: ChristoffelField, p, v, t_end: float, **options):
    """Step the geodesic from chart point p with velocity v to ``t_end``.

    ``options`` go to ``solve_ode``.  Returns the ``IntegrationResult`` of
    the state ``_state`` builds and the run's status: ``"complete"`` when it
    reached ``t_end``, otherwise the solver's status, except that a kind-B
    blowup driven by p1 has reached x1 = 0 and reads ``"left_chart"``.

    A blowup of p runs along a ray p ~ d/|T - t|, so x1 = x1(0) exp(int p1)
    goes like |T - t|^a with a = -direction * d1: to 0 however slowly when
    a > 0, while a blowup of p2 alone (d1 = 0) leaves p1 bounded and x1 at a
    positive limit, an escape inside the chart.  So the stop reads
    ``"left_chart"`` when direction * p1 < 0 and |p1| is at least 1e-3 of
    |p2|.  At the stop |p| is 1e9 to 1e12, so a bounded p1 is a far smaller
    share, and along a ray with a smaller share (a below about 1e-3) x1
    shrinks by under 3% on its way to the stop, as in such an escape.  Both
    tests are on p, which the chart's scaling x -> s x keeps.
    """
    rhs = _reduced_rhs(field) if field.kind == KIND_B else geodesic_rhs(field)
    res = solve_ode(rhs, 0.0, _state(field, p, v), t_end, **options)
    if res.status == "reached":
        return res, COMPLETE
    if res.status == "blowup" and field.kind == KIND_B:
        p1, p2 = res.ys[-1][2:]
        if t_end * p1 < 0.0 and abs(p1) >= 1e-3 * abs(p2):
            return res, "left_chart"
    return res, res.status


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

    A kind-B trajectory that runs into the x1 = 0 chart edge is reported
    ``"left_chart"``.  ``result_forward``/``result_backward`` hold the
    stepped states: (x1, x2, v1, v2), or (x1, x2, p1, p2) with p = v/x1 for
    kind B.
    """
    p, v = _check_ivp(field, point, velocity)
    lo, hi = _normalize_span(t_span)
    back_eval, fwd_eval = _sample_times(lo, hi, samples)

    def run(t_end, t_eval):
        return _run(field, p, v, t_end, t_eval=t_eval, rtol=rtol, atol=atol,
                    max_steps=max_steps)

    status_f = status_b = NOT_REQUESTED
    esc_f = esc_b = None
    res_f = res_b = None
    parts_t: list[np.ndarray] = []
    parts_y: list[np.ndarray] = []

    if lo < 0.0:
        res_b, status_b = run(lo, back_eval)
        esc_b = res_b.t_escape
        parts_t.append(res_b.sample_ts[::-1])
        parts_y.append(res_b.sample_ys[::-1])
    if hi > 0.0:
        res_f, status_f = run(hi, fwd_eval)
        esc_f = res_f.t_escape
        start = 1 if parts_t and parts_t[-1].size and parts_t[-1][-1] == 0.0 else 0
        parts_t.append(res_f.sample_ts[start:])
        parts_y.append(res_f.sample_ys[start:])

    ts = np.concatenate(parts_t)
    ys = np.concatenate(parts_y)
    if field.kind == KIND_B:
        ys[:, 2:4] *= ys[:, 0:1]  # v = x1 p
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
    t_max,
    *,
    samples: int = 201,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> BatchResult:
    """Integrate the geodesics from one point along each row of ``velocities``
    over [0, t_max], all in one ``solve_ode_batch`` run.

    Row r takes the steps and sample times of the forward run of
    ``integrate_geodesic(field, point, velocities[r], t_max, ...)``.  The
    rows hold the states ``integrate_geodesic`` steps: (x1, x2, v1, v2), or
    (x1, x2, p1, p2) with p = v/x1 for kind B, so columns 0:2 are chart
    points either way.
    """
    p = _check_ivp(field, point, (0.0, 0.0))[0]
    y0 = np.reshape([_state(field, p, _check_ivp(field, p, v)[1]) for v in velocities], (-1, 4))
    _, hi = _normalize_span(float(t_max))
    rhs = _reduced_rhs_batch(field) if field.kind == KIND_B else geodesic_rhs_batch(field)
    return solve_ode_batch(rhs, 0.0, y0, hi, _sample_times(0.0, hi, samples)[1],
                           rtol=rtol, atol=atol, max_steps=max_steps)


@dataclass(frozen=True)
class Incomplete:
    """Marker returned by exp_map when the unit-time geodesic breaks down."""

    status: str
    t_escape: float | None


def exp_map(field: ChristoffelField, point, velocity) -> Point2 | Incomplete:
    """Exponential map: follow the geodesic for unit parameter time, with
    ``solve_ode``'s default tolerances and step budget.

    Returns the endpoint, or an Incomplete marker carrying the breakdown
    diagnosis (``"blowup"``, ``"left_chart"`` or ``"stalled"``) and
    escape-time estimate when the geodesic does not extend to parameter 1.
    """
    p, v = _check_ivp(field, point, velocity)
    if v == (0.0, 0.0):
        return Point2(p[0], p[1])
    res, status = _run(field, p, v, 1.0)
    if status == COMPLETE:
        yf = res.ys[-1]
        return Point2(float(yf[0]), float(yf[1]))
    return Incomplete(status=status, t_escape=res.t_escape)


def write_trajectory_csv(traj: GeodesicTrajectory) -> str:
    """The samples as CSV text with full float precision (17 significant digits)."""
    lines = ["t,x1,x2,v1,v2"]
    for t, x, v in zip(traj.t, traj.x, traj.v):
        lines.append(",".join(f"{val:.17g}" for val in (t, x[0], x[1], v[0], v[1])))
    return "\n".join(lines) + "\n"

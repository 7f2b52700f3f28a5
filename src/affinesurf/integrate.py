"""Adaptive Runge-Kutta integration with stop diagnosis and escape estimates.

This is a hand-rolled Dormand-Prince 5(4) pair rather than a call into
scipy.integrate.solve_ivp because the geodesic work needs three behaviours
that are awkward to get reliably from the library wrapper:

* steps are clipped so requested sample times are hit exactly (no dense
  interpolant error on top of the step error);
* a stage evaluated just outside the chart or past a pole must reject the
  step and retry shorter instead of aborting.  Exactly four failures reject
  a step: the right-hand side raises ``DomainError`` (kind-B fields at
  x1 <= 0) or ``ArithmeticError`` (overflow, division by zero), or returns
  the wrong number of values or a non-finite one.  Any other exception,
  such as a NumPy broadcast ``ValueError``, is a bug and propagates;
* when the step size collapses in finite time the integrator reports a
  finite escape-time estimate, distinguishing a finite-time blowup from a
  merely stiff stretch.

Statuses: ``"reached"`` (hit t_end), ``"blowup"`` (norm above the cap with
collapsed steps) or ``"stalled"`` (steps collapsed with bounded norm, or the
step budget ran out).  Callers name what a stop means for their system;
``geodesics._run`` does so for every single geodesic.

Two loops share this step policy.  ``solve_ode`` steps one initial value
problem on Python floats end to end: the time, the step size and every
stage sum are floats, and f gets the state as the list of d floats the
loop holds.  ``solve_ode_batch`` steps n of them, with one stop
time and one list of sample times, as the rows of one (n, d) NumPy array,
each row with its own step size, samples and stop.  The tableau, the
first-step heuristic, the error norm, the step factor, the
blowup-vs-stalled diagnosis and the escape extrapolation are the helpers
below.  Both loops do the same float operations in the same order, so a row
gets the steps and the bits ``solve_ode`` gives it alone: stage sums start
from 0 and run in stage order, squares are e * e, and the squared error
terms are summed as ``np.add.reduce`` sums them, left to right below eight
terms and in eight lanes from eight (Python's ``sum`` is avoided: from 3.12
it compensates float sums).  The batched loop keeps its stages in one
stacked buffer whose slot 0 holds zeros and forms each stage sum as one
``np.add.reduce`` over at most seven slots, which NumPy adds left to right.
The batched step factor raises err_norm to -1/5 with ``float.__pow__`` on
an object array: float ``np.power`` differs from Python's ``**`` in the
last bit on about 5 % of inputs.  The single loop is not the n = 1 case of
the batched one because NumPy's per-call overhead on a 4- to 16-element
state costs more than its arithmetic.  On a 2-core x86-64 host an H2 or S5
geodesic costs 3 to 6 us per right-hand-side evaluation through the float
loop, and a single geodesic through ``solve_ode_batch`` takes about seven
times as long (24 to 25 us per evaluation), while a 96-row H2 or S5 fan
runs about ten times faster batched than row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError, InvalidIVPError

__all__ = ["BatchResult", "IntegrationResult", "solve_ode", "solve_ode_batch"]

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
# Weights of the embedded error estimate, b5 - b4.
_E = tuple(b - c for b, c in zip(_B5, _B4))
# The same tableau as weights over the stage buffer of ``solve_ode_batch``,
# whose slot 0 holds zeros and slot j stage j: the weights (0, a_i1, ...)
# of each stage sum over slots 0 to i, and the error weights over slots 1
# to 7.  The solution is the last stage's state: that row of _A is _B5.
_STAGE_W = tuple(np.array((0.0,) + row)[:, np.newaxis, np.newaxis] for row in _A)
_ERROR_W = np.array(_E)[:, np.newaxis, np.newaxis]

_BLOWUP_NORM = 1e8
_MIN_STEP = 1e-12


def _check_tolerances(rtol: float, atol: float) -> None:
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf and rtol + atol > 0.0):
        raise InvalidIVPError(f"need finite tolerances >= 0, not both 0; got {rtol}, {atol}")


def _eval_times(t_eval, t0: float, t_end: float, direction: float) -> list[float]:
    times = [] if t_eval is None else [float(t) for t in t_eval]
    for a, b in zip(times, times[1:]):
        if not (b - a) * direction > 0:  # a NaN fails too
            raise IntegrationError("t_eval must be strictly monotone toward t_end")
    if times and ((times[0] - t0) * direction < 0 or (t_end - times[-1]) * direction < 0):
        raise IntegrationError("t_eval must lie within [t0, t_end]")
    return times


# a zero error scale (atol = 0 on a zero component), a state near the
# largest float and the rows that take span * 1e-4 divide as IEEE has it
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _first_step(y, k1, span: float, rtol: float, atol: float):
    """Initial step from the sizes of y and y' (Hairer, Norsett & Wanner, II.4),
    along the last axis: one step for a state, one per row for rows."""
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2, axis=-1))
    d1 = np.sqrt(np.mean((k1 / scale) ** 2, axis=-1))
    h = np.where((d1 > 1e-8) & (d0 > 1e-8), 0.01 * d0 / d1, span * 1e-4)
    return np.maximum(np.minimum(h, span * 0.1), _MIN_STEP)


def _error_norm(err, y, y5, rtol: float, atol: float):
    """RMS of the error estimate over the mixed tolerance, along the last axis."""
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    # np.mean in two ufunc calls: the same bits without its Python overhead
    return np.sqrt(np.add.reduce((err / scale) ** 2, axis=-1) / err.shape[-1])


def _sum_of_squares(ratios: list[float]) -> float:
    """Sum of r * r over a list, with the bits of ``np.add.reduce``.

    Below eight terms ``np.add.reduce`` adds left to right, so a Python loop
    gives its bits without the cost of the call; from eight it sums in lanes.
    """
    if len(ratios) >= 8:
        return np.add.reduce([r * r for r in ratios])
    total = 0.0
    for r in ratios:
        total += r * r
    return total


def _step_factor(err_norm: float) -> float:
    """Ratio of the next step to this one: 0.9 * err_norm**(-1/5) within [0.2, 5].

    An accepted step (err_norm <= 1) never shrinks the next one below 0.9
    and a rejected step never grows it, so one clip serves both.
    """
    return 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))


def _diagnose(y) -> tuple[str, float]:
    """Stop status of collapsed steps, from the size of the state."""
    norm = float(np.max(np.abs(y)))
    return ("blowup" if norm >= _BLOWUP_NORM else "stalled"), norm


def _escape_time(t: float, direction: float, prev_h: float, last_h: float) -> float:
    """Stop time extrapolated from the last two accepted steps.

    Steps that shrink by a ratio r < 0.95 are summed as a geometric series;
    otherwise one more step is added.  Without two accepted steps
    (``prev_h`` is NaN) the stop time itself is returned.
    """
    if not prev_h > 0.0:
        return t
    r = last_h / prev_h
    if 0.0 < r < 0.95:
        return t + direction * last_h * r / (1.0 - r)
    return t + direction * last_h


@dataclass
class IntegrationResult:
    """Accepted knots, requested samples, and the stop diagnosis.

    ``n_accepted`` and ``n_rejected`` count the attempted steps; a step
    with a failed stage is a rejected one.
    """

    ts: np.ndarray
    ys: np.ndarray
    sample_ts: np.ndarray
    sample_ys: np.ndarray
    status: str
    t_final: float
    t_escape: float | None
    nfev: int
    message: str = ""
    n_accepted: int = 0
    n_rejected: int = 0


@dataclass
class BatchResult:
    """Samples and stop diagnosis of the rows of one ``solve_ode_batch`` run.

    ``sample_ts`` (m,) holds the requested sample times, shared by every
    row.  Row r was sampled at ``sample_ts[:n_samples[r]]``; its samples
    are ``sample_ys[r, :n_samples[r]]`` and the rest of the row is NaN.  The
    other per-row entries mean what the fields of the same name of
    ``IntegrationResult`` mean, with ``y_final`` the last accepted state.
    No step history is kept.
    """

    sample_ts: np.ndarray
    sample_ys: np.ndarray
    n_samples: np.ndarray
    y_final: np.ndarray
    t_final: np.ndarray
    status: list[str]
    t_escape: list[float | None]
    nfev: np.ndarray
    message: list[str]
    n_accepted: np.ndarray
    n_rejected: np.ndarray


# States near the largest float overflow; the step is then rejected as
# designed, and the NumPy parts (the first step, a zero error scale, the
# caller's f) must not warn about it.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def solve_ode(
    f: Callable,
    t0: float,
    y0,
    t_end: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
    max_steps: int = 500_000,
) -> IntegrationResult:
    """Integrate y' = f(t, y) from t0 to t_end with adaptive steps.

    ``f(t, y)`` gets the time as a float and the state as a list of d floats,
    which it must not modify, and returns its d derivatives as a list or an
    array-like; the module docstring says which failures of f reject a step.
    ``t_eval`` times are hit exactly by clipping steps.  The first step comes
    from the sizes of y and y' (``_first_step``); ``max_steps`` bounds the
    attempted steps, and a run that exhausts it stops ``"stalled"``.
    Backward integration (t_end < t0) is supported; sample times must then
    be decreasing.  Tolerances that are negative, not finite or both zero
    raise ``InvalidIVPError``.
    """
    _check_tolerances(rtol, atol)
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y)):
        raise IntegrationError("initial state is not finite")
    t0, t_end = float(t0), float(t_end)
    if t_end == t0:
        return IntegrationResult(
            ts=np.array([t0]), ys=y[np.newaxis, :].copy(), sample_ts=np.array([t0]),
            sample_ys=y[np.newaxis, :].copy(), status="reached", t_final=t0,
            t_escape=None, nfev=0,
        )
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    eval_times = _eval_times(t_eval, t0, t_end, direction)
    d = y.shape[0]
    y = y.tolist()
    nfev = 0

    def rhs(t, y):
        """f(t, y) as a list of d floats, or None for a rejected stage."""
        nonlocal nfev
        nfev += 1
        try:
            out = f(t, y)
        except (DomainError, ArithmeticError):
            return None
        if type(out) is not list:
            out = np.asarray(out, dtype=float)
            if out.shape != (d,):
                return None
            out = out.tolist()
        elif len(out) != d:
            return None
        return out if all(map(math.isfinite, out)) else None

    t = t0
    k1 = rhs(t, y)
    if k1 is None:
        raise IntegrationError("right-hand side is undefined at the initial state")

    h = float(_first_step(y, k1, span, rtol, atol))

    knots_t = [t]
    knots_y = [y]
    sample_t: list[float] = []
    sample_y: list[list[float]] = []
    eval_idx = 0
    # consume samples sitting exactly at t0
    while eval_idx < len(eval_times) and eval_times[eval_idx] == t:
        sample_t.append(t)
        sample_y.append(y)
        eval_idx += 1

    status = "reached"
    message = ""
    prev_h = last_h = math.nan
    n_rejected = 0
    # The tableau row by row, for sums written out as DOPRI5 writes them
    # (Hairer, Norsett & Wanner, II.4).  Each runs from 0.0 in stage order,
    # so it has the bits of the batched loop's sums over its stage buffer.
    # A sum begun at +0.0 never becomes -0.0, so zero weights add nothing and
    # are left out, and the last stage, whose row is the solution's, is
    # taken at y5.
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
        a61, a62, a63, a64, a65) = _A[1:6]
    b1, _, b3, b4, b5, b6, _ = _B5
    e1, _, e3, e4, e5, e6, e7 = _E
    c2, c3, c4, c5, c6 = _C[1:6]

    for _ in range(max_steps):
        if (t - t_end) * direction >= 0:
            break
        # clip to the next sample time and to t_end
        remaining = abs(t_end - t)
        h_clip = min(h, remaining)
        hit_eval = False
        if eval_idx < len(eval_times):
            to_eval = abs(eval_times[eval_idx] - t)
            if to_eval <= h_clip * (1 + 1e-12):
                h_clip = to_eval
                hit_eval = True
        hs = direction * h_clip

        # a span shorter than the smallest step ends in one step, not a collapse
        if h_clip < _MIN_STEP and not hit_eval and h_clip < remaining:
            # steps have collapsed: diagnose and extrapolate the stop time
            status, norm = _diagnose(y)
            message = f"step collapsed to {h_clip:.3e} at t={t:.12g} (|y|={norm:.3e})"
            break
        if t + hs == t:
            status, _ = _diagnose(y)
            message = f"step underflow at t={t:.12g}"
            break

        # a rejected stage leaves None, which skips the stages after it
        k2 = rhs(t + c2 * hs, [a + hs * (0.0 + a21 * p) for a, p in zip(y, k1)])
        k3 = k2 and rhs(t + c3 * hs, [a + hs * (0.0 + a31 * p + a32 * q)
                                      for a, p, q in zip(y, k1, k2)])
        k4 = k3 and rhs(t + c4 * hs, [a + hs * (0.0 + a41 * p + a42 * q + a43 * r)
                                      for a, p, q, r in zip(y, k1, k2, k3)])
        k5 = k4 and rhs(t + c5 * hs, [a + hs * (0.0 + a51 * p + a52 * q + a53 * r + a54 * s)
                                      for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
        k6 = k5 and rhs(t + c6 * hs, [
            a + hs * (0.0 + a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
            for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
        y5 = k6 and [a + hs * (0.0 + b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
                     for a, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
        k7 = y5 and rhs(t + hs, y5)

        if k7 is None or not all(map(math.isfinite, y5)):
            n_rejected += 1
            h = h_clip * 0.2
            if h < _MIN_STEP:
                status, _ = _diagnose(y)
                message = f"right-hand side failed near t={t:.12g}"
                # the stop is within the collapsed attempt of t, not a full
                # accepted step: do not extrapolate from the step history
                prev_h = math.nan
                break
            continue

        err = [hs * (0.0 + e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z)
               for p, r, s, u, w, z in zip(k1, k3, k4, k5, k6, k7)]
        try:
            ratios = [e / (atol + rtol * max(abs(a), abs(b))) for e, a, b in zip(err, y, y5)]
        except ZeroDivisionError:
            # a zero error scale: IEEE division (inf or NaN) instead
            err_norm = float(_error_norm(np.array(err), y, y5, rtol, atol))
        else:
            err_norm = math.sqrt(_sum_of_squares(ratios) / d)
        if err_norm <= 1.0:
            prev_h, last_h = last_h, h_clip
            t = t + hs
            y = y5
            k1 = k7
            knots_t.append(t)
            knots_y.append(y)
            if hit_eval and abs(t - eval_times[eval_idx]) <= 1e-12 * max(1.0, abs(t)):
                sample_t.append(eval_times[eval_idx])
                sample_y.append(y)
                eval_idx += 1
        else:
            n_rejected += 1
        h = h_clip * _step_factor(err_norm)
    else:
        status = "stalled"
        message = f"step budget {max_steps} exhausted at t={t:.12g}"

    t_escape = None
    if status in ("blowup", "stalled"):
        t_escape = _escape_time(t, direction, prev_h, last_h)
    if t_eval is None:
        sample_t, sample_y = knots_t, knots_y
    return IntegrationResult(
        ts=np.array(knots_t), ys=np.array(knots_y), sample_ts=np.array(sample_t),
        sample_ys=np.array(sample_y) if sample_y else np.empty((0, d)), status=status,
        t_final=t, t_escape=t_escape, nfev=nfev, message=message,
        n_accepted=len(knots_t) - 1, n_rejected=n_rejected,
    )


class _Rows:
    """Per-row state of the rows a batched run is still stepping."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def drop(self, mask) -> None:
        """Remove the rows in ``mask``, keeping every array contiguous."""
        keep = ~mask
        self.__dict__ = {name: a[keep] for name, a in vars(self).items()}


def _rows_rhs(f, t, y):
    out = np.asarray(f(t, y), dtype=float)
    if out.shape != y.shape:
        raise IntegrationError(
            f"batched right-hand side returned shape {out.shape} for states {y.shape}"
        )
    return out


def solve_ode_batch(
    f: Callable,
    t0: float,
    y0,
    t_end: float,
    t_eval,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 500_000,
) -> BatchResult:
    """Integrate n systems y' = f(t, y), the rows of y0 (n, d), from t0 to t_end.

    Every row is stepped as ``solve_ode`` steps it alone with the same
    arguments: same step sizes, samples at the ``t_eval`` times, statuses
    and escape estimates.  ``f(t, y)`` receives the times (k,) and states
    (k, d) of the k rows still running and returns their derivatives (k, d).
    A row whose derivative holds a non-finite entry, for instance one left
    NaN because its stage lies outside the chart, has its step rejected
    alone, as a ``DomainError`` would in ``solve_ode``.  Every exception
    ``f`` raises propagates: it cannot be pinned on one row.
    """
    _check_tolerances(rtol, atol)
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise IntegrationError("batched states must have shape (n, d)")
    if not np.all(np.isfinite(y)):
        raise IntegrationError("initial state is not finite")
    if t_end == t0:
        raise IntegrationError("batched integration needs t_end != t0")
    n, d = y.shape
    t0 = float(t0)
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    eval_times = _eval_times(t_eval, t0, t_end, direction)
    targets = np.array(eval_times + [math.nan])  # NaN past the last: never hit

    # in C order the means _first_step takes along each row add as a lone
    # state's do
    k1 = np.ascontiguousarray(_rows_rhs(f, np.full(n, t0), y))
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("right-hand side is undefined at the initial state")
    h = _first_step(y, k1, span, rtol, atol)
    at_t0 = int(eval_times[:1] == [t0])

    sample_ys = np.full((n, len(eval_times), d), math.nan)
    sample_ys[:, :at_t0] = y[:, np.newaxis, :]
    res = BatchResult(
        sample_ts=np.array(eval_times),
        sample_ys=sample_ys,
        n_samples=np.zeros(n, dtype=int),
        y_final=np.empty((n, d)),
        t_final=np.empty(n),
        status=[""] * n,
        t_escape=[None] * n,
        nfev=np.zeros(n, dtype=int),
        message=[""] * n,
        n_accepted=np.zeros(n, dtype=int),
        n_rejected=np.zeros(n, dtype=int),
    )
    s = _Rows(
        row=np.arange(n), t=np.full(n, t0), y=y, k0=k1, h=h,
        idx=np.full(n, at_t0), nfev=np.ones(n, dtype=int), accepted=np.zeros(n, dtype=int),
        prev_h=np.full(n, math.nan), last_h=np.full(n, math.nan),
    )

    def stop(mask, verdict) -> None:
        """Record the rows in mask as stopped; verdict(i) names live row i's stop."""
        for i in np.flatnonzero(mask).tolist():
            r = s.row[i]
            t = float(s.t[i])
            status, res.message[r] = verdict(i)
            res.status[r] = status
            res.t_final[r] = t
            res.y_final[r] = s.y[i]
            res.nfev[r] = s.nfev[i]
            res.n_accepted[r] = s.accepted[i]
            res.n_rejected[r] = attempts - s.accepted[i]
            res.n_samples[r] = s.idx[i]
            if status != "reached":
                res.t_escape[r] = _escape_time(
                    t, direction, float(s.prev_h[i]), float(s.last_h[i]))

    def collapsed(i):
        status, norm = _diagnose(s.y[i])
        return status, f"step collapsed to {h_clip[i]:.3e} at t={s.t[i]:.12g} (|y|={norm:.3e})"

    # All rows start together, so every live row has been through as many
    # iterations as the loop, and one counter serves as each row's budget
    # and counts each row's attempted steps.
    attempts = 0
    # Rows that fail go on through the rest of their step on values that are
    # thrown away; their overflows are not worth a warning, and a zero error
    # scale divides as in solve_ode.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_steps):
            if not s.row.size:
                break
            # the checks solve_ode makes before a step, in its order
            remaining = t_end - s.t
            reached = remaining * direction <= 0
            h_clip = np.minimum(s.h, np.abs(remaining))
            to_eval = np.abs(targets[s.idx] - s.t)
            hit = to_eval <= h_clip * (1 + 1e-12)
            h_clip = np.where(hit, to_eval, h_clip)
            h_signed = direction * h_clip
            short = (h_clip < _MIN_STEP) & ~hit & (h_clip < np.abs(remaining))
            halt = reached | short | (s.t + h_signed == s.t)
            if halt.any():
                short &= ~reached
                stop(reached, lambda i: ("reached", ""))
                stop(short, collapsed)
                stop(halt & ~reached & ~short, lambda i: (
                    _diagnose(s.y[i])[0], f"step underflow at t={s.t[i]:.12g}"))
                s.drop(halt)
                keep = ~halt
                h_clip, hit, h_signed = h_clip[keep], hit[keep], h_signed[keep]
                if not s.row.size:
                    break

            hs = h_signed[:, np.newaxis]
            stage_t = s.t + np.multiply.outer(_C, h_signed)
            # slot 0 zeros, slot j stage j, slot 8 the solution.  Over at
            # most seven slots np.add.reduce adds left to right, so each
            # stage sum runs from 0.0 in stage order as solve_ode's does
            k = np.zeros((9,) + s.y.shape)
            k[1] = s.k0
            for i in range(1, 7):
                state = s.y + hs * np.add.reduce(_STAGE_W[i] * k[:i + 1], axis=0)
                k[i + 1] = _rows_rhs(f, stage_t[i], state)
            y5 = k[8] = state
            finite = np.isfinite(k[2:])
            any_failed = not finite.all()
            if any_failed:
                # solve_ode stops evaluating at the first failing stage; a
                # non-finite solution (row 6 of finite) comes after all six
                finite = finite.all(axis=2)
                failed = ~finite.all(axis=0)
                s.nfev += np.where(failed, np.minimum(np.argmin(finite, axis=0) + 1, 6), 6)
            else:
                s.nfev += 6

            # the error sum starts from stage 1, not 0.0: that moves only the
            # sign of a zero, which the squares in _error_norm drop
            err = hs * np.add.reduce(_ERROR_W * k[1:8], axis=0)
            err_norm = _error_norm(err, s.y, y5, rtol, atol)
            # _step_factor for every row, on Python's float ** (see above)
            power = np.power(np.where(err_norm == 0.0, 1.0, err_norm).astype(object), -0.2)
            factor = np.where(err_norm == 0.0, 5.0,
                              np.minimum(5.0, np.fmax(0.2, 0.9 * power.astype(float))))
            s.h = h_clip * (np.where(failed, 0.2, factor) if any_failed else factor)
            accept = err_norm <= 1.0
            if any_failed:
                accept &= ~failed
            attempts += 1
            s.accepted = s.accepted + accept
            if accept.all():
                s.prev_h, s.last_h = s.last_h, h_clip
                s.t, s.y, s.k0 = s.t + h_signed, y5, k[7]
            elif accept.any():
                s.prev_h = np.where(accept, s.last_h, s.prev_h)
                s.last_h = np.where(accept, h_clip, s.last_h)
                s.t = np.where(accept, s.t + h_signed, s.t)
                s.y = np.where(accept[:, np.newaxis], y5, s.y)
                s.k0 = np.where(accept[:, np.newaxis], k[7], s.k0)
            sampled = accept & hit & (
                np.abs(s.t - targets[s.idx]) <= 1e-12 * np.maximum(1.0, np.abs(s.t)))
            res.sample_ys[s.row[sampled], s.idx[sampled]] = s.y[sampled]
            s.idx = s.idx + sampled

            if any_failed:
                gave_up = failed & (s.h < _MIN_STEP)
                if gave_up.any():
                    # the stop lies within the collapsed attempt, not a
                    # full accepted step: do not extrapolate from the
                    # step history
                    s.prev_h = np.where(gave_up, math.nan, s.prev_h)
                    stop(gave_up, lambda i: (_diagnose(s.y[i])[0],
                                             f"right-hand side failed near t={s.t[i]:.12g}"))
                    s.drop(gave_up)
        else:
            stop(np.ones(s.row.size, dtype=bool), lambda i: (
                "stalled", f"step budget {max_steps} exhausted at t={s.t[i]:.12g}"))
    return res

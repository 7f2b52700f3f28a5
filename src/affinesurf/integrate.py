"""Adaptive Runge-Kutta integration with chart guards and escape estimates.

This is a hand-rolled Dormand-Prince 5(4) pair rather than a call into
scipy.integrate.solve_ivp because the geodesic work needs three behaviours
that are awkward to get reliably from the library wrapper:

* steps are clipped so requested sample times are hit exactly (no dense
  interpolant error on top of the step error);
* a stage evaluated just outside the chart or past a pole must reject the
  step and retry shorter instead of aborting.  Exactly four failures reject
  a step: the right-hand side raises ``DomainError`` (kind-B fields at
  x1 <= 0) or ``ArithmeticError`` (overflow, division by zero), or returns
  an array of the wrong shape or with non-finite entries.  Any other
  exception, such as a NumPy broadcast ``ValueError``, is a bug and
  propagates out of ``solve_ode``;
* when the step size collapses in finite time the integrator reports a
  finite escape-time estimate, distinguishing a finite-time blowup from a
  merely stiff stretch.

Statuses: ``"reached"`` (hit t_end), ``"blowup"`` (norm above the cap with
collapsed steps), ``"stalled"`` (steps collapsed with bounded norm), or any
string returned by the caller's guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = ["IntegrationResult", "solve_ode"]

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


@dataclass
class IntegrationResult:
    """Accepted knots, requested samples, and the stop diagnosis."""

    ts: np.ndarray
    ys: np.ndarray
    sample_ts: np.ndarray
    sample_ys: np.ndarray
    status: str
    t_final: float
    t_escape: float | None
    nfev: int
    message: str = ""


def _rhs_wrapper(f):
    """Evaluate f, mapping a rejected stage to None.

    A stage is rejected, so the controller retries a shorter step, when f
    raises ``DomainError`` (outside the chart) or ``ArithmeticError``
    (overflow, division by zero), or returns an array whose shape differs
    from y's or that holds a non-finite entry.  Every other exception
    propagates.
    """

    def call(t, y):
        try:
            out = np.asarray(f(t, y), dtype=float)
        except (DomainError, ArithmeticError):
            return None
        if out.shape != y.shape or not np.all(np.isfinite(out)):
            return None
        return out

    return call


def solve_ode(
    f: Callable,
    t0: float,
    y0,
    t_end: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = math.inf,
    first_step: float | None = None,
    t_eval=None,
    guard: Callable | None = None,
    blowup_norm: float = 1e8,
    min_step: float = 1e-12,
    max_steps: int = 500_000,
) -> IntegrationResult:
    """Integrate y' = f(t, y) from t0 to t_end with adaptive steps.

    ``t_eval`` times are hit exactly by clipping steps.  ``guard(t, y)``
    runs after each accepted step and stops integration by returning a
    status string.  Backward integration (t_end < t0) is supported; sample
    times must then be decreasing.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y)):
        raise IntegrationError("initial state is not finite")
    if t_end == t0:
        samples = (
            np.array([t0]),
            y[np.newaxis, :].copy(),
        )
        return IntegrationResult(
            ts=np.array([t0]),
            ys=y[np.newaxis, :].copy(),
            sample_ts=samples[0],
            sample_ys=samples[1],
            status="reached",
            t_final=t0,
            t_escape=None,
            nfev=0,
        )
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)

    eval_times = [] if t_eval is None else [float(t) for t in t_eval]
    for a, b in zip(eval_times, eval_times[1:]):
        if (b - a) * direction <= 0:
            raise IntegrationError("t_eval must be strictly monotone toward t_end")
    if eval_times and (
        (eval_times[0] - t0) * direction < 0 or (t_end - eval_times[-1]) * direction < 0
    ):
        raise IntegrationError("t_eval must lie within [t0, t_end]")

    rhs = _rhs_wrapper(f)
    nfev = 0
    t = float(t0)
    k1 = rhs(t, y)
    nfev += 1
    if k1 is None:
        raise IntegrationError("right-hand side is undefined at the initial state")

    if first_step is None:
        scale = atol + rtol * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2))
        d1 = np.sqrt(np.mean((k1 / scale) ** 2))
        h = 0.01 * d0 / d1 if d1 > 1e-8 and d0 > 1e-8 else span * 1e-4
        h = min(h, span * 0.1, max_step)
    else:
        h = min(abs(first_step), span, max_step)
    h = max(h, min_step)

    knots_t = [t]
    knots_y = [y.copy()]
    sample_t: list[float] = []
    sample_y: list[np.ndarray] = []
    eval_idx = 0
    # consume samples sitting exactly at t0
    while eval_idx < len(eval_times) and eval_times[eval_idx] == t:
        sample_t.append(t)
        sample_y.append(y.copy())
        eval_idx += 1

    status = "reached"
    message = ""
    prev_h = None
    last_h = None

    k = [None] * 7
    k[0] = k1

    for _ in range(max_steps):
        if (t - t_end) * direction >= 0:
            break
        # clip to the next sample time and to t_end
        h = min(h, max_step)
        remaining = abs(t_end - t)
        h_clip = min(h, remaining)
        hit_eval = False
        if eval_idx < len(eval_times):
            to_eval = abs(eval_times[eval_idx] - t)
            if to_eval <= h_clip * (1 + 1e-12):
                h_clip = to_eval
                hit_eval = True
        h_signed = direction * h_clip

        if h_clip < min_step and not hit_eval:
            # steps have collapsed: diagnose and extrapolate the stop time
            norm = float(np.max(np.abs(y)))
            status = "blowup" if norm >= blowup_norm else "stalled"
            message = f"step collapsed to {h_clip:.3e} at t={t:.12g} (|y|={norm:.3e})"
            break
        if t + h_signed == t:
            norm = float(np.max(np.abs(y)))
            status = "blowup" if norm >= blowup_norm else "stalled"
            message = f"step underflow at t={t:.12g}"
            break

        failed = False
        for i in range(1, 7):
            yi = y + h_signed * sum(_A[i][j] * k[j] for j in range(i))
            ki = rhs(t + _C[i] * h_signed, yi)
            nfev += 1
            if ki is None:
                failed = True
                break
            k[i] = ki
        if not failed:
            y5 = y + h_signed * sum(_B5[i] * k[i] for i in range(7) if _B5[i] != 0.0)
            err = h_signed * sum(
                (_B5[i] - _B4[i]) * k[i] for i in range(7) if _B5[i] != _B4[i]
            )
            if not np.all(np.isfinite(y5)):
                failed = True

        if failed:
            h = h_clip * 0.2
            if h < min_step:
                norm = float(np.max(np.abs(y)))
                status = "blowup" if norm >= blowup_norm else "stalled"
                message = f"right-hand side failed near t={t:.12g}"
                # the stop is within the collapsed attempt of t, not a full
                # accepted step: do not extrapolate from the step history
                prev_h, last_h = None, h
                break
            continue

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            prev_h, last_h = last_h, h_clip
            t = t + h_signed
            y = y5
            k[0] = k[6] if k[6] is not None else rhs(t, y)
            knots_t.append(t)
            knots_y.append(y.copy())
            if hit_eval and abs(t - eval_times[eval_idx]) <= 1e-12 * max(1.0, abs(t)):
                sample_t.append(eval_times[eval_idx])
                sample_y.append(y.copy())
                eval_idx += 1
            if guard is not None:
                verdict = guard(t, y)
                if verdict:
                    status = verdict
                    message = f"guard stopped integration at t={t:.12g}"
                    break
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h = h_clip * factor
        else:
            h = h_clip * min(1.0, max(0.2, 0.9 * err_norm ** -0.2))
    else:
        status = "stalled"
        message = f"step budget {max_steps} exhausted at t={t:.12g}"

    t_escape = None
    if status in ("blowup", "stalled"):
        # geometric extrapolation of the collapsing accepted steps
        t_escape = t
        if last_h is not None and prev_h is not None and prev_h > 0.0:
            r = last_h / prev_h
            if 0.0 < r < 0.95:
                t_escape = t + direction * last_h * r / (1.0 - r)
            else:
                t_escape = t + direction * last_h

    if t_eval is None:
        sample_ts = np.array(knots_t)
        sample_ys = np.array(knots_y)
    else:
        sample_ts = np.array(sample_t)
        sample_ys = (
            np.array(sample_y) if sample_y else np.empty((0, y.shape[0]))
        )

    return IntegrationResult(
        ts=np.array(knots_t),
        ys=np.array(knots_y),
        sample_ts=sample_ts,
        sample_ys=sample_ys,
        status=status,
        t_final=t,
        t_escape=t_escape,
        nfev=nfev,
        message=message,
    )

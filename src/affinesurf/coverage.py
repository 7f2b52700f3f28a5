"""Reachability maps for the exponential map over a rectangular window.

Verdicts are per cell centre.  On the Lorentz half-plane the wedge
decides: a centre (x1, x2) is reachable from the base (b1, b2) exactly when
x1 > 0 and |x2 - b2| < b1 + x1.  A reachable centre gets one closed-form
launch, the log map ``lorentz.l2_log``, and the closed-form geodesic with
that launch is confirmed to land on the centre at t = 1.  Unreachable
verdicts come only from the wedge; a failed confirmation degrades to
"unknown", never to "unreachable".

For other models no closed forms are available, so a sweep of launch
directions marks cells that sampled geodesic points land in, and
everything else stays unknown.  The launch fan is closed under reversal of
direction, so one batched run steps every launch forward only, and one pass
marks all of its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import get_model
from .errors import DegenerateFitError, DomainError, ParamOutOfDomainError
from .fields import ChristoffelField
# The sweep runs integrate_geodesics; integrate_geodesic stays a module
# attribute for tools that wrap it here, such as benchmarks/tracing.py.
from .geodesics import integrate_geodesic, integrate_geodesics  # noqa: F401
from .lorentz import fit_l2_geodesic, l2_log

# Wrapped by benchmarks/tracing.py; nothing here finds roots any more.
brentq = None

__all__ = [
    "UNREACHED",
    "REACHED",
    "UNKNOWN",
    "CoverageMap",
    "exp_coverage",
    "l2_reach_verdict",
]

UNREACHED = 0
REACHED = 1
UNKNOWN = 2


@dataclass
class CoverageMap:
    """Cell verdicts over a rectangular window.

    ``grid[i, j]`` is the verdict for the cell with the i-th first
    coordinate interval and the j-th second coordinate interval, both
    counted from the low edge.  Values are UNREACHED (0), REACHED (1),
    UNKNOWN (2).
    """

    base: tuple
    x_edges: np.ndarray
    y_edges: np.ndarray
    grid: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        cx = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        cy = 0.5 * (self.y_edges[:-1] + self.y_edges[1:])
        return cx, cy

    def value_at(self, x: float, y: float) -> int:
        """Verdict of the cell holding (x, y).  A point on an inner edge reads
        the cell above it, one on the window's upper edge the last cell."""
        xs, ys = self.x_edges, self.y_edges
        if not (xs[0] <= x <= xs[-1] and ys[0] <= y <= ys[-1]):
            raise DomainError(f"({x}, {y}) is outside the coverage window")
        i = int(np.searchsorted(xs[:-1], x, side="right")) - 1
        j = int(np.searchsorted(ys[:-1], y, side="right")) - 1
        return int(self.grid[i, j])

    def counts(self) -> dict[str, int]:
        return {
            "unreached": int(np.sum(self.grid == UNREACHED)),
            "reached": int(np.sum(self.grid == REACHED)),
            "unknown": int(np.sum(self.grid == UNKNOWN)),
        }

    def to_csv(self) -> str:
        """The grid as CSV text.  Rows run over the second coordinate from
        high to low (image order); columns over the first coordinate from
        low to high."""
        return "".join(
            ",".join(str(int(v)) for v in self.grid[:, j]) + "\n"
            for j in range(self.grid.shape[1] - 1, -1, -1)
        )


def _window_edges(window, cells: int):
    x_lo, x_hi, y_lo, y_hi = (float(w) for w in window)
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, x_hi - x_lo, y_hi - y_lo))):
        raise ValueError(f"window bounds and spans must be finite, got {tuple(window)}")
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("window must satisfy x_lo < x_hi and y_lo < y_hi")
    if cells < 1:
        raise ValueError(f"cell count must be positive, got {cells}")
    return np.linspace(x_lo, x_hi, cells + 1), np.linspace(y_lo, y_hi, cells + 1)


def _check_tol(tol) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _mark_samples(grid, x_edges, y_edges, pts: np.ndarray) -> None:
    if pts.size == 0:
        return
    i = np.searchsorted(x_edges, pts[:, 0], side="right") - 1
    j = np.searchsorted(y_edges, pts[:, 1], side="right") - 1
    ok = (i >= 0) & (i < grid.shape[0]) & (j >= 0) & (j < grid.shape[1])
    grid[i[ok], j[ok]] = REACHED


def l2_reach_verdict(base, target, *, tol: float = 1e-8) -> int:
    """Settle one Lorentz half-plane target: the wedge decides, the log
    launch is confirmed at t = 1.

    The target is reachable exactly when x1 > 0 and |x2 - b2| < b1 + x1.
    A reachable target is REACHED when the closed-form geodesic launched
    with ``l2_log(base, target)`` is defined at t = 1 and lands within
    ``tol`` of it, and UNKNOWN otherwise.
    """
    _check_tol(tol)
    b1, b2 = float(base[0]), float(base[1])
    a, b = float(target[0]), float(target[1])
    if b1 <= 0.0:
        raise DomainError("base point must have x1 > 0")
    if not (a > 0.0 and abs(b - b2) < a + b1):
        return UNREACHED
    v = l2_log((b1, b2), (a, b))
    try:
        geo = fit_l2_geodesic((b1, b2), v)
        if geo.t_max > 1.0:
            x1, x2 = geo._point(1.0)
            return REACHED if math.hypot(x1 - a, x2 - b) <= tol else UNKNOWN
    except (ArithmeticError, DegenerateFitError, ParamOutOfDomainError):
        # launches whose orbit constants leave the float range: beta ~ v1/v2
        # overflows on a nearly vertical one, and v1**2 - v2**2 underflows
        # on a very slow one
        pass
    return UNKNOWN


def _l2_coverage(base, x_edges, y_edges, *, tol: float) -> np.ndarray:
    grid = np.full((len(x_edges) - 1, len(y_edges) - 1), UNKNOWN, dtype=int)
    cx = 0.5 * (x_edges[:-1] + x_edges[1:])
    cy = 0.5 * (y_edges[:-1] + y_edges[1:])
    for i, x in enumerate(cx):
        for j, y in enumerate(cy):
            grid[i, j] = l2_reach_verdict(base, (x, y), tol=tol)
    return grid


def _sweep_coverage(
    field: ChristoffelField, base, x_edges, y_edges, *, angles: int, t_max: float
) -> np.ndarray:
    if angles < 1:
        raise ValueError(f"angles must be positive, got {angles}")
    grid = np.full((len(x_edges) - 1, len(y_edges) - 1), UNKNOWN, dtype=int)
    # The backward half of launch th is the forward half of launch th + pi
    # (geodesic reversal), so a fan closed under th -> th + pi is stepped
    # forward only; for odd counts it holds every 2 pi k / angles bit for bit.
    m = angles if angles % 2 == 0 else 2 * angles
    thetas = (2.0 * math.pi * k / m for k in range(m))
    velocities = [(math.cos(th), math.sin(th)) for th in thetas]
    run = integrate_geodesics(
        field, base, velocities, t_max, samples=201, rtol=1e-8, atol=1e-10
    )
    filled = np.arange(run.sample_ts.size) < run.n_samples[:, np.newaxis]
    _mark_samples(grid, x_edges, y_edges, run.sample_ys[filled, 0:2])
    return grid


def exp_coverage(
    field: ChristoffelField,
    base,
    window,
    cells: int,
    *,
    angles: int = 256,
    tol: float = 1e-8,
    t_max: float = 40.0,
) -> CoverageMap:
    """Classify window cells as unreached/reached/unknown under exp_base.

    ``window`` is (x1_lo, x1_hi, x2_lo, x2_hi), cut into ``cells`` x
    ``cells`` cells.  The Lorentz half-plane model gets the full three-valued
    per-centre verdict via its closed forms; any other field is swept
    numerically over ``angles`` directions to |t| = t_max and yields
    reached/unknown only.  The sweep steps the m directions 2 pi k / m
    forward to t_max, with m = ``angles`` when it is even and 2 ``angles``
    when it is odd; reversal makes them cover each launch for |t| <= t_max.
    ``tol`` is the L2 landing tolerance, a positive finite number.
    """
    _check_tol(tol)
    x_edges, y_edges = _window_edges(window, cells)
    base = (float(base[0]), float(base[1]))
    l2 = get_model("L2").field
    if field.kind == l2.kind and field.coeffs == l2.coeffs:
        if not (0.0 < base[0] < math.inf and math.isfinite(base[1])):
            raise DomainError("base point must be finite with x1 > 0")
        grid = _l2_coverage(base, x_edges, y_edges, tol=tol)
    else:
        if not field.contains(base):
            raise DomainError("base point is outside the field's chart")
        grid = _sweep_coverage(field, base, x_edges, y_edges, angles=angles, t_max=t_max)
    return CoverageMap(base=base, x_edges=x_edges, y_edges=y_edges, grid=grid)

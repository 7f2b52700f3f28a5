"""Reachability maps for the exponential map over a rectangular window.

Verdicts are per cell centre.  For the Lorentz half-plane the closed-form
geodesic families make the image of exp_P effectively computable: the
unique candidate orbit through base and centre is solved for exactly (a
direction search with a perfect initializer), its causal component test
decides reachability, and reachable verdicts are confirmed by evaluating
the aimed geodesic at the hit parameter, which its closed form gives
directly.  Unreachable verdicts come only from the exact orbit algebra; a
failed numeric confirmation degrades to "unknown", never to "unreachable".

For other models no closed forms are available, so a sweep of launch
directions marks cells that sampled geodesic points land in, and
everything else stays unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import get_model
from .errors import DomainError
from .fields import ChristoffelField
# The sweep runs integrate_geodesics; integrate_geodesic stays a module
# attribute for tools that wrap it here, such as benchmarks/tracing.py.
from .geodesics import integrate_geodesic, integrate_geodesics  # noqa: F401
from .lorentz import fit_l2_geodesic

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
    axis_names: tuple[str, str] = ("x1", "x2")

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        cx = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        cy = 0.5 * (self.y_edges[:-1] + self.y_edges[1:])
        return cx, cy

    def value_at(self, x: float, y: float) -> int:
        i = int(np.searchsorted(self.x_edges, x, side="right")) - 1
        j = int(np.searchsorted(self.y_edges, y, side="right")) - 1
        if not (0 <= i < self.grid.shape[0] and 0 <= j < self.grid.shape[1]):
            raise DomainError(f"({x}, {y}) is outside the coverage window")
        return int(self.grid[i, j])

    def counts(self) -> dict[str, int]:
        return {
            "unreached": int(np.sum(self.grid == UNREACHED)),
            "reached": int(np.sum(self.grid == REACHED)),
            "unknown": int(np.sum(self.grid == UNKNOWN)),
        }

    def to_csv(self, path=None) -> str | None:
        """Rows run over the second coordinate from high to low (image
        order); columns over the first coordinate from low to high.  With
        no ``path`` the CSV text is returned instead."""
        text = "".join(
            ",".join(str(int(v)) for v in self.grid[:, j]) + "\n"
            for j in range(self.grid.shape[1] - 1, -1, -1)
        )
        if path is None:
            return text
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _window_edges(window, cells: int):
    x_lo, x_hi, y_lo, y_hi = (float(w) for w in window)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("window must satisfy x_lo < x_hi and y_lo < y_hi")
    if cells < 1:
        raise ValueError(f"cell count must be positive, got {cells}")
    return np.linspace(x_lo, x_hi, cells + 1), np.linspace(y_lo, y_hi, cells + 1)


def _mark_samples(grid, x_edges, y_edges, pts: np.ndarray) -> None:
    if pts.size == 0:
        return
    i = np.searchsorted(x_edges, pts[:, 0], side="right") - 1
    j = np.searchsorted(y_edges, pts[:, 1], side="right") - 1
    ok = (i >= 0) & (i < grid.shape[0]) & (j >= 0) & (j < grid.shape[1])
    grid[i[ok], j[ok]] = REACHED


def l2_reach_verdict(base, target, *, tol: float = 1e-8) -> int:
    """Settle one Lorentz half-plane target by orbit aiming.

    The candidate orbit through base and target is unique; its causal type
    and component test decide reachability exactly.  A reachable verdict
    takes the hit parameter from the aimed geodesic's closed-form inverse
    (``t_at_x2``) and is confirmed by evaluating the geodesic there.
    """
    b1, b2 = float(base[0]), float(base[1])
    a, b = float(target[0]), float(target[1])
    if b1 <= 0.0:
        raise DomainError("base point must have x1 > 0")
    if a <= 0.0:
        return UNREACHED
    if a == b1 and b == b2:
        return REACHED

    if b == b2:
        # the vertical geodesic through base covers the whole ray x2 = b2
        sgn = 1.0 if a > b1 else -1.0
        geo = fit_l2_geodesic((b1, b2), (sgn, 0.0))
        t_star = b1 * math.log(a / b1) * sgn
        return REACHED if _confirm(geo, t_star, a, b, tol) else UNKNOWN

    beta = (a * a + b2 * b2 - b1 * b1 - b * b) / (2.0 * (b - b2))
    mu = b1 * b1 - (b2 + beta) ** 2
    scale = max(1.0, a * a, b1 * b1, beta * beta)
    sgn = 1.0 if b > b2 else -1.0
    vel = (sgn * (b2 + beta), sgn * b1)

    if abs(mu) <= 1e-12 * scale:
        # null line pair x1 = |x2 + beta|: same line means same sign
        if (b + beta) * (b2 + beta) <= 0.0:
            return UNREACHED
    elif mu < 0.0:
        # timelike orbit: the geodesic covers one hyperbola component
        if (b + beta) * (b2 + beta) <= 0.0:
            return UNREACHED
    # spacelike (mu > 0): the full connected branch is covered

    geo = fit_l2_geodesic((b1, b2), vel)
    t_star = geo.t_at_x2(b)
    if t_star is None:
        return UNKNOWN
    return REACHED if _confirm(geo, t_star, a, b, tol) else UNKNOWN


def _confirm(geo, t_star: float, a: float, b: float, tol: float) -> bool:
    if not (geo.t_min < t_star < geo.t_max):
        return False
    x1, x2 = geo._point(t_star)
    return math.hypot(x1 - a, x2 - b) <= tol


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
    thetas = (2.0 * math.pi * k / angles for k in range(angles))
    velocities = [(math.cos(th), math.sin(th)) for th in thetas]
    runs = integrate_geodesics(
        field, base, velocities, (-t_max, t_max), samples=401, rtol=1e-8, atol=1e-10
    )
    for run in runs:
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
    reached/unknown only.
    """
    x_edges, y_edges = _window_edges(window, cells)
    base = (float(base[0]), float(base[1]))
    if field == get_model("L2").field:
        if not (0.0 < base[0] < math.inf and math.isfinite(base[1])):
            raise DomainError("base point must be finite with x1 > 0")
        grid = _l2_coverage(base, x_edges, y_edges, tol=tol)
    else:
        if not field.contains(base):
            raise DomainError("base point is outside the field's chart")
        grid = _sweep_coverage(field, base, x_edges, y_edges, angles=angles, t_max=t_max)
    return CoverageMap(base=base, x_edges=x_edges, y_edges=y_edges, grid=grid)

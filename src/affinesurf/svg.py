"""Minimal deterministic SVG 1.1 writer for trajectories and coverage maps.

Write-only: a fixed viewBox is derived from the data window, coordinates
are emitted with a fixed format, and no timestamps, ids, or styling hooks
appear in the output, so identical inputs give byte-identical documents.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SvgCanvas", "coverage_svg", "polyline_svg"]

_FILLS = {0: "#c8c8c8", 1: "none", 2: "#ececec"}


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


# side of the square a window is fitted into, and the blank margin around it
_SIZE = 640
_MARGIN = 20.0


class SvgCanvas:
    """Accumulates shapes in data coordinates over a fixed window."""

    def __init__(self, window):
        x_lo, x_hi, y_lo, y_hi = (float(w) for w in window)
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError("window must satisfy x_lo < x_hi and y_lo < y_hi")
        self.window = (x_lo, x_hi, y_lo, y_hi)
        span_x, span_y = x_hi - x_lo, y_hi - y_lo
        self._scale = (_SIZE - 2.0 * _MARGIN) / max(span_x, span_y)
        self.width = 2.0 * _MARGIN + span_x * self._scale
        self.height = 2.0 * _MARGIN + span_y * self._scale
        self._body: list[str] = []

    def _map(self, x: float, y: float) -> tuple[float, float]:
        x_lo, _, y_lo, y_hi = self.window
        return (
            _MARGIN + (x - x_lo) * self._scale,
            _MARGIN + (y_hi - y) * self._scale,
        )

    def polyline(self, points) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 2:
            return
        coords = " ".join(
            f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in (self._map(x, y) for x, y in pts)
        )
        self._body.append(
            '<polyline fill="none" stroke="#204080" '
            f'stroke-width="1.200" points="{coords}" />'
        )

    def cell(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, fill: str) -> None:
        if fill == "none":
            return
        sx0, sy1 = self._map(x_lo, y_lo)
        sx1, sy0 = self._map(x_hi, y_hi)
        self._body.append(
            f'<rect x="{_fmt(sx0)}" y="{_fmt(sy0)}" '
            f'width="{_fmt(sx1 - sx0)}" height="{_fmt(sy1 - sy0)}" '
            f'fill="{fill}" stroke="none" />'
        )

    def frame(self) -> None:
        x_lo, x_hi, y_lo, y_hi = self.window
        sx0, sy1 = self._map(x_lo, y_lo)
        sx1, sy0 = self._map(x_hi, y_hi)
        self._body.append(
            f'<rect x="{_fmt(sx0)}" y="{_fmt(sy0)}" '
            f'width="{_fmt(sx1 - sx0)}" height="{_fmt(sy1 - sy0)}" '
            f'fill="none" stroke="#000000" stroke-width="1.000" />'
        )

    def to_string(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        return "\n".join([head, *self._body, "</svg>"]) + "\n"


def coverage_svg(cover) -> str:
    """Render a coverage map: unreached cells dark, unknown light, reached open."""
    canvas = SvgCanvas(
        (cover.x_edges[0], cover.x_edges[-1], cover.y_edges[0], cover.y_edges[-1])
    )
    nx, ny = cover.grid.shape
    for i in range(nx):
        for j in range(ny):
            canvas.cell(
                cover.x_edges[i],
                cover.x_edges[i + 1],
                cover.y_edges[j],
                cover.y_edges[j + 1],
                _FILLS[int(cover.grid[i, j])],
            )
    canvas.frame()
    return canvas.to_string()


def polyline_svg(window, curves) -> str:
    """Render trajectories (sequences of (x, y) rows) over a window."""
    canvas = SvgCanvas(window)
    canvas.frame()
    for curve in curves:
        canvas.polyline(curve)
    return canvas.to_string()

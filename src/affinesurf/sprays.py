"""Null-geodesic spray charts and their metric normal form.

A spray chart is T(s, t) = exp over the model's geodesics of t xi(s) based
at sigma(s), where sigma is a null geodesic and xi a parallel null frame
with g(sigma', xi) = 1.  Pulled back through such a chart, the model
metric takes the normal form g_ss = t^2, g_st = 1, g_tt = 0.  The module
carries the explicit closed charts into the pseudosphere and the Lorentz
half-plane, numeric chart construction for arbitrary catalog models with a
metric, the two spine charts (normal exponential maps of a unit geodesic),
and grid verification utilities.

Every closed map, whether a chart or the composition T_S2 after the
inverse of T_L2, is pulled back by one complex-step helper (``_pullback``),
and every defect report is built by ``IsometryReport.of`` with rows
(a, b, got - want).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .catalog import get_model
from .errors import (
    BadNormalizationError,
    DifferentiationFailureError,
    DomainError,
    NoMetricError,
    NotNullGeodesicError,
    ParamOutOfDomainError,
)
from .fields import ChristoffelField, christoffel_at
from .geodesics import integrate_geodesic
from .integrate import solve_ode
from .jacobi import _chart_vectors, _jacobi_rhs, _pack_state
from .lorentz import fit_l2_geodesic, l2_metric
from .pseudosphere import minkowski_inner

__all__ = [
    "XSquaredMetric",
    "map_T_L2",
    "invert_T_L2",
    "map_T_S2",
    "invert_T_S2",
    "SprayChart",
    "build_spray",
    "l2_null_spray",
    "s2_null_spray",
    "s2_frame_products",
    "spine_sprays",
    "SpineFindings",
    "spine_findings",
    "spray_metric",
    "spray_metric_grid",
    "IsometryReport",
    "verify_isometry",
    "verify_composition",
    "ts2_grid",
    "tl2_grid",
    "injectivity_gap",
]


class XSquaredMetric:
    """The fixed normal form: g(ds,ds) = t^2, g(ds,dt) = 1, g(dt,dt) = 0."""

    @staticmethod
    def components(s: float, t: float) -> tuple[float, float, float]:
        return (t * t, 1.0, 0.0)


# ----------------------------------------------------------------------
# closed chart maps (polynomial/rational, hence usable with complex step)

def map_T_L2(s, t) -> np.ndarray:
    """Null spray chart of the Lorentz half-plane.

    T(s, t) = (s - s^2 t / 2)^{-1} (1, -1) + (0, 2/s) on s > 0,
    t < 2/s; T(s, 0) = (1/s, 1/s) sits on the base null line.
    """
    s_r, t_r = float(np.real(s)), float(np.real(t))
    if s_r <= 0.0:
        raise DomainError("map_T_L2 needs s > 0")
    if s_r - 0.5 * s_r * s_r * t_r <= 0.0:
        raise DomainError("map_T_L2 needs t < 2/s")
    a = s - 0.5 * s * s * t
    return np.array([1.0 / a, 2.0 / s - 1.0 / a])


def invert_T_L2(point) -> tuple:
    """Inverse chart coordinates (s, t) of a half-plane point.

    Defined on the image x1 > 0, x1 + x2 > 0.
    """
    x1, x2 = point[0], point[1]
    if float(np.real(x1)) <= 0.0:
        raise DomainError("invert_T_L2 needs x1 > 0")
    if float(np.real(x1)) + float(np.real(x2)) <= 0.0:
        raise DomainError("invert_T_L2 needs x1 + x2 > 0")
    s = 2.0 / (x1 + x2)
    t = 2.0 * (s - 1.0 / x1) / (s * s)
    return s, t


def map_T_S2(s, t) -> np.ndarray:
    """Null spray chart of the pseudosphere: lands on <T, T> = 1."""
    return np.array([
        1.0 - t * s,
        s + 0.5 * t - 0.5 * t * s * s,
        s - 0.5 * t - 0.5 * t * s * s,
    ])


def invert_T_S2(x) -> tuple:
    """Chart coordinates (s, t) of an ambient image point: t = x2 - x3,
    s = (x2 + x3) / (1 + x1); needs x1 != -1."""
    if abs(float(np.real(x[0])) + 1.0) < 1e-12:
        raise DomainError("invert_T_S2 is singular at x1 = -1")
    t = x[1] - x[2]
    s = (x[1] + x[2]) / (1.0 + x[0])
    return s, t


# ----------------------------------------------------------------------
# chart objects

@dataclass
class SprayChart:
    """Evaluable chart T(s, t) with its frame data.

    kind is "closed-chart" (closed complex-safe map into a 2-d chart),
    "closed-ambient" (closed map into Minkowski 3-space), "fit" (points
    from the half-plane closed-form geodesic families), or "numeric"
    (points by geodesic integration).
    """

    label: str
    kind: str
    sigma: Callable
    sigma_vel: Callable
    xi: Callable
    s_range: tuple
    field: ChristoffelField | None = None
    metric: Callable | None = None
    closed_map: Callable | None = None
    t_domain_fn: Callable | None = None
    expected_form: Callable | None = None
    _fit_cache: dict = dataclass_field(default_factory=dict, repr=False)

    def t_domain(self, s: float) -> tuple[float, float]:
        if self.t_domain_fn is not None:
            return self.t_domain_fn(s)
        if self.kind == "fit":
            geo = self._fit(s)
            return (geo.t_min, geo.t_max)
        return (-math.inf, math.inf)

    def _fit(self, s: float):
        key = float(s)
        geo = self._fit_cache.get(key)
        if geo is None:
            geo = fit_l2_geodesic(self.sigma(key), self.xi(key))
            if len(self._fit_cache) > 4096:
                self._fit_cache.clear()
            self._fit_cache[key] = geo
        return geo

    def point(self, s: float, t: float) -> np.ndarray:
        if self.closed_map is not None:
            return np.real(self.closed_map(s, t))
        if self.kind == "fit":
            return np.asarray(self._fit(float(s)).point(float(t)), dtype=float)
        t = float(t)
        if t == 0.0:
            return self.sigma(float(s))
        span = (0.0, t) if t > 0.0 else (t, 0.0)
        traj = integrate_geodesic(
            self.field, self.sigma(float(s)), self.xi(float(s)), span, samples=2,
        )
        if not traj.complete:
            status = traj.status_forward if t > 0.0 else traj.status_backward
            raise DomainError(
                f"chart geodesic at s={s} stopped ({status}) before t={t}"
            )
        return traj.x[-1] if t > 0.0 else traj.x[0]


_FRAME_TOL = 1e-8


def build_spray(model: str, sigma, xi0, s_range) -> SprayChart:
    """Construct a numeric spray chart after validating its frame.

    ``model`` is a catalog name.  ``sigma`` is the base curve as a
    (point_fn, velocity_fn) pair; it must be an affinely parametrized null
    geodesic of the model over ``s_range``.  ``xi0`` seeds the parallel
    null frame at the midpoint of ``s_range`` and must satisfy
    g(sigma', xi0) = 1 and g(xi0, xi0) = 0 within 1e-8.
    """
    named = get_model(model)
    if named.metric is None:
        raise NoMetricError(f"model {named.name} carries no distinguished metric")
    metric = named.metric
    fld = named.field
    pt, vel = sigma
    sig_pt = lambda s: np.asarray(pt(s), dtype=float)
    sig_vel = lambda s: np.asarray(vel(s), dtype=float)
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not s_lo < s_hi:
        raise ValueError("s_range must be increasing")
    s0 = 0.5 * (s_lo + s_hi)

    for s in np.linspace(s_lo, s_hi, 9):
        p, v = sig_pt(s), sig_vel(s)
        g = metric(p)
        val = float(v @ g @ v)
        scale = max(1.0, float(v @ v) * float(np.max(np.abs(g))))
        if abs(val) > _FRAME_TOL * scale:
            raise NotNullGeodesicError(
                f"base curve tangent is not null at s={s}: g(v, v)={val:.3e}"
            )

    traj = integrate_geodesic(
        fld, sig_pt(s0), sig_vel(s0), (s_lo - s0, s_hi - s0), samples=17
    )
    if not traj.complete:
        raise NotNullGeodesicError(
            "base curve leaves the chart when integrated "
            f"({traj.status_backward}/{traj.status_forward})"
        )
    for tau, x in zip(traj.t, traj.x):
        want = sig_pt(s0 + tau)
        if float(np.max(np.abs(x - want))) > 100.0 * _FRAME_TOL * max(
            1.0, float(np.max(np.abs(want)))
        ):
            raise NotNullGeodesicError(
                "base curve is not an affinely parametrized geodesic "
                f"(mismatch at s={s0 + tau})"
            )

    xi0 = np.asarray(xi0, dtype=float)
    p0 = sig_pt(s0)
    g0 = metric(p0)
    pairing = float(sig_vel(s0) @ g0 @ xi0)
    if abs(pairing - 1.0) > _FRAME_TOL:
        raise BadNormalizationError(
            f"g(sigma', xi0) = {pairing:.6g} at s={s0}, expected 1"
        )
    xi_norm = float(xi0 @ g0 @ xi0)
    if abs(xi_norm) > _FRAME_TOL:
        raise BadNormalizationError(
            f"g(xi0, xi0) = {xi_norm:.6g} at s={s0}, expected 0"
        )

    knots, values = _transport_frame(fld, sig_pt, sig_vel, xi0, s_lo, s_hi, s0)
    for s_k, xi_k in zip(knots[::16], values[::16]):
        g = metric(sig_pt(s_k))
        if abs(float(xi_k @ g @ xi_k)) > 1e-10 or abs(
            float(sig_vel(s_k) @ g @ xi_k) - 1.0
        ) > 1e-10:
            raise BadNormalizationError(
                f"parallel transport lost the frame normalization near s={s_k}"
            )

    def xi_at(s: float) -> np.ndarray:
        s = float(s)
        idx = int(np.argmin(np.abs(knots - s)))
        if knots[idx] == s:
            return values[idx].copy()
        res = solve_ode(
            _transport_rhs(fld, sig_pt, sig_vel), knots[idx], values[idx], s,
            rtol=1e-11, atol=1e-13,
        )
        return res.ys[-1]

    return SprayChart(
        label=f"null spray on {named.name}",
        kind="numeric",
        sigma=sig_pt,
        sigma_vel=sig_vel,
        xi=xi_at,
        s_range=(s_lo, s_hi),
        field=fld,
        metric=metric,
    )


def _transport_rhs(fld, sig_pt, sig_vel):
    def f(s, xi):
        g = christoffel_at(fld, sig_pt(s))
        return -np.einsum("ijk,i,j->k", g, sig_vel(s), xi)

    return f


def _transport_frame(fld, sig_pt, sig_vel, xi0, s_lo, s_hi, s0):
    knots = np.linspace(s_lo, s_hi, 129)
    values = np.empty((knots.size, 2))
    rhs = _transport_rhs(fld, sig_pt, sig_vel)
    fwd = knots[knots >= s0]
    bwd = knots[knots < s0][::-1]
    if fwd.size:
        res = solve_ode(rhs, s0, xi0, fwd[-1], rtol=1e-11, atol=1e-13, t_eval=fwd)
        values[knots >= s0] = res.sample_ys
    if bwd.size:
        res = solve_ode(rhs, s0, xi0, bwd[-1], rtol=1e-11, atol=1e-13, t_eval=bwd)
        values[knots < s0] = res.sample_ys[::-1]
    return knots, values


def l2_null_spray() -> SprayChart:
    """The closed half-plane spray: sigma(s) = (1/s, 1/s), xi = (1/2, -1/2)."""
    return SprayChart(
        label="closed null spray on L2",
        kind="closed-chart",
        sigma=lambda s: np.array([1.0 / s, 1.0 / s]),
        sigma_vel=lambda s: np.array([-1.0 / (s * s), -1.0 / (s * s)]),
        xi=lambda s: np.array([0.5, -0.5]),
        s_range=(0.0, math.inf),
        field=get_model("L2").field,
        metric=l2_metric,
        closed_map=map_T_L2,
        t_domain_fn=lambda s: (-math.inf, 2.0 / s),
    )


def s2_frame_products(s: float) -> dict[str, float]:
    """The five the pseudosphere frame must satisfy: <sigma,sigma> = 1,
    <sigma',sigma'> = 0, <xi,xi> = 0, <sigma,xi> = 0, <sigma',xi> = 1."""
    sig = np.array([1.0, s, s])
    sig_vel = np.array([0.0, 1.0, 1.0])
    xi = np.array([-s, 0.5 * (1.0 - s * s), -0.5 * (1.0 + s * s)])
    return {
        "sigma.sigma": minkowski_inner(sig, sig),
        "sigma_vel.sigma_vel": minkowski_inner(sig_vel, sig_vel),
        "xi.xi": minkowski_inner(xi, xi),
        "sigma.xi": minkowski_inner(sig, xi),
        "sigma_vel.xi": minkowski_inner(sig_vel, xi),
    }


def s2_null_spray() -> SprayChart:
    """The closed pseudosphere spray through sigma(s) = (1, s, s)."""
    for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
        prods = s2_frame_products(s)
        want = {"sigma.sigma": 1.0, "sigma_vel.xi": 1.0}
        for key, val in prods.items():
            if abs(val - want.get(key, 0.0)) > 1e-12:
                raise BadNormalizationError(f"{key} = {val} at s = {s}")
    return SprayChart(
        label="closed null spray on the pseudosphere",
        kind="closed-ambient",
        sigma=lambda s: np.array([1.0, s, s]),
        sigma_vel=lambda s: np.array([0.0, 1.0, 1.0]),
        xi=lambda s: np.array([-s, 0.5 * (1.0 - s * s), -0.5 * (1.0 + s * s)]),
        s_range=(-math.inf, math.inf),
        closed_map=map_T_S2,
    )


def spine_sprays(kind: str) -> SprayChart:
    """Normal exponential chart of a unit half-plane geodesic ("spine").

    "vertical": the unit spacelike geodesic (sec s, tan s) with its unit
    timelike normal; the chart metric is cosh^2(t) ds^2 - dt^2.
    "horizontal": the unit timelike geodesic (csch r, sqrt(2) - coth r)
    with its unit spacelike normal; the chart metric is
    -cos^2(t) ds^2 + dt^2 and the normals escape at finite t.
    """
    fld = get_model("L2").field
    if kind == "vertical":
        sigma = lambda s: np.array([1.0 / math.cos(s), math.tan(s)])
        sigma_vel = lambda s: np.array(
            [math.tan(s) / math.cos(s), 1.0 / math.cos(s) ** 2]
        )
        xi = lambda s: np.array(
            [1.0 / math.cos(s) ** 2, math.tan(s) / math.cos(s)]
        )
        xi_vel = lambda s: np.array([
            2.0 * math.tan(s) / math.cos(s) ** 2,
            1.0 / math.cos(s) ** 3 + math.tan(s) ** 2 / math.cos(s),
        ])
        s_range = (-1.35, 1.35)
        signs = (1.0, -1.0)  # spacelike spine, timelike normal
        expected = lambda s, t: (math.cosh(t) ** 2, 0.0, -1.0)
        label = "vertical spine chart"
    elif kind == "horizontal":
        sigma = lambda s: np.array(
            [1.0 / math.sinh(s), math.sqrt(2.0) - 1.0 / math.tanh(s)]
        )
        sigma_vel = lambda s: np.array([
            -math.cosh(s) / math.sinh(s) ** 2,
            1.0 / math.sinh(s) ** 2,
        ])
        xi = lambda s: np.array([
            1.0 / math.sinh(s) ** 2,
            -math.cosh(s) / math.sinh(s) ** 2,
        ])
        xi_vel = lambda s: np.array([
            -2.0 * math.cosh(s) / math.sinh(s) ** 3,
            -1.0 / math.sinh(s) + 2.0 * math.cosh(s) ** 2 / math.sinh(s) ** 3,
        ])
        s_range = (0.1, 4.0)
        signs = (-1.0, 1.0)  # timelike spine, spacelike normal
        expected = lambda s, t: (-math.cos(t) ** 2, 0.0, 1.0)
        label = "horizontal spine chart"
    else:
        raise ValueError("spine kind must be 'vertical' or 'horizontal'")

    for s in np.linspace(s_range[0] + 0.01, s_range[1] - 0.01, 7):
        g = l2_metric(sigma(s))
        v, w = sigma_vel(s), xi(s)
        if (
            abs(float(v @ g @ v) - signs[0]) > 1e-10
            or abs(float(w @ g @ w) - signs[1]) > 1e-10
            or abs(float(v @ g @ w)) > 1e-10
        ):
            raise BadNormalizationError(f"spine frame identities fail at s={s}")
        cov = xi_vel(s) + np.einsum(
            "ijk,i,j->k", christoffel_at(fld, sigma(s)), v, w
        )
        if float(np.max(np.abs(cov))) > 1e-9:
            raise BadNormalizationError(f"spine normal is not parallel at s={s}")

    return SprayChart(
        label=label,
        kind="fit",
        sigma=sigma,
        sigma_vel=sigma_vel,
        xi=xi,
        s_range=s_range,
        field=fld,
        metric=l2_metric,
        expected_form=expected,
    )


# ----------------------------------------------------------------------
# metric pullback machinery

_CS_H = 1e-20


def _gram(ds, dt, g) -> tuple[float, float, float]:
    """(g_ss, g_st, g_tt): the metric matrix g on the partials ds and dt."""
    return ds @ g @ ds, ds @ g @ dt, dt @ g @ dt


def _pullback(map_fn, metric, s: float, t: float) -> tuple[float, float, float]:
    """(g_ss, g_st, g_tt) of ``metric`` pulled back through the closed map
    at (s, t), with both partials taken by complex step.  ``metric`` maps a
    point to its metric matrix; None means Minkowski 3-space."""
    ds = np.imag(map_fn(s + 1j * _CS_H, t)) / _CS_H
    dt = np.imag(map_fn(s, t + 1j * _CS_H)) / _CS_H
    if metric is None:
        return minkowski_inner(ds, ds), minkowski_inner(ds, dt), minkowski_inner(dt, dt)
    return _gram(ds, dt, metric(np.real(map_fn(s, t))))


def _fd4_partial_s(point_fn, s: float, t: float, h: float) -> np.ndarray:
    try:
        f_m2 = point_fn(s - 2.0 * h, t)
        f_m1 = point_fn(s - h, t)
        f_p1 = point_fn(s + h, t)
        f_p2 = point_fn(s + 2.0 * h, t)
    except (DomainError, ParamOutOfDomainError) as exc:
        raise DifferentiationFailureError(
            f"stencil at (s, t) = ({s}, {t}) leaves the chart domain"
        ) from exc
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def _variation_column(chart: SprayChart, s: float, ts: np.ndarray):
    """Chart point, t-partial and s-partial at every t in ``ts`` (sorted,
    one sign) along the geodesic of a numeric chart.  The s-partial is the
    Jacobi field with J(0) = sigma'(s) and J'(0) = 0, as xi is parallel."""
    p0 = chart.sigma(s)
    v0 = np.asarray(chart.xi(s), dtype=float)
    a0 = chart.sigma_vel(s)
    y0 = _pack_state(p0, v0, np.eye(2), a0, (0.0, 0.0))
    out = {}
    nonzero = ts[ts != 0.0]
    if 0.0 in ts or ts.size != nonzero.size:
        out[0.0] = (p0, v0, np.asarray(a0, dtype=float))
    if nonzero.size:
        res = solve_ode(
            _jacobi_rhs(chart.field, 1), 0.0, y0, float(nonzero[-1]),
            rtol=1e-11, atol=1e-13, t_eval=nonzero,
        )
        if res.status != "reached":
            raise DifferentiationFailureError(
                f"variation integration stopped ({res.status}) at s={s}"
            )
        for t_k, y in zip(res.sample_ts, res.sample_ys):
            out[float(t_k)] = _chart_vectors(y)
    return out


def spray_metric(chart: SprayChart, s: float, t: float) -> tuple[float, float, float]:
    """Pullback components (g_ss, g_st, g_tt) of the chart at (s, t)."""
    grid = spray_metric_grid(chart, [float(s)], [float(t)])
    return tuple(grid[0, 0])


def spray_metric_grid(chart: SprayChart, s_vals, t_vals) -> np.ndarray:
    """Pullback components over the cartesian grid s_vals x t_vals.

    Returns an array of shape (len(s_vals), len(t_vals), 3) holding
    (g_ss, g_st, g_tt).  Closed charts are differentiated by complex
    step; "fit" charts use the exact t-velocity and a fourth-order
    stencil in s; numeric charts integrate the variation field.
    """
    s_vals = np.asarray(s_vals, dtype=float)
    t_vals = np.asarray(t_vals, dtype=float)
    out = np.empty((s_vals.size, t_vals.size, 3))

    if chart.closed_map is not None:
        for i, s in enumerate(s_vals):
            for j, t in enumerate(t_vals):
                out[i, j] = _pullback(chart.closed_map, chart.metric, s, t)
        return out

    if chart.kind == "fit":
        for i, s in enumerate(s_vals):
            h = 1e-4 * max(1.0, abs(s))
            geo = chart._fit(s)
            for j, t in enumerate(t_vals):
                if not (geo.t_min < t < geo.t_max):
                    raise DifferentiationFailureError(
                        f"t={t} outside the chart column at s={s}"
                    )
                base = np.asarray(geo.point(t), dtype=float)
                dt = np.asarray(geo.velocity(t), dtype=float)
                ds = _fd4_partial_s(chart.point, s, t, h)
                out[i, j] = _gram(ds, dt, chart.metric(base))
        return out

    for i, s in enumerate(s_vals):
        cols = {}
        pos = np.sort(t_vals[t_vals >= 0.0])
        neg = np.sort(t_vals[t_vals < 0.0])[::-1]
        for side in (pos, neg):
            if side.size:
                cols.update(_variation_column(chart, float(s), side))
        for j, t in enumerate(t_vals):
            x, dt, ds = cols[float(t)]
            out[i, j] = _gram(ds, dt, chart.metric(x))
    return out


# ----------------------------------------------------------------------
# verification reports

@dataclass
class IsometryReport:
    label: str
    columns: tuple
    rows: np.ndarray

    @classmethod
    def of(cls, label: str, nodes, got, want, columns=("s", "t", "d_ss", "d_st", "d_tt")):
        """Rows (a, b, got - want): each node (a, b) with the defects of the
        pulled-back components ``got`` against the wanted ``want``."""
        if len(nodes) == 0:
            raise ValueError(f"{label}: an isometry report needs at least one grid node")
        defects = np.asarray(got, dtype=float) - np.asarray(want, dtype=float)
        return cls(label, columns, np.column_stack([np.asarray(nodes, dtype=float), defects]))

    @property
    def max_defect(self) -> float:
        return float(np.max(np.abs(self.rows[:, 2:])))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def ts2_grid(n: int = 41):
    return np.linspace(-2.0, 2.0, n), np.linspace(-2.0, 2.0, n)


def tl2_grid(n: int = 41):
    s_vals = np.linspace(0.1, 3.0, n)
    return s_vals, lambda s: np.linspace(-3.0, 2.0 / s - 0.05, n)


def _grid_nodes(grid) -> list[tuple[float, float]]:
    """Nodes (s, t) of ``grid`` = (s_values, t_values), s-major, where
    t_values is an array or a callable s -> array."""
    s_vals, t_spec = grid
    nodes = []
    for s in np.asarray(s_vals, dtype=float):
        t_vals = t_spec(s) if callable(t_spec) else t_spec
        nodes += [(float(s), float(t)) for t in np.asarray(t_vals, dtype=float)]
    return nodes


def verify_isometry(map_fn, target: str, grid, *, label: str = "chart") -> IsometryReport:
    """Defects of the pullback of ``target`` against the normal form.

    ``target`` is "minkowski" or "L2"; ``grid`` is (s_values, t_values)
    with t_values an array or a callable s -> array.  Rows are
    (s, t, d_ss, d_st, d_tt).
    """
    if target == "minkowski":
        metric = None
    elif target == "L2":
        metric = l2_metric
    else:
        raise ValueError(f'target must be "minkowski" or "L2", got {target!r}')
    nodes = _grid_nodes(grid)
    got = [_pullback(map_fn, metric, s, t) for s, t in nodes]
    want = [XSquaredMetric.components(s, t) for s, t in nodes]
    return IsometryReport.of(label, nodes, got, want)


def verify_composition(window=(0.5, 3.0, -0.4, 2.0), n: int = 41) -> IsometryReport:
    """The composed map x -> T_S2(invert_T_L2(x)) realizes the half-plane
    inside the pseudosphere: the Minkowski pullback must equal the
    half-plane metric.  Rows are (x1, x2, d_11, d_12, d_22)."""

    def composed(x1, x2):
        return map_T_S2(*invert_T_L2((x1, x2)))

    nodes = _grid_nodes(
        (np.linspace(window[0], window[1], n), np.linspace(window[2], window[3], n))
    )
    got = [_pullback(composed, None, x1, x2) for x1, x2 in nodes]
    want = [l2_metric(x)[[0, 0, 1], [0, 1, 1]] for x in nodes]
    return IsometryReport.of(
        "composition T_S2 after invert_T_L2", nodes, got, want,
        columns=("x1", "x2", "d_11", "d_12", "d_22"),
    )


def _x1_neighbours(pts: np.ndarray):
    """Pairs of points in the order of their x1 gap, a few at a time.

    With the points sorted by x1, yields for k = 1, 2, ... the index arrays
    (i, j) that pair each point with its k-th successor, the squared
    distances of those pairs (coordinate squares summed in order), and their
    smallest x1 gap.  That gap never falls as k grows, so once it exceeds r
    no pair yet to come is within distance r.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    p = pts[order]
    for k in range(1, len(p)):
        d = p[k:] - p[:-k]
        yield order[:-k], order[k:], (d * d).sum(axis=1), float(d[:, 0].min())


def _close_pairs(pts: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Index pairs i < j with |pts[i] - pts[j]| <= radius, sorted."""
    r2 = radius * radius
    pairs = []
    for i, j, d2, gap in _x1_neighbours(pts):
        if gap * gap > r2:
            break
        hit = d2 <= r2
        pairs += zip(np.minimum(i, j)[hit].tolist(), np.maximum(i, j)[hit].tolist())
    return sorted(pairs)


def injectivity_gap(map_fn, grid) -> float:
    """Smallest distance between images of distinct grid nodes."""
    pts = np.asarray([np.real(map_fn(s, t)) for s, t in _grid_nodes(grid)])
    best = math.inf  # the smallest squared distance so far
    for _, _, d2, gap in _x1_neighbours(pts):
        if gap * gap > best:
            break
        best = min(best, float(d2.min()))
    return math.sqrt(best)


# ----------------------------------------------------------------------
# spine findings

@dataclass
class SpineFindings:
    """Sampled defects of a spine chart over a window.

    ``collision`` holds ((s, t), (s', t'), gap) for the closest pair of
    nodes at least 0.25 apart in s or t whose images lie within 1e-6 (the
    first in node order among equal gaps), or None when there is no such
    pair.  ``unreached_cells`` counts the cells of a 40 x 40 grid over the
    window [0, 4] x [-4, 4] missed by every sampled chart point.
    """

    label: str
    collision: tuple | None
    min_pair_gap: float
    unreached_cells: int
    total_cells: int


def spine_findings(
    chart: SprayChart,
    *,
    n_s: int = 61,
    n_t: int = 61,
) -> SpineFindings:
    from .coverage import _mark_samples, _window_edges

    s_vals = np.linspace(chart.s_range[0] + 0.01, chart.s_range[1] - 0.01, n_s)
    nodes = []
    pts = []
    for s in s_vals:
        t_lo, t_hi = chart.t_domain(s)
        lo = max(t_lo, -6.0)
        hi = min(t_hi, 6.0)
        margin = 1e-3 * (hi - lo)
        for t in np.linspace(lo + margin, hi - margin, n_t):
            nodes.append((s, t))
            pts.append(chart.point(s, t))
    pts = np.asarray(pts)
    nodes = np.asarray(nodes)

    collision = None
    min_gap = math.inf
    for i, j in _close_pairs(pts, 1e-6):
        if float(np.max(np.abs(nodes[i] - nodes[j]))) < 0.25:
            continue
        gap = float(np.linalg.norm(pts[i] - pts[j]))
        if gap < min_gap:
            min_gap = gap
            collision = (tuple(nodes[i]), tuple(nodes[j]), gap)

    cells = 40
    x_edges, y_edges = _window_edges((0.0, 4.0, -4.0, 4.0), cells)
    grid = np.zeros((cells, cells), dtype=int)
    _mark_samples(grid, x_edges, y_edges, pts)
    unreached = int(np.sum(grid == 0))
    return SpineFindings(
        label=chart.label,
        collision=collision,
        min_pair_gap=min_gap,
        unreached_cells=unreached,
        total_cells=cells * cells,
    )

"""Curvature, Ricci, and covariant-derivative tables for connection charts.

For kinds A and B the coefficient tables are exact: a kind-A chart has
constant tensors, and a kind-B chart produces tensors of the form
(x1)**(-p) times a constant rational table with p = 2 for the curvature and
Ricci tensors and p = 3 for the covariant derivative of Ricci.  Zero tests
(flatness, local symmetry) on these kinds are therefore exact rational
decisions, not float comparisons.

Index conventions, fixed once:

* curvature      R[i, j, k, l]:  R(d_i, d_j) d_k = R[i, j, k, l] d_l
* ricci          rho[j, k] = R[i, j, k, i] summed over i
                 (trace of z -> R(z, x) y with x = d_j, y = d_k)
* nabla ricci    N[k, i, j] = (nabla_{d_k} rho)(d_i, d_j); the FIRST index
                 is the differentiation direction.

Analytic charts are evaluated pointwise from their gamma/dgamma callables;
the Ricci derivative additionally uses central finite differences of the
pointwise Ricci values, since analytic charts only carry first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import (
    KIND_A,
    KIND_ANALYTIC,
    KIND_B,
    _UNPACK,
    ChristoffelField,
    christoffel_at,
    coeffs_to_tensor,
)

__all__ = [
    "ScaledTable",
    "curvature_table",
    "ricci_table",
    "nabla_ricci_table",
    "curvature_at",
    "ricci_at",
    "ricci_symmetric_at",
    "nabla_ricci_at",
    "is_flat",
    "is_locally_symmetric",
]

# Step for the fourth-order stencil in nabla_ricci_at on analytic charts.
# Chosen so truncation (h**4) and cancellation (eps/h) are both well under
# the 1e-9 symmetry tolerance on moderate windows.
_FD_STEP = 2e-3


@dataclass(frozen=True)
class ScaledTable:
    """Constant rational table scaled by (x1)**(-power).

    ``table`` is a nested tuple of Fractions whose depth equals the tensor
    rank.  ``power`` is 0 for kind-A charts, so the tensor is constant.
    """

    table: tuple
    power: int

    def is_zero(self) -> bool:
        def walk(node):
            if isinstance(node, tuple):
                return all(walk(c) for c in node)
            return node == 0

        return walk(self.table)

    def as_array(self) -> np.ndarray:
        return np.array(self.table, dtype=float)

    def at(self, p) -> np.ndarray:
        scale = float(p[0]) ** (-self.power) if self.power else 1.0
        return self.as_array() * scale


def _freeze(node):
    if isinstance(node, list):
        return tuple(_freeze(c) for c in node)
    return node


def _exact_gamma(field: ChristoffelField):
    """Symmetric [i][j][k] Fraction table G with Gamma = (x1)**(-q) * G."""
    if field.kind == KIND_A:
        return coeffs_to_tensor(field.coeffs), 0
    if field.kind == KIND_B:
        return coeffs_to_tensor(field.coeffs), 1
    raise TypeError("exact tables exist only for kind A and kind B charts")


def curvature_table(field: ChristoffelField) -> ScaledTable:
    """Exact curvature table R[i][j][k][l], scaled by (x1)**(-2q)."""
    g, q = _exact_gamma(field)
    r = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = Fraction(0)
                    if q:
                        # d/dx^i of (x1)**(-1) tables contributes -(x1)**(-2)
                        # only when differentiating along x1.
                        if i == 0:
                            val -= g[j][k][l]
                        if j == 0:
                            val += g[i][k][l]
                    for s in range(2):
                        val += g[i][s][l] * g[j][k][s] - g[j][s][l] * g[i][k][s]
                    r[i][j][k][l] = val
    return ScaledTable(table=_freeze(r), power=2 * q)


def ricci_table(field: ChristoffelField) -> ScaledTable:
    """Exact Ricci table rho[j][k] = sum_i R[i][j][k][i]."""
    rt = curvature_table(field)
    r = rt.table
    rho = [[sum(r[i][j][k][i] for i in range(2)) for k in range(2)] for j in range(2)]
    return ScaledTable(table=_freeze(rho), power=rt.power)


def nabla_ricci_table(field: ChristoffelField) -> ScaledTable:
    """Exact table N[k][i][j] of the covariant Ricci derivative.

    First index is the differentiation direction.  For kind B the scale
    power is 3; for kind A everything is constant.
    """
    g, q = _exact_gamma(field)
    rho = ricci_table(field).table
    n = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                val = Fraction(0)
                if q and k == 0:
                    # d/dx1 of (x1)**(-2) * rho
                    val -= 2 * rho[i][j]
                for s in range(2):
                    val -= g[k][i][s] * rho[s][j] + g[k][j][s] * rho[i][s]
                n[k][i][j] = val
    return ScaledTable(table=_freeze(n), power=3 * q)


def _analytic_tensors(field: ChristoffelField, p):
    """Pointwise Gamma and its coordinate derivative for analytic charts."""
    gam = christoffel_at(field, p)
    packed_d = np.asarray(field.dgamma(float(p[0]), float(p[1])), dtype=float)
    if packed_d.shape != (6, 2):
        raise ValueError("analytic dgamma callable must return a 6 x 2 array")
    # dg[d, i, j, k] = d/dx^d of Gamma[i, j, k]
    dg = np.moveaxis(packed_d[_UNPACK], -1, 0)
    return gam, dg


def curvature_at(field: ChristoffelField, p) -> np.ndarray:
    """Curvature components R[i, j, k, l] at a point, as floats.

    For kind A the field's shared read-only table is returned.
    """
    if field.kind in (KIND_A, KIND_B):
        field.require_point(p)
        table, power = field._curvature_table
        return table * float(p[0]) ** (-power) if power else table
    gam, dg = _analytic_tensors(field, p)
    r = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = dg[i, j, k, l] - dg[j, i, k, l]
                    for s in range(2):
                        val += gam[i, s, l] * gam[j, k, s] - gam[j, s, l] * gam[i, k, s]
                    r[i, j, k, l] = val
    return r


def ricci_at(field: ChristoffelField, p) -> np.ndarray:
    """Ricci components rho[j, k] at a point (possibly non-symmetric)."""
    r = curvature_at(field, p)
    return np.einsum("ijki->jk", r)


def ricci_symmetric_at(field: ChristoffelField, p) -> np.ndarray:
    rho = ricci_at(field, p)
    return 0.5 * (rho + rho.T)


def nabla_ricci_at(field: ChristoffelField, p) -> np.ndarray:
    """Covariant Ricci derivative N[k, i, j] at a point.

    First index is the differentiation direction.  Analytic charts use a
    fourth-order five-point stencil for the coordinate derivative of rho;
    kinds A and B evaluate the exact table.
    """
    if field.kind in (KIND_A, KIND_B):
        field.require_point(p)
        return nabla_ricci_table(field).at(p)
    x1, x2 = float(p[0]), float(p[1])
    gam = christoffel_at(field, p)
    rho = ricci_at(field, p)
    h = _FD_STEP

    def d4(f, a, b, axis):
        e = (h, 0.0) if axis == 0 else (0.0, h)
        fm2 = f((a - 2 * e[0], b - 2 * e[1]))
        fm1 = f((a - e[0], b - e[1]))
        fp1 = f((a + e[0], b + e[1]))
        fp2 = f((a + 2 * e[0], b + 2 * e[1]))
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)

    rho_of = lambda q: ricci_at(field, q)
    drho = np.empty((2, 2, 2))
    drho[0] = d4(rho_of, x1, x2, 0)
    drho[1] = d4(rho_of, x1, x2, 1)
    n = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                val = drho[k, i, j]
                for s in range(2):
                    val -= gam[k, i, s] * rho[s, j] + gam[k, j, s] * rho[i, s]
                n[k, i, j] = val
    return n


def _analytic_grid(window, n: int):
    (a0, a1), (b0, b1) = window
    for u in np.linspace(a0, a1, n):
        for v in np.linspace(b0, b1, n):
            yield (float(u), float(v))


def is_flat(
    field: ChristoffelField,
    *,
    tol: float = 1e-9,
    window=((-2.0, 2.0), (-2.0, 2.0)),
    samples: int = 7,
) -> bool:
    """Whether the Ricci tensor vanishes identically.

    Exact for kinds A and B.  Analytic charts are sampled on a grid over
    ``window`` and tested against ``tol``; vanishing Ricci is equivalent to
    vanishing curvature in two dimensions.
    """
    if field.kind in (KIND_A, KIND_B):
        return ricci_table(field).is_zero()
    return all(
        np.max(np.abs(ricci_at(field, p))) <= tol for p in _analytic_grid(window, samples)
    )


def is_locally_symmetric(
    field: ChristoffelField,
    *,
    tol: float = 1e-9,
    window=((-2.0, 2.0), (-2.0, 2.0)),
    samples: int = 7,
) -> bool:
    """Whether the covariant derivative of Ricci vanishes identically.

    Exact for kinds A and B; grid-sampled with tolerance ``tol`` for
    analytic charts.
    """
    if field.kind in (KIND_A, KIND_B):
        return nabla_ricci_table(field).is_zero()
    return all(
        np.max(np.abs(nabla_ricci_at(field, p))) <= tol
        for p in _analytic_grid(window, samples)
    )

"""Curvature, Ricci, and covariant-derivative tables for connection charts.

For kinds A and B the coefficient tables are exact: a kind-A chart has
constant tensors, and a kind-B chart produces tensors of the form
(x1)**(-p) times a constant rational table with p = 2 for the curvature and
Ricci tensors and p = 3 for the covariant derivative of Ricci.  Zero tests
(flatness, local symmetry) on these kinds are therefore exact rational
decisions, not float comparisons.  Each field builds these tables once and
keeps them (see ``ChristoffelField._exact_tables``).

Index conventions, fixed once:

* curvature      R[i, j, k, l]:  R(d_i, d_j) d_k = R[i, j, k, l] d_l
* ricci          rho[j, k] = R[i, j, k, i] summed over i
                 (trace of z -> R(z, x) y with x = d_j, y = d_k)
* nabla ricci    N[k, i, j] = (nabla_{d_k} rho)(d_i, d_j); the FIRST index
                 is the differentiation direction.

R and N are each written once (``_riemann``, ``_nabla_ricci``), over nested
lists of ints or floats.  Kinds A and B pass d * Gamma as ints, d the lcm of
its denominators, with d times the derivative of their (x1)**(-p) scaling:
R and rho come out as integer numerators over d**2 and N over d**3, and each
entry is divided once.  Analytic charts pass Gamma and its derivative at a
point, and for N central differences of Ricci (they carry first derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fields import (
    KIND_A,
    KIND_B,
    _UNPACK,
    ChristoffelField,
    _numerators,
    _read_only,
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

# Analytic charts are tested for flatness and local symmetry on a
# _SAMPLES x _SAMPLES grid over _WINDOW, to absolute tolerance _TOL.
_TOL = 1e-9
_WINDOW = ((-2.0, 2.0), (-2.0, 2.0))
_SAMPLES = 7


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

    @cached_property
    def _floats(self) -> np.ndarray:
        return _read_only(self.as_array())

    def at(self, p) -> np.ndarray:
        """The tensor at p as floats; for power 0 the shared read-only table."""
        if self.power:
            return self._floats * float(p[0]) ** (-self.power)
        return self._floats


def _over(node, den: int):
    if isinstance(node, list):
        return tuple(_over(c, den) for c in node)
    return Fraction(node, den)


def _riemann(g, dg):
    """R[i][j][k][l] from Gamma g[i][j][k] and its derivative dg[d][i][j][k]."""
    r = [[[[None] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = dg[i][j][k][l] - dg[j][i][k][l]
                    for s in range(2):
                        val += g[i][s][l] * g[j][k][s] - g[j][s][l] * g[i][k][s]
                    r[i][j][k][l] = val
    return r


def _nabla_ricci(g, rho, drho):
    """N[k][i][j] from Gamma g, Ricci rho[i][j] and its derivative drho[k][i][j]."""
    n = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                val = drho[k][i][j]
                for s in range(2):
                    val -= g[k][i][s] * rho[s][j] + g[k][j][s] * rho[i][s]
                n[k][i][j] = val
    return n


def _exact_gamma(field: ChristoffelField):
    """(G', d, q): Gamma = (x1)**(-q) * G' / d with G' an integer [i][j][k] table."""
    if field.kind not in (KIND_A, KIND_B):
        raise TypeError("exact tables exist only for kind A and kind B charts")
    nums, d = _numerators(field.coeffs)
    return coeffs_to_tensor(nums), d, int(field.kind == KIND_B)


def _derivative(t, power: int, d: int):
    """d * [d/dx1, d/dx2] of (x1)**(-power) * t, as tables scaled by (x1)**(-power - 1)."""
    def times(node, c):
        return [times(x, c) for x in node] if isinstance(node, list) else c * node

    return [times(t, -power * d), times(t, 0)]


def curvature_table(field: ChristoffelField) -> ScaledTable:
    """Exact curvature table R[i][j][k][l], scaled by (x1)**(-2q)."""
    g, d, q = _exact_gamma(field)
    return ScaledTable(table=_over(_riemann(g, _derivative(g, q, d)), d * d), power=2 * q)


def _exact_tables(field: ChristoffelField) -> tuple[ScaledTable, ScaledTable, ScaledTable]:
    """Exact (R, rho, N) of a kind-A/B field; the field keeps them."""
    r = curvature_table(field)
    g, d, q = _exact_gamma(field)
    t, d2 = r.table, d * d  # d2 * rho as ints: each R entry is over a divisor of d2
    rho = [[sum(x.numerator * d2 // x.denominator for x in (t[0][j][k][0], t[1][j][k][1]))
            for k in range(2)] for j in range(2)]
    n = _nabla_ricci(g, rho, _derivative(rho, 2 * q, d))
    return r, ScaledTable(_over(rho, d2), 2 * q), ScaledTable(_over(n, d2 * d), 3 * q)


def ricci_table(field: ChristoffelField) -> ScaledTable:
    """Exact Ricci table rho[j][k] = sum_i R[i][j][k][i], built once per field."""
    return field._exact_tables[1]


def nabla_ricci_table(field: ChristoffelField) -> ScaledTable:
    """Exact table N[k][i][j] of the covariant Ricci derivative, built once per field.

    First index is the differentiation direction.  For kind B the scale
    power is 3; for kind A everything is constant.
    """
    return field._exact_tables[2]


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
        return field._exact_tables[0].at(p)
    gam, dg = _analytic_tensors(field, p)
    return np.array(_riemann(gam.tolist(), dg.tolist()))


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
    kinds A and B scale the field's exact table, and kind A returns its
    shared read-only float copy.
    """
    if field.kind in (KIND_A, KIND_B):
        field.require_point(p)
        return field._exact_tables[2].at(p)
    x1, x2 = float(p[0]), float(p[1])
    h = _FD_STEP
    drho = []
    for e1, e2 in ((h, 0.0), (0.0, h)):
        fm2, fm1, fp1, fp2 = (ricci_at(field, (x1 + c * e1, x2 + c * e2)) for c in (-2, -1, 1, 2))
        drho.append(((-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)).tolist())
    gam, rho = christoffel_at(field, p), ricci_at(field, p)
    return np.array(_nabla_ricci(gam.tolist(), rho.tolist(), drho))


def _analytic_grid():
    (a0, a1), (b0, b1) = _WINDOW
    for u in np.linspace(a0, a1, _SAMPLES):
        for v in np.linspace(b0, b1, _SAMPLES):
            yield (float(u), float(v))


def is_flat(field: ChristoffelField) -> bool:
    """Whether the Ricci tensor vanishes identically.

    Exact for kinds A and B.  Analytic charts are sampled on a grid and
    tested against a tolerance; vanishing Ricci is equivalent to vanishing
    curvature in two dimensions.
    """
    if field.kind in (KIND_A, KIND_B):
        return ricci_table(field).is_zero()
    return all(np.max(np.abs(ricci_at(field, p))) <= _TOL for p in _analytic_grid())


def is_locally_symmetric(field: ChristoffelField) -> bool:
    """Whether the covariant derivative of Ricci vanishes identically.

    Exact for kinds A and B; grid-sampled against a tolerance for analytic
    charts.
    """
    if field.kind in (KIND_A, KIND_B):
        return nabla_ricci_table(field).is_zero()
    return all(np.max(np.abs(nabla_ricci_at(field, p))) <= _TOL for p in _analytic_grid())

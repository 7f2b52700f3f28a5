"""Christoffel coefficient charts for torsion-free surface connections.

A field holds the six independent connection coefficients on a coordinate
patch.  Three kinds are supported:

* kind ``"A"``: constant coefficients on all of the plane;
* kind ``"B"``: coefficients of the form (table)/x1 on the half plane x1 > 0;
* kind ``"analytic"``: arbitrary smooth coefficients given by callables,
  together with their first coordinate derivatives.

Coefficients for kinds A and B are exact rationals so that downstream
curvature tables and zero tests are exact.  Such a field builds two things
once, on first use, and keeps them: its float Gamma at x1 = 1, and its exact
curvature, Ricci and covariant Ricci derivative tables, each with its own
float copy.  The packing order of the six independent entries is fixed once
here and used everywhere:

    (c11_1, c11_2, c12_1, c12_2, c22_1, c22_2)

where ``cij_k`` multiplies dx^k applied to the pair (d/dx^i, d/dx^j) and the
lower pair is symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "COEFF_NAMES",
    "KIND_A",
    "KIND_B",
    "KIND_ANALYTIC",
    "Point2",
    "TangentVector2",
    "ChristoffelField",
    "as_coeffs",
    "coeffs_to_tensor",
    "tensor_to_coeffs",
    "christoffel_at",
]

COEFF_NAMES = ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")

KIND_A = "A"
KIND_B = "B"
KIND_ANALYTIC = "analytic"

# (i, j, k) zero-based index of each packed slot in packing order, lower
# pair sorted, and the slot of each such index.
_SLOTS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))
_SLOT_INDEX = {ijk: slot for slot, ijk in enumerate(_SLOTS)}

# Packed slot of every full-table entry G[i, j, k]: packed[_UNPACK] is G.
_UNPACK = np.array(
    [[[_SLOT_INDEX[min(i, j), max(i, j), k] for k in range(2)] for j in range(2)]
     for i in range(2)]
)


class Point2(NamedTuple):
    """Chart point (x1, x2)."""

    x1: float
    x2: float


class TangentVector2(NamedTuple):
    """Tangent vector (xi1, xi2) in chart coordinates."""

    xi1: float
    xi2: float


def as_coeffs(values) -> tuple[Fraction, ...]:
    """Coerce an iterable of six rational-like values to exact Fractions.

    Accepts ints, Fractions, and strings such as ``"-1/2"``.  Floats are
    rejected: exact tables must not be seeded from rounded data.
    """
    vals = tuple(values)
    if len(vals) != 6:
        raise ValueError(f"expected 6 coefficients, got {len(vals)}")
    out = []
    for v in vals:
        if isinstance(v, float):
            raise TypeError(
                "float coefficient %r: pass Fraction/int/str to keep tables exact" % (v,)
            )
        out.append(Fraction(v))
    return tuple(out)


def _numerators(values) -> tuple[list[int], int]:
    """Ints d * v over the lcm d of the denominators of int/Fraction values, and d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def coeffs_to_tensor(coeffs):
    """Expand six packed coefficients to a full symmetric [i][j][k] table."""
    g = [[[None, None] for _ in range(2)] for _ in range(2)]
    for (i, j, k), slot in _SLOT_INDEX.items():
        g[i][j][k] = coeffs[slot]
        g[j][i][k] = coeffs[slot]
    return g


def tensor_to_coeffs(tensor) -> tuple:
    """Pack a symmetric [i][j][k] table back to the six-slot order."""
    return tuple(tensor[i][j][k] for i, j, k in _SLOTS)


@dataclass(frozen=True)
class ChristoffelField:
    """Immutable connection chart.

    Exactly one of the two payloads is populated: ``coeffs`` (Fractions) for
    kinds A/B, or the ``gamma``/``dgamma`` callables for analytic fields.
    ``gamma`` maps (x1, x2) to the six packed coefficients; ``dgamma`` maps
    (x1, x2) to a 6 x 2 array of their d/dx1 and d/dx2 derivatives.
    ``locally_symmetric`` declares nabla rho = 0 on an analytic chart, whose
    own symmetry test is only grid-sampled; kinds A/B are tested exactly.
    """

    kind: str
    coeffs: tuple[Fraction, ...] | None = None
    gamma: Callable[[float, float], tuple] | None = None
    dgamma: Callable[[float, float], tuple] | None = None
    name: str = ""
    locally_symmetric: bool = False

    def __post_init__(self):
        if self.kind in (KIND_A, KIND_B):
            if self.coeffs is None:
                raise ValueError(f"kind {self.kind!r} requires six exact coefficients")
            object.__setattr__(self, "coeffs", as_coeffs(self.coeffs))
            if self.gamma is not None or self.dgamma is not None:
                raise ValueError("constant-table kinds must not carry callables")
            if self.locally_symmetric:
                raise ValueError("only analytic charts declare local symmetry")
        elif self.kind == KIND_ANALYTIC:
            if self.gamma is None or self.dgamma is None:
                raise ValueError("analytic kind requires gamma and dgamma callables")
            if self.coeffs is not None:
                raise ValueError("analytic kind must not carry a coefficient table")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def type_a(values, name: str = "") -> "ChristoffelField":
        return ChristoffelField(kind=KIND_A, coeffs=values, name=name)

    @staticmethod
    def type_b(values, name: str = "") -> "ChristoffelField":
        return ChristoffelField(kind=KIND_B, coeffs=values, name=name)

    @staticmethod
    def analytic(
        gamma, dgamma, name: str = "", *, locally_symmetric: bool = False
    ) -> "ChristoffelField":
        return ChristoffelField(kind=KIND_ANALYTIC, gamma=gamma, dgamma=dgamma, name=name,
                                locally_symmetric=locally_symmetric)

    def contains(self, p) -> bool:
        """True when the point lies in the field's coordinate chart."""
        if self.kind == KIND_B:
            return float(p[0]) > 0.0
        return True

    def require_point(self, p) -> None:
        if not self.contains(p):
            raise DomainError(
                f"point {tuple(float(c) for c in p)} outside the x1 > 0 chart of a kind-B field"
            )

    # Tables of kinds A and B built once per field.  cached_property stores
    # them in the instance dict, so they take no part in equality or hashing.

    @cached_property
    def _gamma_table(self) -> np.ndarray:
        """Read-only float Gamma at x1 = 1."""
        return _read_only(np.array([float(c) for c in self.coeffs])[_UNPACK])

    @cached_property
    def _exact_tables(self):
        """Exact (R, rho, N) ``ScaledTable``s, built by ``curvature._exact_tables``."""
        from .curvature import _exact_tables  # curvature.py imports this module

        return _exact_tables(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def christoffel_at(field: ChristoffelField, p) -> np.ndarray:
    """Connection coefficients at a point as a (2, 2, 2) array G[i, j, k].

    G[i, j, k] is the dx^k component of the covariant derivative of d/dx^j
    in the d/dx^i direction; the array is symmetric in (i, j).  For kind A
    the field's shared read-only table is returned.

    ``p`` may also be an (n, 2) array of points, which gives an (n, 2, 2, 2)
    array with the same values row by row.  NaN coordinates raise no error:
    a kind-B row with x1 = NaN gives NaN coefficients.
    """
    if isinstance(p, np.ndarray) and p.ndim == 2:
        return _christoffel_rows(field, p)
    if field.kind == KIND_ANALYTIC:
        packed = np.array(field.gamma(float(p[0]), float(p[1])), dtype=float)
        if packed.shape != (6,):
            raise ValueError("analytic gamma callable must return six values")
        return packed[_UNPACK]
    field.require_point(p)
    if field.kind == KIND_A:
        return field._gamma_table
    return field._gamma_table * (1.0 / float(p[0]))


def _christoffel_rows(field: ChristoffelField, p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    if field.kind == KIND_ANALYTIC:
        rows = list(map(field.gamma, *p.T.tolist()))
        if set(map(len, rows)) - {6}:
            raise ValueError("analytic gamma callable must return six values")
        # fromiter on the flat values: np.array on the tuples costs twice as much
        packed = np.fromiter(chain.from_iterable(rows), float, 6 * n).reshape(n, 6)
        return packed[:, _UNPACK]
    if field.kind == KIND_A:
        return np.repeat(field._gamma_table[np.newaxis], n, axis=0)
    if (p[:, 0] <= 0.0).any():
        raise DomainError("a point lies outside the x1 > 0 chart of a kind-B field")
    return field._gamma_table * (1.0 / p[:, 0:1, np.newaxis, np.newaxis])

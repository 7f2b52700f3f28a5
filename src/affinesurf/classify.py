"""Normal-form classification of locally symmetric charts.

Kind-B charts are classified by exact rational arithmetic: the covariant
derivative of Ricci is an exact table, the case split on the sign of c22_1
is exact, and the recovered shear/scale witness is exact whenever the scale
is rational (always true for inputs generated from a canonical model by a
rational change of coordinates).

Kind-A charts are classified exactly as well.  A non-flat locally symmetric
constant chart has Gamma(x, y) = q(x, y) * u for a rational vector u and a
rational symmetric form q, and q alone names the normal form: S2 when u is
q-null, S3 when q is definite, S1 otherwise.  The witness frame is built
from u and q: it is rational for S2 and needs one square root for S1 and
S3, so only that root's rounding can leave a nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curvature import nabla_ricci_table, ricci_table
from .errors import ClassificationInconclusiveError
from .fields import ChristoffelField, as_coeffs

# Wrapped by benchmarks/tracing.py; kind A is classified without a search.
least_squares = None

__all__ = [
    "ShearScale",
    "NormalForm",
    "shear_transform",
    "scale_transform",
    "pushforward",
    "classify_type_b",
    "classify_type_a",
]

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ShearScale:
    """Coordinate change (x1, x2) -> (x1, delta*x1 + gamma*x2).

    ``gamma`` is exact when the required scale is a rational square root,
    else a float.
    """

    delta: Fraction | float
    gamma: Fraction | float

    def matrix(self) -> tuple:
        return ((Fraction(1), Fraction(0)), (self.delta, self.gamma))

    def is_exact(self) -> bool:
        return isinstance(self.delta, Fraction) and isinstance(self.gamma, Fraction)


@dataclass(frozen=True)
class NormalForm:
    """Classification result.

    ``verdict`` is one of NotLocallySymmetric, Flat, H2, L2, S4, S5,
    TypeA_S1, TypeA_S2, TypeA_S3.  ``c`` carries the S4 parameter.  The
    witness maps the INPUT chart onto the canonical coefficients of the
    verdict: a ShearScale for kind B, a row-major 2x2 tuple for kind A.
    """

    verdict: str
    c: Fraction | None = None
    witness: ShearScale | tuple | None = None
    residual: Fraction | float = Fraction(0)


def shear_transform(coeffs, delta) -> tuple:
    """Coefficients after the unit shear (x1, x2) -> (x1, delta*x1 + x2)."""
    c11_1, c11_2, c12_1, c12_2, c22_1, c22_2 = coeffs
    d = delta
    return (
        c11_1 - 2 * d * c12_1 + d * d * c22_1,
        c11_2 + d * (c11_1 - 2 * c12_2) + d * d * (c22_2 - 2 * c12_1) + d ** 3 * c22_1,
        c12_1 - d * c22_1,
        c12_2 + d * (c12_1 - c22_2) - d * d * c22_1,
        c22_1,
        c22_2 + d * c22_1,
    )


def scale_transform(coeffs, gamma) -> tuple:
    """Coefficients after the axis scale (x1, x2) -> (x1, gamma*x2)."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    c11_1, c11_2, c12_1, c12_2, c22_1, c22_2 = coeffs
    g = gamma
    return (c11_1, g * c11_2, c12_1 / g, c12_2, c22_1 / (g * g), c22_2 / g)


def pushforward(coeffs, matrix) -> tuple:
    """Coefficients of the image chart under the linear map w = A x.

    Works elementwise over Fractions or floats.  For kind-B charts this is
    only chart-compatible when the first row of A is (1, 0), since the
    coefficient table is tied to the x1 factor.
    """
    (a, b), (c, d) = matrix[0], matrix[1]
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    inv = ((d / det, -b / det), (-c / det, a / det))
    gam = [[[coeffs[0], coeffs[1]], [coeffs[2], coeffs[3]]],
           [[coeffs[2], coeffs[3]], [coeffs[4], coeffs[5]]]]
    rows = (matrix[0], matrix[1])

    def entry(i, j, k):
        total = 0
        for ai in range(2):
            fa = inv[ai][i]
            if fa == 0:
                continue
            for bj in range(2):
                fb = inv[bj][j]
                if fb == 0:
                    continue
                for ck in range(2):
                    fc = rows[k][ck]
                    if fc == 0:
                        continue
                    total += fc * fa * fb * gam[ai][bj][ck]
        return total

    return (entry(0, 0, 0), entry(0, 0, 1), entry(0, 1, 0),
            entry(0, 1, 1), entry(1, 1, 0), entry(1, 1, 1))


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q <= 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


_CANON = {
    "H2": (Fraction(-1), Fraction(0), Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
    "L2": (Fraction(-1), Fraction(0), Fraction(0), Fraction(-1), Fraction(-1), Fraction(0)),
    "S5": (Fraction(-1), Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(0)),
    "S1": (Fraction(-1), Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(0)),
    "S2": (Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(0)),
    "S3": (Fraction(-1), Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0)),
}


def _finish_type_b(coeffs, verdict, delta, gamma, canonical, c=None) -> NormalForm:
    witness = ShearScale(delta=delta, gamma=gamma)
    image = pushforward(coeffs, witness.matrix())
    if witness.is_exact():
        if tuple(image) != tuple(canonical):
            raise AssertionError(
                f"exact witness failed to reach canonical form for {verdict}: {image}"
            )
        return NormalForm(verdict=verdict, c=c, witness=witness, residual=Fraction(0))
    resid = max(abs(float(u) - float(v)) for u, v in zip(image, canonical))
    return NormalForm(verdict=verdict, c=c, witness=witness, residual=resid)


def classify_type_b(values) -> NormalForm:
    """Classify a kind-B chart up to shear/scale changes of coordinates.

    The verdict is always exact: local symmetry, flatness, and the case
    split are rational decisions.  Witness recovery is exact unless the
    required x2 scale is an irrational square root, in which case the
    witness degrades to floats with a reported residual.
    """
    coeffs = as_coeffs(values)
    field = ChristoffelField.type_b(coeffs)
    if not nabla_ricci_table(field).is_zero():
        return NormalForm(verdict="NotLocallySymmetric")
    if ricci_table(field).is_zero():
        return NormalForm(verdict="Flat")
    c11_1, c11_2, c12_1, c12_2, c22_1, c22_2 = coeffs

    if c22_1 != 0:
        verdict = "H2" if c22_1 > 0 else "L2"
        gamma = _exact_sqrt(abs(c22_1))
        if gamma is not None:
            scaled = scale_transform(coeffs, gamma)
            # after scaling, c22_1 is +1 or -1; shear kills c22_2
            delta = -scaled[5] / scaled[4]
            return _finish_type_b(coeffs, verdict, delta, gamma, _CANON[verdict])
        gamma_f = math.sqrt(abs(float(c22_1)))
        scaled = scale_transform(tuple(float(v) for v in coeffs), gamma_f)
        delta_f = -scaled[5] / scaled[4]
        return _finish_type_b(coeffs, verdict, delta_f, gamma_f, _CANON[verdict])

    if c22_2 != 0:
        # A symmetric non-flat chart cannot sit in this branch: the exact
        # symmetry gate above excludes it.  Reaching here means the gates
        # above are inconsistent, so fail loudly rather than guess.
        raise ClassificationInconclusiveError(
            "c22_1 = 0 with c22_2 != 0 passed the symmetry gate unexpectedly"
        )

    # Remaining branch: c22_1 = c22_2 = 0.  The symmetry gate forces
    # c12_1 = 0 and c11_1 = -1, and non-flatness forces c12_2 != 0.
    if c12_1 != 0 or c11_1 != -1 or c12_2 == 0:
        raise ClassificationInconclusiveError("degenerate branch escaped the exact gates")

    if c12_2 != Fraction(-1, 2):
        delta = c11_2 / (1 + 2 * c12_2)
        canonical = (Fraction(-1), Fraction(0), Fraction(0), c12_2, Fraction(0), Fraction(0))
        return _finish_type_b(coeffs, "S4", delta, Fraction(1), canonical, c=c12_2)
    if c11_2 == 0:
        canonical = (Fraction(-1), Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(0))
        return _finish_type_b(coeffs, "S4", Fraction(0), Fraction(1), canonical, c=Fraction(-1, 2))
    return _finish_type_b(coeffs, "S5", Fraction(0), 1 / c11_2, _CANON["S5"])


def _line_factor(coeffs):
    """(q, u) with Gamma(x, y) = q(x, y) * u exactly, or None if none exists.

    u is the first nonzero Gamma(e_i, e_j) scaled to a leading entry 1, and
    q = (q11, q12, q22) reads that entry off each Gamma(e_i, e_j).
    """
    slots = (coeffs[0:2], coeffs[2:4], coeffs[4:6])
    lead = next(v for v in slots if any(v))
    k = 0 if lead[0] != 0 else 1
    u = (lead[0] / lead[k], lead[1] / lead[k])
    if any(v[j] != v[k] * u[j] for v in slots for j in range(2)):
        return None
    return tuple(v[k] for v in slots), u


def _q(q, x, y):
    return q[0] * x[0] * y[0] + q[1] * (x[0] * y[1] + x[1] * y[0]) + q[2] * x[1] * y[1]


def _root(r: Fraction):
    """Square root of a positive rational: exact when it is a rational square."""
    return _exact_sqrt(r) or math.sqrt(r)


def classify_type_a(
    values,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> NormalForm:
    """Classify a kind-A chart up to invertible linear changes of frame.

    Local symmetry and flatness are decided exactly, the verdict by the
    form q of Gamma(x, y) = q(x, y) * u (see the module docstring).  The
    witness maps the frame (f1, f2) onto (e1, e2): f1 = u / lambda with
    lambda = -q(u, u) (f1 = u for S2), f2 a null vector of q (S1, S2) or a
    q-orthogonal one (S3).  Its residual is the exact defect of pushing the
    input forward with it, 0 when the witness is rational.

    Raises ClassificationInconclusiveError when Gamma does not factor or
    the residual is not below ``residual_tol``.
    """
    coeffs = as_coeffs(values)
    field = ChristoffelField.type_a(coeffs)
    if not nabla_ricci_table(field).is_zero():
        return NormalForm(verdict="NotLocallySymmetric")
    if ricci_table(field).is_zero():
        return NormalForm(verdict="Flat")
    factor = _line_factor(coeffs)
    if factor is None:
        raise ClassificationInconclusiveError("Gamma of a symmetric chart has no line image")
    q, u = factor
    quu = _q(q, u, u)
    qu = (q[0] * u[0] + q[1] * u[1], q[1] * u[0] + q[2] * u[1])
    if quu == 0:
        name = "S2"
        # the other null direction of q, through e_k with q(u, e_k) != 0
        k = 0 if qu[0] != 0 else 1
        e = (1 - k, k)
        t = _q(q, e, e) / (2 * qu[k])
        f1 = u
        f2 = tuple((t * u[j] - e[j]) / (2 * qu[k]) for j in range(2))
    else:
        lam = -quu
        f1 = (u[0] / lam, u[1] / lam)
        w = (qu[1], -qu[0])  # q-orthogonal to u
        qww = _q(q, w, w)
        if q[1] * q[1] < q[0] * q[2]:
            name = "S3"
            s = _root(quu * qww)
            f2 = (w[0] / s, w[1] / s)
        else:
            name = "S1"
            # null vector w + s*u, scaled so that q(u, f2) = -1/2
            s = _root(-qww / quu)
            f2 = tuple(-(w[j] + s * u[j]) / (2 * s * quu) for j in range(2))
    det = f1[0] * f2[1] - f2[0] * f1[1]
    matrix = ((f2[1] / det, -f2[0] / det), (-f1[1] / det, f1[0] / det))
    # push forward in exact arithmetic (Fraction(float) is exact), so the
    # residual is the witness's own defect, free of cancellation in the sums
    image = pushforward(coeffs, tuple(tuple(Fraction(e) for e in row) for row in matrix))
    resid = float(max(abs(x - y) for x, y in zip(image, _CANON[name])))
    if not resid < residual_tol:
        raise ClassificationInconclusiveError(
            f"{name} witness leaves residual {resid:.3e}, not below {residual_tol:g}"
        )
    witness = tuple(tuple(float(e) for e in row) for row in matrix)
    return NormalForm(verdict=f"TypeA_{name}", witness=witness, residual=resid)

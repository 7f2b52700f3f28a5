"""Curvature and Ricci tables against finite-difference oracles.

The oracle differentiates the pointwise connection coefficients directly
with central differences and assembles

    R_ijk^l = d_i G_jk^l - d_j G_ik^l + G_is^l G_jk^s - G_js^l G_ik^s

without reusing any exact-table code, so a sign or index error in the table
builders cannot cancel against itself.  The frozen slot values for the
covariant Ricci derivative were expanded by hand from the same formula and
pin the slot convention: the FIRST index of N is the derivative direction.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesurf.catalog import get_model
from affinesurf.curvature import (
    ScaledTable,
    curvature_at,
    curvature_table,
    is_flat,
    is_locally_symmetric,
    nabla_ricci_at,
    nabla_ricci_table,
    ricci_at,
    ricci_symmetric_at,
    ricci_table,
)
from affinesurf.fields import ChristoffelField, as_coeffs, christoffel_at

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)

F = Fraction


def fd_curvature(field, p, h=1e-5):
    """Independent curvature oracle from differentiated coefficients."""
    x1, x2 = float(p[0]), float(p[1])
    dg = np.empty((2, 2, 2, 2))
    for d, (e1, e2) in enumerate(((h, 0.0), (0.0, h))):
        gp = christoffel_at(field, (x1 + e1, x2 + e2))
        gm = christoffel_at(field, (x1 - e1, x2 - e2))
        dg[d] = (gp - gm) / (2.0 * h)
    g = christoffel_at(field, p)
    r = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = dg[i, j, k, l] - dg[j, i, k, l]
                    for s in range(2):
                        val += g[i, s, l] * g[j, k, s] - g[j, s, l] * g[i, k, s]
                    r[i, j, k, l] = val
    return r


def fd_nabla_ricci(field, p, h=1e-5):
    """Independent covariant-derivative oracle differentiating Ricci."""
    x1, x2 = float(p[0]), float(p[1])
    g = christoffel_at(field, p)
    rho = ricci_at(field, p)
    n = np.empty((2, 2, 2))
    for k, (e1, e2) in enumerate(((h, 0.0), (0.0, h))):
        drho = (
            ricci_at(field, (x1 + e1, x2 + e2)) - ricci_at(field, (x1 - e1, x2 - e2))
        ) / (2.0 * h)
        for i in range(2):
            for j in range(2):
                val = drho[i, j]
                for s in range(2):
                    val -= g[k, i, s] * rho[s, j] + g[k, j, s] * rho[i, s]
                n[k, i, j] = val
    return n


SAMPLE_POINTS = ((1.0, 0.0), (0.5, -2.0), (3.0, 1.7), (1.25, 0.3))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[rationals] * 6))
def test_kind_b_curvature_matches_fd_oracle(coeffs):
    field = ChristoffelField.type_b(coeffs)
    for p in SAMPLE_POINTS:
        exact = curvature_at(field, p)
        oracle = fd_curvature(field, p)
        assert np.max(np.abs(exact - oracle)) < 1e-6 * (1.0 + np.max(np.abs(exact)))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[rationals] * 6))
def test_kind_b_nabla_ricci_matches_fd_oracle(coeffs):
    field = ChristoffelField.type_b(coeffs)
    for p in SAMPLE_POINTS:
        exact = nabla_ricci_at(field, p)
        oracle = fd_nabla_ricci(field, p)
        assert np.max(np.abs(exact - oracle)) < 1e-5 * (1.0 + np.max(np.abs(exact)))


def test_analytic_curvature_matches_fd_oracle():
    field = ChristoffelField.analytic(
        lambda x1, x2: (
            np.sin(x1),
            x1 * x2,
            0.25 * x2 * x2,
            np.cos(x2),
            x1 + x2,
            0.5 * x1 * x1,
        ),
        lambda x1, x2: (
            (np.cos(x1), 0.0),
            (x2, x1),
            (0.0, 0.5 * x2),
            (0.0, -np.sin(x2)),
            (1.0, 1.0),
            (x1, 0.0),
        ),
    )
    for p in SAMPLE_POINTS:
        exact = curvature_at(field, p)
        oracle = fd_curvature(field, p)
        assert np.max(np.abs(exact - oracle)) < 1e-6 * (1.0 + np.max(np.abs(exact)))


@given(st.tuples(*[rationals] * 6))
def test_curvature_antisymmetry_and_ricci_trace(coeffs):
    field = ChristoffelField.type_a(coeffs)
    r = curvature_table(field).table
    for k in range(2):
        for l in range(2):
            assert r[0][0][k][l] == 0 and r[1][1][k][l] == 0
            assert r[0][1][k][l] == -r[1][0][k][l]
    rho = ricci_table(field).table
    for j in range(2):
        for k in range(2):
            assert rho[j][k] == sum(r[i][j][k][i] for i in range(2))


@given(st.tuples(*[rationals] * 6), st.fractions(min_value=1, max_value=5, max_denominator=4))
def test_kind_a_homogeneity(coeffs, lam):
    """Scaling constant coefficients by lam scales curvature by lam**2."""
    base = curvature_table(ChristoffelField.type_a(coeffs)).table
    scaled = curvature_table(
        ChristoffelField.type_a(tuple(lam * c for c in coeffs))
    ).table
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert scaled[i][j][k][l] == lam * lam * base[i][j][k][l]


@pytest.mark.parametrize("kind", ["A", "B"])
@given(
    coeffs=st.tuples(*[rationals] * 6),
    x1=st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=24),
)
def test_curvature_at_matches_exact_fraction_oracle(kind, coeffs, x1):
    # oracle: the exact table times x1**(-power), evaluated in Fraction
    # arithmetic at the exact value of the float point, rounded once
    field = ChristoffelField(kind=kind, coeffs=as_coeffs(coeffs))
    x1f = float(x1)
    got = curvature_at(field, (x1f, 2.5))
    exact_table = curvature_table(field)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        exact = exact_table.table[i][j][k][l] / Fraction(x1f) ** exact_table.power
        gap = abs(Fraction(float(got[i, j, k, l])) - exact)
        assert gap <= 2 * Fraction(float(np.spacing(abs(float(exact))))), (i, j, k, l)


@pytest.mark.parametrize("kind", ["A", "B"])
@given(
    coeffs=st.tuples(*[rationals] * 6),
    x1=st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=24),
)
def test_nabla_ricci_at_matches_exact_fraction_oracle(kind, coeffs, x1):
    # oracle: the exact table times x1**(-power), evaluated in Fraction
    # arithmetic at the exact value of the float point, rounded once
    field = ChristoffelField(kind=kind, coeffs=as_coeffs(coeffs))
    x1f = float(x1)
    got = nabla_ricci_at(field, (x1f, 2.5))
    exact_table = nabla_ricci_table(field)
    for k, i, j in np.ndindex(2, 2, 2):
        exact = exact_table.table[k][i][j] / Fraction(x1f) ** exact_table.power
        gap = abs(Fraction(float(got[k, i, j])) - exact)
        assert gap <= 2 * Fraction(float(np.spacing(abs(float(exact))))), (k, i, j)


def test_nabla_ricci_float_table_is_cached_outside_equality_and_hash():
    used = ChristoffelField.type_a((1, 2, 0, 1, 3, 0))
    n = nabla_ricci_at(used, (0.0, 0.0))
    assert nabla_ricci_at(used, (5.0, 5.0)) is n
    with pytest.raises(ValueError):
        n[0, 1, 0] = 99.0
    fresh = ChristoffelField.type_a((1, 2, 0, 1, 3, 0))
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_exact_ricci_table_is_built_once_outside_equality_and_hash():
    used = ChristoffelField.type_b((-1, 0, 0, -1, 1, 0))
    rho = ricci_table(used)
    assert ricci_table(used) is rho
    assert nabla_ricci_table(used).is_zero()
    assert ricci_table(used) is rho
    fresh = ChristoffelField.type_b((-1, 0, 0, -1, 1, 0))
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert ricci_table(fresh) == rho


def test_exact_tables_are_built_once_per_field(monkeypatch):
    from affinesurf import curvature
    from affinesurf.jacobi import conjugate_points

    built = []
    original = curvature.curvature_table
    monkeypatch.setattr(
        curvature, "curvature_table", lambda field: built.append(field) or original(field)
    )
    l2 = get_model("L2").field
    for _ in range(3):
        assert is_locally_symmetric(l2) and not is_flat(l2)
        assert conjugate_points(l2, (1.0, 0.0), (0.0, 1.0), 3.0) == []
        curvature_at(l2, (1.5, 0.2))
        nabla_ricci_at(l2, (1.5, 0.2))
    assert built == [l2]


def _two_dim_identity(rho):
    """R[i][j][k][l] = rho[j][k] delta_il - rho[i][k] delta_jl."""
    return tuple(
        tuple(
            tuple(
                tuple(rho[j][k] * (i == l) - rho[i][k] * (j == l) for l in range(2))
                for k in range(2)
            )
            for j in range(2)
        )
        for i in range(2)
    )


@given(st.tuples(*[rationals] * 6), st.booleans())
def test_two_dim_curvature_is_determined_by_ricci_exactly(coeffs, kind_b):
    field = (ChristoffelField.type_b if kind_b else ChristoffelField.type_a)(coeffs)
    r, rho = curvature_table(field), ricci_table(field)
    assert r.power == rho.power
    assert r.table == _two_dim_identity(rho.table)


@settings(max_examples=200)
@given(
    st.sampled_from(["pseudosphere", "S3~"]),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_two_dim_curvature_is_determined_by_ricci_on_analytic_charts(name, x1, x2):
    field = get_model(name).field
    r = curvature_at(field, (x1, x2))
    want = np.array(_two_dim_identity(ricci_at(field, (x1, x2)).tolist()))
    assert np.max(np.abs(r - want)) <= 1e-12 * (1.0 + np.max(np.abs(r)))


def test_kind_a_curvature_is_shared_and_read_only():
    field = ChristoffelField.type_a((1, 2, 0, 1, 3, 0))
    r = curvature_at(field, (0.0, 0.0))
    assert curvature_at(field, (5.0, 5.0)) is r
    with pytest.raises(ValueError):
        r[0, 1, 0, 0] = 99.0


def test_scaled_table_evaluation():
    t = ScaledTable(table=((F(1), F(0)), (F(0), F(-2))), power=2)
    assert not t.is_zero()
    assert np.allclose(t.at((2.0, 9.0)), np.array([[0.25, 0.0], [0.0, -0.5]]))
    assert ScaledTable(table=((F(0), F(0)), (F(0), F(0))), power=3).is_zero()


# Frozen hand-expanded slot values of N[k][i][j] for kind-B charts.  Each
# entry is (coeffs, slot, expected leading value); the exact table carries
# the (x1)**-3 scale separately.
HAND_CHECKED_SLOTS = [
    # c22_1 = 1, c22_2 = 0 branch: N[1][1][1] = 2 c11_2 + c12_1 - 2 c12_1 c12_2
    ((F(2), F(7), F(3), F(5), F(1), F(0)), (1, 1, 1), F(-13)),
    # same branch with c11_2 chosen to kill N[1][1][1]:
    # N[1][1][0] = 2 c12_2 (-c11_1 + c12_1**2 + c12_2)
    ((F(2), F(3) * F(5) - F(3, 2), F(3), F(5), F(1), F(0)), (1, 1, 0), F(120)),
    # additionally c11_1 = c12_1**2 + c12_2: N[0][1][1] = 2 (1 + c12_2)
    ((F(14), F(27, 2), F(3), F(5), F(1), F(0)), (0, 1, 1), F(12)),
    # and N[1][0][1] = -c12_1**2
    ((F(14), F(27, 2), F(3), F(5), F(1), F(0)), (1, 0, 1), F(-9)),
    # c22_1 = 0, c22_2 = 1 branch: N[1][1][1] = 2 (c12_1 - 1) c12_1
    ((F(2), F(7), F(3), F(5), F(0), F(1)), (1, 1, 1), F(12)),
    # same branch, c12_1 = 1: N[1][0][1] = -2 (c12_2 + 1), N[0][1][1] = -2 c12_2
    ((F(2), F(7), F(1), F(5), F(0), F(1)), (1, 0, 1), F(-12)),
    ((F(2), F(7), F(1), F(5), F(0), F(1)), (0, 1, 1), F(-10)),
    # same branch, c12_1 = 0: N[1][0][1] = -1 independent of the free slots
    ((F(2), F(7), F(0), F(5), F(0), F(1)), (1, 0, 1), F(-1)),
]


@pytest.mark.parametrize("coeffs,slot,expected", HAND_CHECKED_SLOTS)
def test_nabla_ricci_frozen_slots(coeffs, slot, expected):
    t = nabla_ricci_table(ChristoffelField.type_b(coeffs))
    assert t.power == 3
    k, i, j = slot
    assert t.table[k][i][j] == expected


def test_nabla_ricci_concentrates_when_c22_and_c12_1_vanish():
    # with c22_* = 0 and c12_1 = 0 only N[0][0][0] = -2 (1 + c11_1) rho_11 survives
    coeffs = (F(2), F(7), F(0), F(5), F(0), F(0))
    field = ChristoffelField.type_b(coeffs)
    rho = ricci_table(field).table
    n = nabla_ricci_table(field).table
    assert n[0][0][0] == -2 * (1 + F(2)) * rho[0][0] == F(60)
    assert all(
        n[k][i][j] == 0
        for k in range(2)
        for i in range(2)
        for j in range(2)
        if (k, i, j) != (0, 0, 0)
    )


def test_pointwise_kind_b_scaling():
    coeffs = (F(2), F(7), F(3), F(5), F(1), F(0))
    field = ChristoffelField.type_b(coeffs)
    t = nabla_ricci_table(field)
    for x1 in (0.5, 1.0, 2.0):
        assert np.allclose(nabla_ricci_at(field, (x1, 0.3)), t.as_array() / x1 ** 3)


def test_ricci_symmetric_at_symmetrizes():
    field = ChristoffelField.type_a((1, 2, 0, 1, 3, 0))
    s = ricci_symmetric_at(field, (0.0, 0.0))
    assert np.allclose(s, s.T)


def test_flatness_and_symmetry_flags():
    flat = ChristoffelField.type_a((0, 0, 0, 0, 0, 0))
    assert is_flat(flat) and is_locally_symmetric(flat)
    curved = ChristoffelField.type_b((-1, 0, 0, -1, 1, 0))
    assert not is_flat(curved) and is_locally_symmetric(curved)
    generic = ChristoffelField.type_b((1, 1, 0, 0, 1, 0))
    assert not is_locally_symmetric(generic)


def test_analytic_symmetry_flags():
    field = ChristoffelField.analytic(
        lambda x1, x2: (0.0, 0.0, 0.0, 0.0, x1, 0.0),
        lambda x1, x2: ((0.0, 0.0),) * 4 + ((1.0, 0.0), (0.0, 0.0)),
    )
    assert is_locally_symmetric(field)
    assert not is_flat(field)


# The exact tables are built on integer numerators over a common
# denominator.  This reference feeds the shared tensor loops plain Fraction
# tables instead, with the exact derivative of the (x1)**(-p) scaling.
def _fraction_tables(coeffs, kind_b):
    from affinesurf.curvature import _nabla_ricci, _riemann
    from affinesurf.fields import coeffs_to_tensor

    q = int(kind_b)
    g = coeffs_to_tensor(coeffs)

    def scale(node, c):
        return [scale(x, c) for x in node] if isinstance(node, list) else c * node

    def d(t, power):
        return [scale(t, -power), scale(t, 0)]

    r = _riemann(g, d(g, q))
    rho = [[r[0][j][k][0] + r[1][j][k][1] for k in range(2)] for j in range(2)]
    return r, rho, _nabla_ricci(g, rho, d(rho, 2 * q))


def _nested(node):
    return tuple(_nested(c) for c in node) if isinstance(node, (list, tuple)) else node


def _leaves(node):
    if isinstance(node, tuple):
        for c in node:
            yield from _leaves(c)
    else:
        yield node


wide_rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-8, max_value=8, max_denominator=10**6)
)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[wide_rationals] * 6), st.booleans())
def test_exact_tables_match_fraction_reference(coeffs, kind_b):
    field = (ChristoffelField.type_b if kind_b else ChristoffelField.type_a)(coeffs)
    tables = (curvature_table(field), ricci_table(field), nabla_ricci_table(field))
    q = int(kind_b)
    for got, want, power in zip(tables, _fraction_tables(as_coeffs(coeffs), kind_b), (2, 2, 3)):
        assert got.power == power * q
        assert got.table == _nested(want)
        # the CLI prints str() of these entries, so they must stay Fractions
        assert all(type(v) is F for v in _leaves(got.table))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(*[wide_rationals] * 6),
    st.tuples(*[rationals] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
)
def test_kind_a_ricci_is_a_tensor_under_frame_changes(coeffs, entries):
    from affinesurf.classify import pushforward

    a, b, c, d = entries
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    rho = ricci_table(ChristoffelField.type_a(coeffs)).table
    moved = ricci_table(ChristoffelField.type_a(pushforward(coeffs, ((a, b), (c, d))))).table
    want = tuple(
        tuple(
            sum(inv[p][i] * inv[s][j] * rho[p][s] for p in range(2) for s in range(2))
            for j in range(2)
        )
        for i in range(2)
    )
    assert moved == want

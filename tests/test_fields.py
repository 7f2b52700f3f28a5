"""Coefficient chart construction, packing order, and domain handling."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinesurf.errors import DomainError
from affinesurf.fields import (
    COEFF_NAMES,
    ChristoffelField,
    Point2,
    as_coeffs,
    christoffel_at,
    coeffs_to_tensor,
    tensor_to_coeffs,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
chart_x1 = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=24)


def test_coeff_names_order():
    assert COEFF_NAMES == ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")


def test_as_coeffs_accepts_exact_inputs():
    out = as_coeffs([1, Fraction(-1, 2), "3/7", 0, -2, "5"])
    assert out == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(3, 7),
        Fraction(0),
        Fraction(-2),
        Fraction(5),
    )


def test_as_coeffs_rejects_floats_and_bad_length():
    with pytest.raises(TypeError):
        as_coeffs([0.5, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        as_coeffs([1, 2, 3])


@given(st.tuples(*[rationals] * 6))
def test_pack_unpack_round_trip(coeffs):
    assert tensor_to_coeffs(coeffs_to_tensor(coeffs)) == coeffs


def test_packing_order_matches_slots():
    # distinct primes per slot pin the (i, j, k) -> slot map
    g = christoffel_at(ChristoffelField.type_a((2, 3, 5, 7, 11, 13)), (0.0, 0.0))
    assert g[0, 0, 0] == 2 and g[0, 0, 1] == 3
    assert g[0, 1, 0] == 5 and g[0, 1, 1] == 7
    assert g[1, 1, 0] == 11 and g[1, 1, 1] == 13
    assert np.array_equal(g[0, 1], g[1, 0])


@given(st.tuples(*[rationals] * 6), st.floats(min_value=0.25, max_value=8.0))
def test_kind_b_scales_like_inverse_x1(coeffs, x1):
    fa = ChristoffelField.type_a(coeffs)
    fb = ChristoffelField.type_b(coeffs)
    a = christoffel_at(fa, (x1, -1.3))
    b = christoffel_at(fb, (x1, -1.3))
    assert np.allclose(b, a / x1, rtol=0.0, atol=1e-14 * (1.0 + np.max(np.abs(a))))


@pytest.mark.parametrize("kind,power", [("A", 0), ("B", 1)])
@given(coeffs=st.tuples(*[rationals] * 6), x1=chart_x1)
def test_christoffel_at_matches_exact_fraction_oracle(kind, power, coeffs, x1):
    # oracle: Gamma = table / x1**power in Fraction arithmetic at the exact
    # value of the float point, rounded once at the end
    field = ChristoffelField(kind=kind, coeffs=as_coeffs(coeffs))
    x1f = float(x1)
    got = christoffel_at(field, (x1f, -0.7))
    table = coeffs_to_tensor(field.coeffs)
    for i, j, k in np.ndindex(2, 2, 2):
        exact = table[i][j][k] / Fraction(x1f) ** power
        gap = abs(Fraction(float(got[i, j, k])) - exact)
        assert gap <= 2 * Fraction(float(np.spacing(abs(float(exact))))), (i, j, k)


def test_kind_a_table_is_shared_and_read_only():
    field = ChristoffelField.type_a((2, 3, 5, 7, 11, 13))
    g = christoffel_at(field, (0.0, 0.0))
    assert christoffel_at(field, (4.0, -1.0)) is g
    with pytest.raises(ValueError):
        g[0, 0, 0] = 99.0
    assert christoffel_at(field, (0.0, 0.0))[0, 0, 0] == 2.0


def test_float_tables_leave_equality_and_hash_alone():
    used = ChristoffelField.type_b((1, 0, "1/2", 0, -1, 3), name="b")
    christoffel_at(used, (2.0, 0.0))
    fresh = ChristoffelField.type_b((1, 0, "1/2", 0, -1, 3), name="b")
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_kind_b_domain_is_right_half_plane():
    f = ChristoffelField.type_b((1, 0, 0, 0, 0, 0))
    assert f.contains((0.1, -5.0))
    assert not f.contains((0.0, 0.0))
    assert not f.contains((-1.0, 0.0))
    with pytest.raises(DomainError):
        christoffel_at(f, (-1.0, 0.0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        ChristoffelField(kind="A", coeffs=None)
    with pytest.raises(ValueError):
        ChristoffelField(kind="analytic", gamma=None, dgamma=None)
    with pytest.raises(ValueError):
        ChristoffelField(kind="Q", coeffs=as_coeffs((0,) * 6))


def test_analytic_field_evaluates_callables():
    f = ChristoffelField.analytic(
        lambda x1, x2: (x1, x2, 0.0, x1 * x2, 0.0, 1.0),
        lambda x1, x2: ((1, 0), (0, 1), (0, 0), (x2, x1), (0, 0), (0, 0)),
    )
    g = christoffel_at(f, (2.0, 3.0))
    assert g[0, 0, 0] == 2.0 and g[0, 0, 1] == 3.0
    assert g[0, 1, 1] == 6.0 and g[1, 1, 1] == 1.0


def test_point_and_vector_tuples():
    p = Point2(1.0, 2.0)
    assert p.x1 == 1.0 and p[1] == 2.0


def test_direct_construction_keeps_coefficients_exact():
    # the exact tables sum integer numerators over the coefficients' common
    # denominator, so a kind-A/B field holds Fractions however it was built
    field = ChristoffelField(kind="B", coeffs=(-1, 0, 0, "-1", Fraction(1), 0))
    assert field.coeffs == ChristoffelField.type_b((-1, 0, 0, -1, 1, 0)).coeffs
    assert all(type(c) is Fraction for c in field.coeffs)
    with pytest.raises(TypeError):
        ChristoffelField(kind="A", coeffs=(0.5, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError):
        ChristoffelField(kind="A", coeffs=(0, 0, 0))

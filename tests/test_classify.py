"""Normal-form classification: exact witnesses and orbit round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesurf.catalog import get_model
from affinesurf.classify import (
    NormalForm,
    ShearScale,
    classify_type_a,
    classify_type_b,
    pushforward,
    scale_transform,
    shear_transform,
)
from affinesurf.errors import ClassificationInconclusiveError

F = Fraction
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
nonzero_rationals = rationals.filter(lambda q: q != 0)


@given(st.tuples(*[rationals] * 6), rationals)
def test_shear_formulas_match_generic_pushforward(coeffs, delta):
    m = ((F(1), F(0)), (delta, F(1)))
    assert shear_transform(coeffs, delta) == pushforward(coeffs, m)


@given(st.tuples(*[rationals] * 6), nonzero_rationals)
def test_scale_formulas_match_generic_pushforward(coeffs, gamma):
    m = ((F(1), F(0)), (F(0), gamma))
    assert scale_transform(coeffs, gamma) == pushforward(coeffs, m)


def test_single_slot_shear_example():
    # shear by 2 of the chart whose only coefficient is c22_1 = 1
    out = shear_transform((0, 0, 0, 0, 1, 0), F(2))
    assert out == (F(4), F(8), F(-2), F(-4), 1, F(2))


def test_shear_scale_witness_matrix():
    w = ShearScale(delta=F(3), gamma=F(-1, 2))
    assert w.matrix() == ((F(1), F(0)), (F(3), F(-1, 2)))
    assert w.is_exact()
    assert not ShearScale(delta=0.5, gamma=1.0).is_exact()


def test_pushforward_rejects_singular():
    with pytest.raises(ValueError):
        pushforward((1, 0, 0, 0, 0, 0), ((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(ValueError):
        scale_transform((1, 0, 0, 0, 0, 0), 0)


@pytest.mark.parametrize("name", ["H2", "L2", "S5"])
def test_canonical_kind_b_models_are_fixed_points(name):
    nf = classify_type_b(get_model(name).field.coeffs)
    assert nf.verdict == name
    assert nf.residual == 0
    assert nf.witness == ShearScale(delta=F(0), gamma=F(1))


def test_canonical_s4_fixed_points():
    nf = classify_type_b(get_model("S4", c=F(3, 4)).field.coeffs)
    assert nf.verdict == "S4" and nf.c == F(3, 4) and nf.residual == 0
    nf = classify_type_b(get_model("S4", c=F(-1, 2)).field.coeffs)
    assert nf.verdict == "S4" and nf.c == F(-1, 2)


def test_kind_b_exact_round_trips():
    rng = random.Random(20240)

    def rational():
        return F(rng.randint(-8, 8), rng.randint(1, 6))

    done = 0
    while done < 500:
        name = rng.choice(["H2", "L2", "S5"])
        gamma = rational()
        if gamma == 0:
            continue
        delta = rational()
        moved = pushforward(
            get_model(name).field.coeffs, ((F(1), F(0)), (delta, gamma))
        )
        nf = classify_type_b(moved)
        assert nf.verdict == name, (name, delta, gamma, nf.verdict)
        assert nf.residual == 0 and nf.witness.is_exact()
        # the witness must land exactly on the canonical table
        assert (
            pushforward(moved, nf.witness.matrix())
            == get_model(name).field.coeffs
        )
        done += 1


def test_s4_parameter_is_a_shear_invariant():
    rng = random.Random(7)
    for _ in range(80):
        c = F(rng.randint(-8, 8), rng.randint(1, 6))
        if c == 0:
            continue
        delta = F(rng.randint(-8, 8), rng.randint(1, 6))
        moved = pushforward(
            get_model("S4", c=c).field.coeffs, ((F(1), F(0)), (delta, F(1)))
        )
        nf = classify_type_b(moved)
        assert nf.verdict == "S4" and nf.c == c, (c, delta, nf)


def test_s4_half_and_s5_are_distinct_orbits():
    # every shear fixes the c = -1/2 member, so it can never reach S5
    base = get_model("S4", c=F(-1, 2)).field.coeffs
    for delta in (F(1), F(-3), F(2, 7)):
        assert pushforward(base, ((F(1), F(0)), (delta, F(1)))) == base
    # S5 carries the extra c11_2 slot; classification recovers the scale
    moved = pushforward(get_model("S5").field.coeffs, ((F(1), F(0)), (F(0), F(4))))
    nf = classify_type_b(moved)
    assert nf.verdict == "S5" and nf.witness.gamma == F(1, 4)


def test_irrational_scale_falls_back_to_float_witness():
    nf = classify_type_b((F(-1), F(0), F(0), F(-1), F(-2), F(0)))
    assert nf.verdict == "L2"
    assert not nf.witness.is_exact()
    assert nf.witness.gamma == pytest.approx(np.sqrt(2.0))
    assert nf.residual < 1e-12


def test_kind_b_rejections():
    assert classify_type_b((0, 0, 0, 0, 0, 0)).verdict == "Flat"
    assert classify_type_b((1, 2, 0, 1, 3, 0)).verdict == "NotLocallySymmetric"


def test_branch_without_c22_1_is_never_symmetric_unless_flat():
    """Enumerate charts with c22_1 = 0, c22_2 != 0 over a rational grid.

    By the structure of the covariant Ricci derivative no non-flat locally
    symmetric chart lives in this branch, so classification must always
    return NotLocallySymmetric or Flat and never reach a model verdict.
    """
    grid = (F(-1), F(0), F(1), F(1, 2))
    for c11_1 in grid:
        for c11_2 in grid:
            for c12_1 in grid:
                for c12_2 in grid:
                    for c22_2 in (F(1), F(-2), F(1, 2)):
                        nf = classify_type_b(
                            (c11_1, c11_2, c12_1, c12_2, F(0), c22_2)
                        )
                        assert nf.verdict in ("NotLocallySymmetric", "Flat")


@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
def test_canonical_kind_a_models(name):
    nf = classify_type_a(get_model(name).field.coeffs)
    assert nf.verdict == f"TypeA_{name}"
    assert nf.residual == 0
    assert nf.witness == ((1.0, 0.0), (0.0, 1.0))


def _random_gl2(rng):
    while True:
        m = tuple(
            tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
            for _ in range(2)
        )
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def test_kind_a_round_trips_under_gl2():
    rng = random.Random(11)
    for _ in range(200):
        name = rng.choice(["S1", "S2", "S3"])
        moved = pushforward(get_model(name).field.coeffs, _random_gl2(rng))
        nf = classify_type_a(moved)
        assert nf.verdict == f"TypeA_{name}", (name, moved, nf.verdict)
        # S2's witness is rational; the one square root S1 and S3 need is
        # rational too for a rational image of the canonical table
        assert nf.residual == 0
        # witness actually maps the input onto the canonical table
        got = pushforward(tuple(float(v) for v in moved), nf.witness)
        target = get_model(name).field.coeffs
        assert max(abs(g - float(v)) for g, v in zip(got, target)) < 1e-8


def test_irrational_kind_a_witness_is_float_with_residual():
    # Gamma(x, y) = q(x, y) * (1, 2) with q = diag(1, 1/2): S3, and the
    # q-orthogonal unit vector needs sqrt(2)
    coeffs = (F(1), F(2), F(0), F(0), F(1, 2), F(1))
    nf = classify_type_a(coeffs)
    assert nf.verdict == "TypeA_S3"
    assert 0 < nf.residual < 1e-12
    got = pushforward(tuple(float(v) for v in coeffs), nf.witness)
    target = get_model("S3").field.coeffs
    assert max(abs(g - float(v)) for g, v in zip(got, target)) < 1e-12


gl2_frames = st.tuples(st.tuples(rationals, rationals), st.tuples(rationals, rationals)).filter(
    lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
)
KIND_A_CASES = [
    (get_model("S1").field.coeffs, "TypeA_S1"),
    (get_model("S2").field.coeffs, "TypeA_S2"),
    (get_model("S3").field.coeffs, "TypeA_S3"),
    ((F(1), F(2), F(0), F(0), F(1, 2), F(1)), "TypeA_S3"),
    ((F(1), F(0), F(0), F(0), F(0), F(1)), "Flat"),
    ((F(1), F(1), F(0), F(0), F(1), F(0)), "NotLocallySymmetric"),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KIND_A_CASES), gl2_frames)
def test_kind_a_verdict_is_invariant_under_gl2_frames(case, frame):
    coeffs, verdict = case
    nf = classify_type_a(pushforward(coeffs, frame))
    assert nf.verdict == verdict
    if nf.witness is not None:
        assert nf.residual < 1e-9


def test_kind_a_makes_no_numeric_search(monkeypatch):
    from affinesurf import classify

    def boom(*args, **kwargs):
        raise AssertionError("kind-A classification called least_squares")

    monkeypatch.setattr(classify, "least_squares", boom)
    rng = random.Random(5)
    for coeffs, verdict in KIND_A_CASES:
        assert classify_type_a(pushforward(coeffs, _random_gl2(rng))).verdict == verdict


def test_classification_builds_one_curvature_table(monkeypatch):
    from affinesurf import curvature

    built = []
    original = curvature.curvature_table
    monkeypatch.setattr(
        curvature, "curvature_table", lambda field: built.append(field) or original(field)
    )
    assert classify_type_a(get_model("S3").field.coeffs).verdict == "TypeA_S3"
    assert classify_type_b(get_model("H2").field.coeffs).verdict == "H2"
    assert len(built) == 2


def test_kind_a_rejections():
    assert classify_type_a((0, 0, 0, 0, 0, 0)).verdict == "Flat"
    # product of two flat line connections is flat even with nonzero slots
    assert classify_type_a((1, 0, 0, 0, 0, 1)).verdict == "Flat"
    assert classify_type_a((1, 1, 0, 0, 1, 0)).verdict == "NotLocallySymmetric"


def test_normal_form_dataclass_defaults():
    nf = NormalForm(verdict="Flat")
    assert nf.c is None and nf.witness is None and nf.residual == 0

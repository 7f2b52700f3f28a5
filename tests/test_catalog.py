"""Canonical model catalog: frozen tensors, metrics, and spec strings."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinesurf.catalog import (
    MODEL_NAMES,
    format_model_spec,
    get_model,
    model_metric,
    parse_model_spec,
)
from affinesurf.curvature import (
    _analytic_grid,
    is_flat,
    is_locally_symmetric,
    nabla_ricci_at,
    ricci_at,
    ricci_table,
)
from affinesurf.errors import (
    InvalidParameterError,
    NoMetricError,
    UnknownModelError,
)
from affinesurf.fields import ChristoffelField, christoffel_at

F = Fraction

# (name, ricci table, scale power, complete flag)
FROZEN = [
    ("S1", ((F(0), F(0)), (F(0), F(-1, 4))), 0, False),
    ("S2", ((F(0), F(0)), (F(0), F(-1, 4))), 0, True),
    ("S3", ((F(0), F(0)), (F(0), F(1))), 0, False),
    ("S5", ((F(-1, 4), F(0)), (F(0), F(0))), 2, True),
    ("H2", ((F(-1), F(0)), (F(0), F(-1))), 2, True),
    ("L2", ((F(-1), F(0)), (F(0), F(1))), 2, False),
    ("flat", ((F(0), F(0)), (F(0), F(0))), 0, True),
]


@pytest.mark.parametrize("name,rho,power,complete", FROZEN)
def test_frozen_ricci_tables(name, rho, power, complete):
    model = get_model(name)
    t = ricci_table(model.field)
    assert t.table == rho
    assert t.power == power
    assert model.complete is complete


def test_s4_family():
    model = get_model("S4", c=F(3, 4))
    t = ricci_table(model.field)
    assert t.table == ((F(-9, 16), F(0)), (F(0), F(0)))
    assert t.power == 2
    assert model.complete
    with pytest.raises(InvalidParameterError):
        get_model("S4")
    with pytest.raises(InvalidParameterError):
        get_model("S4", c=0)
    with pytest.raises(InvalidParameterError):
        get_model("L2", c=1)


@pytest.mark.parametrize("name", [n for n in MODEL_NAMES if n != "S4"])
def test_static_models_are_built_once(name):
    assert get_model(name) is get_model(name)
    assert parse_model_spec(name) is get_model(name)


def test_every_model_is_locally_symmetric():
    for name in MODEL_NAMES:
        model = get_model(name, c=F(-2, 3)) if name == "S4" else get_model(name)
        assert is_locally_symmetric(model.field), name
        assert is_flat(model.field) is (name == "flat"), name


# Analytic charts that declare nabla rho = 0, so that conjugate_points gives
# them the closed form n pi / sqrt(kappa) instead of the numeric sweep.
MARKED = [n for n in MODEL_NAMES if n != "S4" and get_model(n).field.locally_symmetric]


def test_the_pseudosphere_and_s3t_are_the_marked_charts():
    assert MARKED == ["S3~", "pseudosphere"]
    with pytest.raises(ValueError, match="only analytic"):
        ChristoffelField(kind="A", coeffs=(0, 0, 0, 0, 0, 0), locally_symmetric=True)


def _assert_parallel_ricci(field, p):
    # the five-point stencil of nabla_ricci_at leaves about 1e-11 of rho,
    # which grows like cosh(u)**2 on the pseudosphere
    scale = max(1.0, float(np.max(np.abs(ricci_at(field, p)))))
    assert float(np.max(np.abs(nabla_ricci_at(field, p)))) <= 1e-9 * scale, p


@pytest.mark.parametrize("name", MARKED)
def test_marked_charts_have_parallel_ricci_on_the_symmetry_grid(name):
    for p in _analytic_grid():
        _assert_parallel_ricci(get_model(name).field, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MARKED), st.floats(min_value=-12.0, max_value=12.0),
       st.floats(min_value=-1e3, max_value=1e3))
def test_marked_charts_have_parallel_ricci_outside_the_symmetry_grid(name, x1, x2):
    # the grid spans [-2, 2] x [-2, 2]
    assume(max(abs(x1), abs(x2)) > 2.0)
    _assert_parallel_ricci(get_model(name).field, (x1, x2))


def test_unknown_model():
    with pytest.raises(UnknownModelError):
        get_model("S9")


def fd_metric_derivative(metric, p, d, h=1e-6):
    e = (h, 0.0) if d == 0 else (0.0, h)
    return (metric((p[0] + e[0], p[1] + e[1])) - metric((p[0] - e[0], p[1] - e[1]))) / (
        2.0 * h
    )


@pytest.mark.parametrize(
    "name,points",
    [
        ("H2", [(1.0, 0.0), (0.5, 2.0), (3.0, -1.0)]),
        ("L2", [(1.0, 0.0), (0.5, 2.0), (3.0, -1.0)]),
        ("pseudosphere", [(0.0, 0.0), (0.7, 1.0), (-1.2, 3.0)]),
    ],
)
def test_metric_is_parallel_for_its_connection(name, points):
    """d_k g_ij = G_ki^s g_sj + G_kj^s g_is pins metric/connection pairing."""
    model = get_model(name)
    for p in points:
        g = christoffel_at(model.field, p)
        met = model.metric(p)
        for d in range(2):
            lhs = fd_metric_derivative(model.metric, p, d)
            rhs = np.einsum("is,sj->ij", g[d], met) + np.einsum(
                "js,is->ij", g[d], met
            )
            assert np.max(np.abs(lhs - rhs)) < 5e-6, (name, p, d)


def test_l2_metric_signature_and_causal_types():
    met = model_metric("L2")
    g = met((2.0, 5.0))
    assert g[0, 0] < 0 < g[1, 1]
    # |xi1| > |xi2| is timelike for this signature
    timelike = np.array([1.0, 0.2])
    spacelike = np.array([0.2, 1.0])
    assert timelike @ g @ timelike < 0 < spacelike @ g @ spacelike


def test_models_without_metric_raise():
    with pytest.raises(NoMetricError):
        model_metric("S1")


def test_parse_and_format_model_specs():
    m = parse_model_spec("S4:c=-3/4")
    assert m.name == "S4" and m.c == F(-3, 4)
    assert format_model_spec(m) == "S4:c=-3/4"
    assert parse_model_spec("L2").name == "L2"
    assert format_model_spec(get_model("H2")) == "H2"
    for bad in ("S4:c=", "S4:d=1", "L2:c=1", "S4:c=1/0", "S4:c=x"):
        with pytest.raises(InvalidParameterError):
            parse_model_spec(bad)


def test_pseudosphere_chart_coefficients():
    model = get_model("pseudosphere")
    g = christoffel_at(model.field, (0.7, 3.0))
    assert g[0, 1, 1] == pytest.approx(np.tanh(0.7))
    assert g[1, 1, 0] == pytest.approx(np.cosh(0.7) * np.sinh(0.7))
    assert g[0, 0, 0] == 0.0

"""Jacobi fields in a parallel frame and conjugate-point detection."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affinesurf import geodesics, jacobi
from affinesurf.catalog import get_model, parse_model_spec
from affinesurf.classify import pushforward
from affinesurf.curvature import curvature_at
from affinesurf.errors import DomainError, FrameDegenerateError, InvalidIVPError
from affinesurf.fields import KIND_A, ChristoffelField
from affinesurf.integrate import solve_ode
from affinesurf.jacobi import (
    _jacobi_rhs,
    _scalar_jacobi_rhs,
    brentq,
    conjugate_points,
    integrate_jacobi,
)
from affinesurf.lorentz import l2_inner

L2 = get_model("L2")
PSEUDO = get_model("pseudosphere")
FLAT = ChristoffelField.type_a((0, 0, 0, 0, 0, 0))


def _unmarked(name: str) -> ChristoffelField:
    """The catalog chart's connection without its locally_symmetric marker.

    conjugate_points gives the marked pseudosphere and S3~ the closed form;
    these copies take the numeric sweep, whose roots are then still known.
    """
    field = get_model(name).field
    return ChristoffelField.analytic(field.gamma, field.dgamma)


SWEPT_PSEUDO = _unmarked("pseudosphere")


def _count_sweeps(monkeypatch):
    built = []

    def counting(field):
        built.append(field)
        return _scalar_jacobi_rhs(field)

    monkeypatch.setattr(jacobi, "_scalar_jacobi_rhs", counting)
    return built


def test_flat_jacobi_fields_are_linear():
    sol = integrate_jacobi(FLAT, (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.3, -0.7), 4.0)
    assert sol.status == "complete"
    want = np.outer(sol.t, [0.3, -0.7])
    assert np.max(np.abs(sol.a - want)) < 1e-10


def test_l2_spacelike_normal_component_is_sine():
    # unit spacelike geodesic; seed velocity g-orthogonal to it
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.45
    )
    assert sol.status == "complete"
    assert np.max(np.abs(sol.a[:, 0] - np.sin(sol.t))) < 1e-9
    assert np.max(np.abs(sol.a[:, 1])) < 1e-9


def test_l2_tangential_component_is_linear():
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0), 1.45
    )
    assert np.max(np.abs(sol.a[:, 1] - sol.t)) < 1e-12
    assert np.max(np.abs(sol.a[:, 0])) < 1e-12


def test_l2_timelike_normal_component_is_sinh():
    p, v = (1.0, 0.0), (math.sqrt(2.0), 1.0)
    w = (1.0, math.sqrt(2.0))
    assert abs(l2_inner(p, v, w)) < 1e-15
    # the geodesic escapes at arcsinh(1); the sweep is capped just before
    sol = integrate_jacobi(L2.field, p, v, (0.0, 0.0), w, 2.0)
    assert sol.status == "blowup"
    assert abs(sol.t_escape - math.asinh(1.0)) < 1e-6
    assert sol.t[-1] < math.asinh(1.0)
    want = np.outer(np.sinh(sol.t), w)
    assert np.max(np.abs(sol.a - want)) < 1e-7


def test_pseudosphere_chart_normal_component_is_sine():
    # base (0,0), spacelike direction d/dv; normal seed d/du
    sol = integrate_jacobi(
        PSEUDO.field, (0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 3.0
    )
    assert np.max(np.abs(sol.a[:, 0] - np.sin(sol.t))) < 1e-8


def test_frame_stays_parallel_and_jacobi_chart_matches():
    sol = integrate_jacobi(
        L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.2,
        frame=((2.0, 0.0), (0.0, 0.5)),
    )
    # frame columns evolve by parallel transport; at t=0 they are as given
    assert np.allclose(sol.frame[0], [[2.0, 0.0], [0.0, 0.5]], atol=1e-12)
    for i in (0, 50, 200):
        assert np.allclose(
            sol.jacobi_chart(i), sol.frame[i] @ sol.a[i], atol=1e-12
        )


def test_pseudosphere_conjugate_points_at_pi_and_two_pi():
    found = conjugate_points(PSEUDO.field, (0.0, 0.0), (0.0, 1.0), 7.0)
    assert len(found) == 2
    assert abs(found[0] - math.pi) < 1e-10
    assert abs(found[1] - 2.0 * math.pi) < 1e-10


def test_conjugate_point_on_a_scan_sample_is_reported_once(monkeypatch):
    # 400 samples over [0, 1.5 pi]: sample 266 sits on the root pi
    built = _count_sweeps(monkeypatch)
    found = conjugate_points(SWEPT_PSEUDO, (0.0, 0.0), (0.0, 1.0), 1.5 * math.pi)
    assert built == [SWEPT_PSEUDO]
    assert len(found) == 1
    assert abs(found[0] - math.pi) < 1e-10


def test_root_within_the_smallest_step_of_a_knot_is_refined(monkeypatch):
    # kappa = 3/4; Brent asks for a(t) 5e-13 past an accepted knot
    period = math.pi / math.sqrt(0.75)
    built = _count_sweeps(monkeypatch)
    found = conjugate_points(SWEPT_PSEUDO, (0.0, 0.0), (0.5, -1.0), 1.5 * period)
    assert built == [SWEPT_PSEUDO]
    assert len(found) == 1
    assert abs(found[0] - period) < 1e-10


@pytest.mark.parametrize(
    "v, period", [((0.0, 1.0), math.pi), ((0.5, -1.0), math.pi / math.sqrt(0.75))]
)
def test_marked_pseudosphere_gives_the_same_single_roots_in_closed_form(v, period):
    found = conjugate_points(PSEUDO.field, (0.0, 0.0), v, 1.5 * period)
    assert len(found) == 1
    assert abs(found[0] - period) < 1e-10


def test_no_conjugate_points_on_timelike_or_flat_runs():
    assert conjugate_points(PSEUDO.field, (0.0, 0.0), (1.0, 0.0), 6.0) == []
    assert conjugate_points(FLAT, (0.0, 0.0), (1.0, 1.0), 10.0) == []
    assert (
        conjugate_points(L2.field, (1.0, 0.0), (math.sqrt(2.0), 1.0), 6.0) == []
    )


def test_l2_spacelike_run_escapes_before_focusing():
    # maximal domain ends at pi/2 < pi, so no conjugate point is reachable
    found = conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), math.pi)
    assert found == []


def test_degenerate_frame_is_rejected():
    with pytest.raises(FrameDegenerateError):
        integrate_jacobi(
            L2.field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.0,
            frame=((1.0, 0.0), (2.0, 0.0)),
        )


@pytest.mark.parametrize("x1", [0.0, -0.5])
def test_kind_b_rhs_outside_chart_raises_domain_error(x1):
    y = np.array([x1, 0.0, 0.0, 1.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        _scalar_jacobi_rhs(L2.field)(0.0, y)
    y = np.array([x1, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        _jacobi_rhs(L2.field)(0.0, y)


def test_bad_ivp_propagates():
    with pytest.raises(InvalidIVPError):
        integrate_jacobi(
            L2.field, (-1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.0
        )


# ----------------------------------------------------------------------------
# the Brent root finder


def _brent_outcome(solver, f, a, b, **kw):
    """The root's bits, or the type of the error raised."""
    try:
        return solver(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def test_brentq_matches_scipy_bit_for_bit_on_random_brackets():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    shapes = (
        lambda c, k: lambda x: math.tanh(k * (x - c)),
        lambda c, k: lambda x: k * (x - c) ** 3 + 1e-3 * math.sin(7.0 * x),
        lambda c, k: lambda x: math.sin(k * x) - 0.3,
        lambda c, k: lambda x: math.exp(x) - k,
        lambda c, k: lambda x: math.copysign(abs(x - c) ** 0.2, x - c),
    )
    unconverged = 0
    for _ in range(400):
        c, k = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
        a, b = rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)
        for shape in shapes:
            f = shape(c, k)
            for kw in ({}, {"xtol": 1e-12}, {"maxiter": int(rng.integers(1, 8))}):
                want = _brent_outcome(scipy_optimize.brentq, f, a, b, **kw)
                assert _brent_outcome(brentq, f, a, b, **kw) == want, (a, b, c, k, kw)
                unconverged += want == "RuntimeError"
    # the small maxiter budgets reach the RuntimeError path as well
    assert unconverged > 0


def test_conjugate_point_refinement_matches_scipy_brentq(monkeypatch):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    launches = [((0.0, 0.0), (0.0, 1.0), 3.5), ((0.0, 0.2), (0.0, 1.1), 3.5 / 1.1)]
    ours = [conjugate_points(SWEPT_PSEUDO, p, v, t) for p, v, t in launches]
    monkeypatch.setattr(jacobi, "brentq", scipy_optimize.brentq)
    theirs = [conjugate_points(SWEPT_PSEUDO, p, v, t) for p, v, t in launches]
    assert all(ours)
    assert [[r.hex() for r in roots] for roots in ours] == [
        [float(r).hex() for r in roots] for roots in theirs
    ]


def test_brentq_returns_an_exact_end_point_root():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_rejects_nan_values():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)
    # a NaN inside the bracket, met by the first interpolation step
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if 0.4 < x < 0.9 else x - 0.75, 0.0, 1.0)


def test_brentq_reports_an_exhausted_iteration_budget():
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=3)
    assert abs(brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0) - 2.0 ** (1.0 / 3.0)) < 1e-12


# ----------------------------------------------------------------------------
# parallel curvature: the closed-form propagator as an oracle
#
# With nabla R = 0 the Jacobi operator K a = R(a, v) v has a constant matrix
# in the parallel frame, and K @ K = kappa K with kappa = rho(v, v).  So
# a'' = -K a is solved by a(t) = C(t) a0 + S(t) a0' with
#     C = I - c2(t) K,   c2 = (1 - cos(sqrt(kappa) t)) / kappa,
#     S = t I - s3(t) K, s3 = (t - sin(sqrt(kappa) t) / sqrt(kappa)) / kappa,
# cosh/sinh for kappa < 0 and the polynomials t**2 / 2, t**3 / 6 at kappa = 0;
# conjugate points of sigma(0) sit at n pi / sqrt(kappa).


def _jacobi_operator(field, p, v):
    """kappa = rho(v, v) and the matrix K whose column b is R(d_b, v) v."""
    rv = np.einsum("ijkl,j,k->il", curvature_at(field, p), v, v)
    return float(np.trace(rv)), rv.T


def _propagator(k, kappa, t):
    x = kappa * t * t
    if abs(x) < 1e-2:
        # Taylor series of c2 and s3 in x; eight terms leave < 1e-30 relative
        c2 = t * t * sum((-x) ** n / math.factorial(2 * n + 2) for n in range(8))
        s3 = t ** 3 * sum((-x) ** n / math.factorial(2 * n + 3) for n in range(8))
    elif kappa > 0.0:
        r = math.sqrt(kappa)
        c2 = (1.0 - math.cos(r * t)) / kappa
        s3 = (t - math.sin(r * t) / r) / kappa
    else:
        r = math.sqrt(-kappa)
        c2 = (math.cosh(r * t) - 1.0) / -kappa
        s3 = (math.sinh(r * t) / r - t) / -kappa
    return np.eye(2) - c2 * k, t * np.eye(2) - s3 * k


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
unit_floats = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def symmetric_launches(draw):
    """A launch on a random linear image of a locally symmetric kind-A/B model.

    Kind A (S1, S2, S3) is moved by a GL(2) frame, kind B (H2, L2, S5, S4:c)
    by (x1, x2) -> (x1, delta x1 + gamma x2); the point and velocity are
    drawn on the canonical chart and moved along.  L2 launches are null in
    about half of the draws, so kappa takes both signs and 0.
    """
    name = draw(st.sampled_from(["S1", "S2", "S3", "H2", "L2", "S5", "S4:c=2", "S4:c=-1/3"]))
    model = parse_model_spec(name)
    if model.field.kind == KIND_A:
        frame = draw(st.tuples(st.tuples(small_rationals, small_rationals),
                               st.tuples(small_rationals, small_rationals)))
        p0 = (draw(unit_floats), draw(unit_floats))
    else:
        gamma = draw(small_rationals.filter(lambda g: abs(g) >= Fraction(1, 2)))
        frame = ((Fraction(1), Fraction(0)), (draw(small_rationals), gamma))
        p0 = (draw(st.floats(min_value=0.5, max_value=2.0)), draw(unit_floats))
    det = frame[0][0] * frame[1][1] - frame[0][1] * frame[1][0]
    assume(abs(det) >= Fraction(1, 2))
    speed = draw(st.floats(min_value=0.3, max_value=1.2))
    if name == "L2" and draw(st.booleans()):
        v0 = (p0[0] * speed, draw(st.sampled_from([-1.0, 1.0])) * p0[0] * speed)
    else:
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        v0 = (speed * math.cos(theta), speed * math.sin(theta))
    field = ChristoffelField(model.field.kind, coeffs=pushforward(model.field.coeffs, frame))
    m = np.array(frame, dtype=float)
    return field, tuple((m @ p0).tolist()), tuple((m @ v0).tolist())


@settings(max_examples=40, deadline=None)
@given(symmetric_launches(), st.tuples(unit_floats, unit_floats),
       st.tuples(unit_floats, unit_floats), st.floats(min_value=0.5, max_value=1.5))
def test_jacobi_coefficients_follow_the_parallel_curvature_propagator(launch, a0, adot0, t_max):
    field, p, v = launch
    kappa, k = _jacobi_operator(field, p, v)
    sol = integrate_jacobi(field, p, v, a0, adot0, t_max)
    want = np.array([c @ a0 + s @ adot0 for c, s in (_propagator(k, kappa, t) for t in sol.t)])
    assert np.max(np.abs(sol.a - want)) <= 1e-7 * max(1.0, float(np.max(np.abs(want))))


@st.composite
def analytic_symmetric_launches(draw):
    """A catalog name and a launch with kappa > 0 on that chart, the
    pseudosphere (rho = g = diag(-1, cosh(u)**2)) or S3~ (rho = diag(0, 1)),
    with a span holding one or two conjugate points half a period clear of
    its end."""
    name = draw(st.sampled_from(["pseudosphere", "S3~"]))
    p = (draw(st.floats(min_value=-0.5, max_value=0.5)), draw(unit_floats))
    v2 = draw(st.floats(min_value=0.6, max_value=1.4)) * draw(st.sampled_from([-1.0, 1.0]))
    lean = draw(st.floats(min_value=-0.7, max_value=0.7))
    scale = math.cosh(p[0]) if name == "pseudosphere" else 1.0
    return name, p, (lean * scale * abs(v2), v2), draw(st.sampled_from([1, 2]))


@settings(max_examples=12, deadline=None)
@given(analytic_symmetric_launches())
def test_numeric_conjugate_points_sit_at_multiples_of_pi_over_root_kappa(launch):
    name, p, v, n = launch
    field = _unmarked(name)
    kappa, _ = _jacobi_operator(field, p, v)
    period = math.pi / math.sqrt(kappa)
    found = conjugate_points(field, p, v, (n + 0.5) * period)
    want = [m * period for m in range(1, n + 1)]
    assert len(found) == n
    assert max(abs(f - w) for f, w in zip(found, want)) < 1e-9


@settings(max_examples=12, deadline=None)
@given(analytic_symmetric_launches())
def test_marked_chart_closed_form_agrees_with_the_sweep_of_its_unmarked_copy(launch):
    name, p, v, n = launch
    marked = get_model(name).field
    kappa, _ = _jacobi_operator(marked, p, v)
    t_max = (n + 0.5) * math.pi / math.sqrt(kappa)
    closed = conjugate_points(marked, p, v, t_max)
    swept = conjugate_points(_unmarked(name), p, v, t_max)
    assert len(closed) == len(swept) == n
    assert max(abs(c - w) for c, w in zip(closed, swept)) < 1e-9


# A chart that is not locally symmetric: Gamma^1_22 = x1 + 0.3 x1**3 (S3~ has
# Gamma^1_22 = x1).  Its geodesics oscillate in x1 and never stop.  The
# determinant of the two fields integrate_jacobi gives with J(0) = 0 and J'(0)
# = e1, e2 is an oracle for the scalar equation conjugate_points integrates.
CUBIC = ChristoffelField.analytic(
    lambda x1, x2: (0.0, 0.0, 0.0, 0.0, x1 + 0.3 * x1 ** 3, 0.0),
    lambda x1, x2: ((0.0, 0.0),) * 4 + ((1.0 + 0.9 * x1 ** 2, 0.0), (0.0, 0.0)),
)


def _two_field_determinant(p, v, t_max, samples):
    one, two = (integrate_jacobi(CUBIC, p, v, (0.0, 0.0), e, t_max, samples=samples)
                for e in ((1.0, 0.0), (0.0, 1.0)))
    assert one.status == two.status == "complete"
    return one.t, one.a[:, 0] * two.a[:, 1] - one.a[:, 1] * two.a[:, 0]


@st.composite
def cubic_launches(draw):
    """A launch on CUBIC whose span holds up to two conjugate points."""
    p = (draw(st.floats(min_value=-0.6, max_value=0.6)), draw(unit_floats))
    v2 = draw(st.floats(min_value=0.7, max_value=1.3)) * draw(st.sampled_from([-1.0, 1.0]))
    v = (draw(st.floats(min_value=-0.5, max_value=0.5)), v2)
    return p, v, draw(st.floats(min_value=2.0, max_value=8.0))


@settings(max_examples=5, deadline=None)
@example(((0.5, 0.0), (0.2, 1.0), 8.0))  # roots near 3.0199 and 6.0361
@given(cubic_launches())
def test_conjugate_points_are_the_sign_changes_of_the_two_field_determinant(launch):
    p, v, t_max = launch
    found = conjugate_points(CUBIC, p, v, t_max)
    t, det = _two_field_determinant(p, v, t_max, 401)
    scale = float(np.max(np.abs(det)))
    flips = [i for i in range(1, len(t) - 1) if det[i] * det[i + 1] < 0.0]
    assert len(flips) == len(found)
    for i, root in zip(flips, found):
        assert t[i] <= root <= t[i + 1]
        assert abs(_two_field_determinant(p, v, root, 2)[1][-1]) <= 1e-7 * scale


def test_non_symmetric_kind_b_chart_takes_the_numeric_sweep(monkeypatch):
    field = ChristoffelField.type_b((0, 0, 1, 0, 0, 1))
    built = _count_sweeps(monkeypatch)
    conjugate_points(field, (1.0, 0.0), (0.3, 1.0), 1.0)
    assert built == [field]


@pytest.mark.parametrize("v", [(0.0, 1.0), (math.sqrt(2.0), 1.0), (1.0, 1.0)])
def test_symmetric_kind_b_chart_makes_no_jacobi_sweep(monkeypatch, v):
    built = _count_sweeps(monkeypatch)
    assert conjugate_points(L2.field, (1.0, 0.0), v, math.pi - 1e-3) == []
    assert built == []


def test_cubic_chart_is_unmarked_and_takes_the_numeric_sweep(monkeypatch):
    assert not CUBIC.locally_symmetric
    built = _count_sweeps(monkeypatch)
    assert len(conjugate_points(CUBIC, (0.5, 0.0), (0.2, 1.0), 4.0)) == 1
    assert built == [CUBIC]


@pytest.mark.parametrize("s", [0.8, 1.0, 1.25])
def test_marked_pseudosphere_makes_no_jacobi_sweep(monkeypatch, s):
    def boom(*args, **kwargs):
        raise AssertionError("the pseudosphere called brentq")

    solves = []

    def counting(*args, **kwargs):
        solves.append(args[1:])
        return solve_ode(*args, **kwargs)

    monkeypatch.setattr(jacobi, "brentq", boom)
    monkeypatch.setattr(jacobi, "solve_ode", counting)
    assert conjugate_points(PSEUDO.field, (0.0, 0.17), (0.0, s), 3.5 / s) == [math.pi / s]
    assert solves == []


def test_closed_form_path_probes_the_geodesic_only_when_a_root_is_due(monkeypatch):
    probes = []
    reachable_cap = jacobi._reachable_cap

    def counting(field, p, v, t_max):
        probes.append(t_max)
        return reachable_cap(field, p, v, t_max)

    monkeypatch.setattr(jacobi, "_reachable_cap", counting)
    # spacelike, kappa = 1: the first root pi lies past t_max, so no probe
    assert conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), 3.0) == []
    assert probes == []
    # t_max past pi: the probe runs, and the domain ends at pi / 2 first
    assert conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), 4.0) == []
    assert probes == [4.0]


@pytest.mark.parametrize("field, v, status, t_stop", [
    # spacelike L2: x1 = 1/cos t runs out to infinity at pi / 2
    (L2.field, (0.0, 1.0), "blowup", math.pi / 2),
    # Gamma_11^1 = 1/x1: x1 = sqrt(1 - 4t) reaches the chart edge at 1/4
    (ChristoffelField.type_b((1, 0, 0, 0, 0, 0)), (-2.0, 0.0), "left_chart", 0.25),
], ids=["L2-blowup", "edge"])
def test_kind_b_reach_probe_steps_the_reduced_state(monkeypatch, field, v, status, t_stop):
    # the probe is the plain geodesic run of geodesics._run: for kind B the
    # state (x1, x2, p1, p2) with p = v/x1, never the chart form
    built = []

    def spy(make):
        def wrapped(f):
            built.append(make.__name__)
            return make(f)
        return wrapped

    monkeypatch.setattr(geodesics, "_reduced_rhs", spy(geodesics._reduced_rhs))
    monkeypatch.setattr(geodesics, "geodesic_rhs", spy(geodesics.geodesic_rhs))
    cap, got, t_escape = jacobi._reachable_cap(field, (1.0, 0.0), v, 4.0)
    assert built == ["_reduced_rhs"]
    assert got == status
    assert t_escape == pytest.approx(t_stop, abs=1e-6)
    assert cap == pytest.approx(t_stop - 2e-3 * max(1.0, t_stop), abs=1e-6)


def test_closed_form_path_lists_every_root_up_to_the_cap(monkeypatch):
    # no catalog geodesic lives long enough to reach pi / sqrt(kappa), so
    # the cap is stubbed: kappa = 1 on this spacelike L2 launch
    monkeypatch.setattr(jacobi, "_reachable_cap", lambda *args: (3.0 * math.pi, "complete", None))
    found = conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), 10.0)
    assert found == [math.pi, 2.0 * math.pi, 3.0 * math.pi]


def test_closed_form_path_needs_no_transported_frame():
    # a sheared L2 image with kappa < 0, where a transported frame
    # degenerates as the geodesic runs into collapse
    field = ChristoffelField.type_b(("-5/4", "-3/8", "-1/2", "-3/4", "-1", "1/2"))
    p = (0.3570046197007457, -0.6081162431890494)
    v = (-1.2627918985556128, 1.2720254619107518)
    assert conjugate_points(field, p, v, 5.323070479985292) == []


def test_closed_form_path_keeps_the_input_checks():
    with pytest.raises(InvalidIVPError, match="nonzero velocity"):
        conjugate_points(L2.field, (1.0, 0.0), (0.0, 0.0), 1.0)
    with pytest.raises(InvalidIVPError):
        conjugate_points(L2.field, (-1.0, 0.0), (0.0, 1.0), 1.0)


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
def test_non_finite_t_max_is_rejected(t_max):
    ps = get_model("pseudosphere").field
    with pytest.raises(InvalidIVPError, match="finite"):
        conjugate_points(ps, (1.0, 0.0), (0.0, 1.0), t_max)
    with pytest.raises(InvalidIVPError, match="finite"):
        conjugate_points(L2.field, (1.0, 0.0), (0.0, 1.0), t_max)
    with pytest.raises(InvalidIVPError, match="finite"):
        integrate_jacobi(
            get_model("H2").field, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), t_max
        )


# ----------------------------------------------------------------------------
# metamorphic: v -> k v reparametrizes the geodesic by t -> k t


@pytest.mark.parametrize("k", [0.5, 2.0])
@pytest.mark.parametrize(
    "field, p, v, t_max",
    [
        # numeric sweep: conjugate points at pi and 2 pi
        (SWEPT_PSEUDO, (0.0, 0.1), (0.0, 1.0), 7.0),
        # closed form past pi: the geodesic leaves the chart before any root
        (L2.field, (1.0, 0.3), (0.2, 1.0), 4.0),
        (get_model("S3").field, (0.0, 0.0), (-0.5, 1.0), 4.0),
        # closed form on the marked chart: the same roots
        (PSEUDO.field, (0.0, 0.1), (0.0, 1.0), 7.0),
    ],
)
def test_conjugate_points_scale_inversely_with_the_speed(field, p, v, t_max, k):
    base = conjugate_points(field, p, v, t_max)
    got = conjugate_points(field, p, (k * v[0], k * v[1]), t_max / k)
    assert len(got) == len(base)
    for g, b in zip(got, base):
        assert abs(g - b / k) <= 1e-9 * (b / k)

"""Acceptance gate: one test per headline capability, at the stated tolerances.

Each test finishes by printing a single ``criterion N ...: PASS`` line so a
verbose run doubles as a checklist.  Every numeric bound asserted here is the
advertised one, not a looser stand-in; oracles are closed forms, frozen exact
tables, or finite-difference checks that live in the per-module suites.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

from affinesurf import cli
from affinesurf.catalog import get_model, parse_model_spec
from affinesurf.classify import (
    ShearScale,
    classify_type_a,
    classify_type_b,
    pushforward,
)
from affinesurf.coverage import REACHED, exp_coverage
from affinesurf.curvature import (
    nabla_ricci_at,
    nabla_ricci_table,
    ricci_at,
    ricci_table,
)
from affinesurf.geodesics import integrate_geodesic
from affinesurf.jacobi import conjugate_points, integrate_jacobi
from affinesurf.lorentz import fit_l2_geodesic, hyperbola_residual
from affinesurf.sprays import (
    map_T_L2,
    map_T_S2,
    tl2_grid,
    ts2_grid,
    spine_sprays,
    spray_metric,
    verify_isometry,
)


def _passline(text: str) -> None:
    print(f"\n{text}")


# ----------------------------------------------------------------------------
# 1. curvature tables
# ----------------------------------------------------------------------------


def test_criterion_1_curvature_tables(capsys):
    cases = {
        "S1": (((0, 0), (0, Fraction(-1, 4))), 0),
        "S2": (((0, 0), (0, Fraction(-1, 4))), 0),
        "S3": (((0, 0), (0, 1)), 0),
        "S5": (((Fraction(-1, 4), 0), (0, 0)), 2),
        "H2": (((-1, 0), (0, -1)), 2),
        "L2": (((-1, 0), (0, 1)), 2),
        "flat": (((0, 0), (0, 0)), 0),
    }
    for name, (table, power) in cases.items():
        model = get_model(name)
        rho = ricci_table(model.field)
        assert rho.table == table, name
        assert rho.power == power, name
        assert nabla_ricci_table(model.field).is_zero(), name

    # the one-parameter family: Ricci is exactly diag(-c^2, 0) / (x1)^2
    for c in (Fraction(3, 4), Fraction(1, 2), 2):
        model = get_model("S4", c=c)
        rho = ricci_table(model.field)
        assert rho.table == ((-c * c, 0), (0, 0))
        assert rho.power == 2
        assert nabla_ricci_table(model.field).is_zero()

    # analytic catalog members: check pointwise, including the parallel-Ricci
    # property, at scattered chart points.
    s3t = get_model("S3~").field
    for p in ((0.0, 0.0), (1.3, -0.7), (-2.0, 4.0)):
        assert np.max(np.abs(np.asarray(nabla_ricci_at(s3t, p)))) < 1e-10

    pseudo = get_model("pseudosphere").field
    worst = 0.0
    for u, v in ((0.0, 0.0), (0.7, 1.3), (-1.1, 2.0), (1.5, -3.0)):
        rho_p = np.asarray(ricci_at(pseudo, (u, v)), dtype=float)
        want = np.array([[-1.0, 0.0], [0.0, math.cosh(u) ** 2]])
        worst = max(worst, float(np.max(np.abs(rho_p - want))))
        assert np.max(np.abs(np.asarray(nabla_ricci_at(pseudo, (u, v))))) < 1e-9
    assert worst < 1e-10

    with capsys.disabled():
        _passline(
            "criterion 1 (curvature tables): PASS - 10 exact tables, "
            f"pseudosphere Ricci off by {worst:.2e} (< 1e-10)"
        )


# ----------------------------------------------------------------------------
# 2. classifier round trips and rejections
# ----------------------------------------------------------------------------


def _random_shear_scale(rng: random.Random) -> ShearScale:
    while True:
        gamma = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        if gamma != 0:
            break
    delta = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    return ShearScale(delta=delta, gamma=gamma)


def _random_gl2(rng: random.Random) -> tuple:
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            for _ in range(2)
        )
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 0 and abs(det) > Fraction(1, 10):
            return m


def test_criterion_2_classifier(capsys):
    rng = random.Random(20260825)

    # homogeneous-scaling kind: 500 exact recoveries across the four families
    s4_cs = (Fraction(3, 4), Fraction(1, 2), Fraction(1), Fraction(2),
             Fraction(5, 3))
    targets = [("L2", None), ("H2", None), ("S5", None)]
    targets += [("S4", c) for c in s4_cs]
    exact = 0
    for i in range(500):
        name, c = targets[i % len(targets)]
        canonical = get_model(name, c).field.coeffs
        move = _random_shear_scale(rng)
        moved = pushforward(canonical, move.matrix())
        nf = classify_type_b(moved)
        assert nf.verdict == name, (name, nf.verdict)
        if c is not None:
            assert nf.c == c
        assert nf.residual == 0
        assert nf.witness is not None and nf.witness.is_exact()
        assert pushforward(moved, nf.witness.matrix()) == canonical
        exact += 1
    assert exact == 500

    # constant-coefficient kind: 200 recoveries under random GL(2)
    worst_res = 0.0
    for i in range(200):
        name = ("S1", "S2", "S3")[i % 3]
        src = get_model(name).field.coeffs
        m = _random_gl2(rng)
        moved = pushforward(src, m)
        nf = classify_type_a(moved)
        assert nf.verdict == f"TypeA_{name}", (name, nf.verdict)
        assert nf.residual < 1e-9
        worst_res = max(worst_res, nf.residual)
        got = pushforward(tuple(float(v) for v in moved), nf.witness)
        assert max(abs(g - float(v)) for g, v in zip(got, src)) < 1e-8

    # coefficient patterns that cannot be locally symmetric: the classifier
    # must refuse to name a model for them.
    impossible = {
        (1, 0, 0, 0, 1, 0): "Flat",
        (1, 0, 0, 0, -1, 0): "Flat",
        (0, 0, 1, 0, 0, 1): "NotLocallySymmetric",
        (0, 0, 0, 0, 0, 1): "NotLocallySymmetric",
    }
    model_names = {"H2", "L2", "S4", "S5", "TypeA_S1", "TypeA_S2", "TypeA_S3"}
    for coeffs, want in impossible.items():
        nf = classify_type_b(coeffs)
        assert nf.verdict == want, (coeffs, nf.verdict)
        assert nf.verdict not in model_names

    with capsys.disabled():
        _passline(
            "criterion 2 (classifier): PASS - 500/500 exact witnesses, "
            f"200/200 GL(2) (worst residual {worst_res:.2e} < 1e-9), "
            "4 impossible patterns rejected"
        )


# ----------------------------------------------------------------------------
# 3. Lorentz geodesics against closed forms
# ----------------------------------------------------------------------------


def test_criterion_3_closed_form_geodesics(capsys):
    l2 = get_model("L2").field
    ivps = [
        ((1.0, 0.0), (0.0, 1.0)),       # unit spacelike
        ((2.0, -1.0), (0.3, 1.1)),      # generic spacelike
        ((1.0, 0.0), (1.0, 0.5)),       # timelike
        ((0.5, 2.0), (-0.4, 0.1)),      # timelike, leftward
        ((1.0, 0.0), (1.0, 1.0)),       # null
        ((3.0, 0.0), (1.0, 0.0)),       # vertical
    ]
    worst_gap = 0.0
    worst_hyp = 0.0
    for point, velocity in ivps:
        geo = fit_l2_geodesic(point, velocity)
        # stay a proportional margin away from finite domain ends, where the
        # chart coordinates blow up and any comparison is ill conditioned
        lo = max(0.95 * geo.t_min, -6.0)
        hi = min(0.95 * geo.t_max, 6.0)
        traj = integrate_geodesic(
            l2, point, velocity, (lo, hi), samples=161, rtol=1e-11, atol=1e-13
        )
        assert traj.complete, geo.family
        closed = np.array([geo.point(t) for t in traj.t])
        gap = float(np.max(np.abs(traj.x - closed)))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-7, (geo.family, gap)
        if geo.family in ("spacelike", "timelike"):
            res = hyperbola_residual(traj.x, point, velocity)
            worst_hyp = max(worst_hyp, res)
            assert res < 1e-8, geo.family

    # a unit spacelike geodesic has total affine length exactly pi
    geo = fit_l2_geodesic((1.0, 0.0), (0.0, 1.0))
    assert geo.family == "spacelike"
    assert abs((geo.t_max - geo.t_min) - math.pi) < 1e-6

    with capsys.disabled():
        _passline(
            "criterion 3 (closed-form geodesics): PASS - worst sample gap "
            f"{worst_gap:.2e} (< 1e-7), worst hyperbola residual "
            f"{worst_hyp:.2e} (< 1e-8), spacelike domain length pi +/- 1e-6"
        )


# ----------------------------------------------------------------------------
# 4. completeness matrix
# ----------------------------------------------------------------------------


def _random_ivp(rng: np.random.Generator, *, kind: str) -> tuple:
    if kind == "B":
        point = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0)))
    else:
        point = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
    while True:
        v = rng.uniform(-1.0, 1.0, size=2)
        if np.hypot(*v) > 0.1:
            return point, (float(v[0]), float(v[1]))


def test_criterion_4_completeness(capsys):
    rng = np.random.default_rng(1902)
    span = (-50.0, 50.0)
    complete_models = ("S2", "S3~", "S4:c=3/4", "S5", "H2")
    n_ok = 0
    for name in complete_models:
        field = parse_model_spec(name).field
        kind = "B" if field.kind == "B" else "A"
        for _ in range(20):
            point, velocity = _random_ivp(rng, kind=kind)
            traj = integrate_geodesic(
                field, point, velocity, span, samples=11, rtol=1e-8, atol=1e-10
            )
            assert traj.complete, (name, point, velocity, traj.status_forward,
                                   traj.status_backward)
            n_ok += 1
    assert n_ok == 100

    # S1: horizontal launches with v1 > 0 blow up forward at t = 1/v1
    # exactly; adding positive v2 only accelerates the escape.
    s1 = get_model("S1").field
    for _ in range(10):
        point, velocity = _random_ivp(rng, kind="A")
        v1 = abs(velocity[0]) + 0.2
        traj = integrate_geodesic(
            s1, point, (v1, 0.0), span, samples=11, rtol=1e-9, atol=1e-11
        )
        assert traj.status_forward == "blowup", (point, v1)
        assert traj.t_escape_forward is not None
        assert abs(traj.t_escape_forward - 1.0 / v1) < 1e-6 * (1.0 + 1.0 / v1)
        traj = integrate_geodesic(
            s1, point, (v1, abs(velocity[1])), span, samples=11,
            rtol=1e-9, atol=1e-11
        )
        assert traj.status_forward == "blowup", (point, v1)
        assert traj.t_escape_forward <= 1.0 / v1 + 1e-6

    # S3: motion is confined to the strip |x2| < pi around any start, and the
    # straight vertical launch blows up at +/- pi/2.
    s3 = get_model("S3").field
    for _ in range(10):
        point, velocity = _random_ivp(rng, kind="A")
        traj = integrate_geodesic(
            s3, point, velocity, (-40.0, 40.0), samples=401, rtol=1e-9, atol=1e-11
        )
        assert np.max(np.abs(traj.x[:, 1] - point[1])) < math.pi
    traj = integrate_geodesic(s3, (0.0, 0.0), (0.0, 1.0), (-3.0, 3.0), samples=11)
    assert traj.status_forward == "blowup"
    assert traj.status_backward == "blowup"
    assert abs(traj.t_escape_forward - math.pi / 2.0) < 1e-6
    assert abs(traj.t_escape_backward + math.pi / 2.0) < 1e-6

    # L2: the null ray from (1,0) with velocity (1,1) leaves the chart at
    # t = 1 going forward but is past-complete.
    l2 = get_model("L2").field
    traj = integrate_geodesic(l2, (1.0, 0.0), (1.0, 1.0), span, samples=11)
    assert traj.status_forward == "blowup"
    assert abs(traj.t_escape_forward - 1.0) < 1e-6
    assert traj.status_backward == "complete"

    with capsys.disabled():
        _passline(
            "criterion 4 (completeness matrix): PASS - 100/100 complete IVPs "
            "to |t|=50; S1, S3, L2 blow up on schedule; S3 confined to its strip"
        )


# ----------------------------------------------------------------------------
# 5. exponential-map coverage
# ----------------------------------------------------------------------------


def test_criterion_5_exp_coverage(capsys):
    l2 = get_model("L2").field
    cover = exp_coverage(l2, (1.0, 0.0), (0.0, 4.0, -4.0, 4.0), 40)
    margin = 0.05

    wedge_bad = 0
    interior = 0
    interior_hit = 0
    cxs, cys = cover.centers()
    for cx in cxs:
        for cy in cys:
            state = cover.value_at(float(cx), float(cy))
            if abs(cy) > 1.0 + cx + margin:
                # outside the forward wedge: must never be marked reached
                if state == REACHED:
                    wedge_bad += 1
            elif abs(cy) < 1.0 + cx - margin:
                interior += 1
                if state == REACHED:
                    interior_hit += 1
    assert wedge_bad == 0
    frac = interior_hit / interior
    assert frac >= 0.95, frac

    # sampled differential of exp: no vanishing Jacobi determinant along rays
    # from the base point before the sweep cap.
    for angle in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        v = (math.cos(angle), math.sin(angle))
        hits = conjugate_points(l2, (1.0, 0.0), v, 2.5)
        assert hits == [], (angle, hits)

    with capsys.disabled():
        _passline(
            "criterion 5 (exp coverage): PASS - wedge clean, "
            f"{100.0 * frac:.1f}% of interior cells reached (>= 95%), "
            "12 sampled rays free of conjugate points"
        )


# ----------------------------------------------------------------------------
# 6. Jacobi fields
# ----------------------------------------------------------------------------


def test_criterion_6_jacobi(capsys):
    l2 = get_model("L2").field

    # normal seed along a unit spacelike geodesic oscillates as sin(t)
    sol = integrate_jacobi(l2, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), 1.45)
    gap_sin = float(np.max(np.abs(sol.a[:, 0] - np.sin(sol.t))))
    assert gap_sin < 1e-6
    # tangential seed grows linearly
    sol = integrate_jacobi(l2, (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0), 1.45)
    assert np.max(np.abs(sol.a[:, 1] - sol.t)) < 1e-6

    # along a timelike geodesic the normal component grows as sinh(t)
    root2 = math.sqrt(2.0)
    sol = integrate_jacobi(
        l2, (1.0, 0.0), (root2, 1.0), (0.0, 0.0), (1.0, root2), 2.0
    )
    assert sol.status == "blowup"
    assert abs(sol.t_escape - math.asinh(1.0)) < 1e-6
    want = np.outer(np.sinh(sol.t), (1.0, root2))
    gap_sinh = float(np.max(np.abs(sol.a - want)))
    assert gap_sinh < 1e-6

    # pseudosphere: first conjugate point at arc length pi
    pseudo = get_model("pseudosphere").field
    hits = conjugate_points(pseudo, (0.0, 0.0), (0.0, 1.0), 3.5)
    assert hits, "expected a conjugate point before t=3.5"
    assert abs(hits[0] - math.pi) < 1e-6

    # L2 has no conjugate points in (0, pi) along any causal type
    for v in ((0.0, 1.0), (root2, 1.0), (1.0, 1.0)):
        hits = conjugate_points(l2, (1.0, 0.0), v, math.pi - 1e-3)
        assert hits == [], v

    with capsys.disabled():
        _passline(
            "criterion 6 (Jacobi fields): PASS - sine gap "
            f"{gap_sin:.2e}, sinh gap {gap_sinh:.2e} (< 1e-6), pseudosphere "
            "conjugate at pi +/- 1e-6, no L2 conjugate points in (0, pi)"
        )


# ----------------------------------------------------------------------------
# 7. null-spray normal forms
# ----------------------------------------------------------------------------


def test_criterion_7_spray_isometry(capsys):
    rep_s2 = verify_isometry(map_T_S2, "minkowski", ts2_grid(41), label="TS2")
    assert rep_s2.max_defect < 1e-8
    rep_l2 = verify_isometry(map_T_L2, "L2", tl2_grid(41), label="TL2")
    assert rep_l2.max_defect < 1e-8

    # unit-norm pin for the surface chart at 1000 random parameter points
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
    worst_norm = 0.0
    for s, t in pts:
        x = map_T_S2(float(s), float(t))
        q = x[0] * x[0] + x[1] * x[1] - x[2] * x[2]
        worst_norm = max(worst_norm, abs(q - 1.0))
    assert worst_norm < 1e-12

    # spine charts reproduce their predicted first fundamental forms
    worst_spine = 0.0
    for kind, s_vals, t_vals in (
        ("vertical", np.linspace(-1.0, 1.0, 5), np.linspace(-1.2, 0.45, 5)),
        ("horizontal", np.linspace(0.4, 3.0, 5), np.linspace(-1.5, 0.25, 5)),
    ):
        chart = spine_sprays(kind)
        for s in s_vals:
            for t in t_vals:
                got = np.asarray(spray_metric(chart, float(s), float(t)))
                want = np.asarray(chart.expected_form(float(s), float(t)))
                worst_spine = max(worst_spine, float(np.max(np.abs(got - want))))
    assert worst_spine < 1e-6

    with capsys.disabled():
        _passline(
            "criterion 7 (spray isometry): PASS - chart defects "
            f"{rep_s2.max_defect:.2e} / {rep_l2.max_defect:.2e} (< 1e-8), "
            f"unit-norm drift {worst_norm:.2e} (< 1e-12), spine form defect "
            f"{worst_spine:.2e} (< 1e-6)"
        )


# ----------------------------------------------------------------------------
# 8. CLI determinism
# ----------------------------------------------------------------------------


def _run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_8_cli_determinism(capsys, tmp_path):
    batches = [
        ("classify", "--type=B", "--", "-1", "0", "0", "-1", "-1", "0"),
        ("classify", "--type=A", "--seed", "5", "--",
         "-1", "0", "-0.5", "0", "0", "0"),
        ("geodesic", "--model", "L2", "--p0", "1,0", "--v0", "0,1",
         "--tspan", "0,1.5", "--format", "text"),
        ("spray", "--verify", "TS2", "--grid", "21"),
        ("curvature", "--model", "H2"),
    ]
    for argv in batches:
        first = _run_cli(capsys, *argv)
        second = _run_cli(capsys, *argv)
        assert first == second, argv
        assert first[0] == 0, (argv, first)

    # file artifacts are byte-identical across runs
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"cover_{tag}.csv"
        code, _ = _run_cli(
            capsys, "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,4,-4,4", "--cells", "16", "--out", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]

    geos = []
    for tag in ("a", "b"):
        path = tmp_path / f"geo_{tag}.csv"
        code, _ = _run_cli(
            capsys, "geodesic", "--model", "H2", "--p0", "1,0",
            "--v0", "0.3,1", "--tspan=-2,2", "--out", str(path),
        )
        assert code == 0
        geos.append(path.read_bytes())
    assert geos[0] == geos[1]

    # config echo is stable JSON
    code, out = _run_cli(capsys, "--show-config")
    assert code == 0
    assert json.loads(out)["classify"]["seed"] == 1902

    with capsys.disabled():
        _passline(
            "criterion 8 (CLI determinism): PASS - 5 subcommand batches and "
            "2 file artifacts byte-identical across repeat runs"
        )

"""Seeded inputs, operations and oracles of the three benchmark workloads.

``build(workload, seed, api)`` turns a seed into a list of ``Op``: one public
call of the package with generated arguments, plus the check applied to its
result.  Every check is independent of the code under test: closed-form
curves, conserved quantities, model symmetries, and a pushforward computed
in this file.  ``warm_up(workload, api)`` runs the fixed, seed-independent
calls that set-up time includes.

The cost of one probe varies up to ten-fold with its launch direction, so
directions and speeds sit at fixed stratum midpoints with a small seeded
jitter, and the seeded base points move launches only along the symmetries
of each model (translations for kind A, x -> s x with v -> s v for kind B).
Every seed thus yields different initial value problems while the cost of a
pass barely moves between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable

import numpy as np

# Seed of the fixed pool of GL(2) frames used by the kind-A round trips.
# The pool does not follow the run seed: one frame costs 7 ms to 1.6 s
# depending on which multi-start run converges first, and a 60-frame draw
# moved the pass cost by +-25 % between seeds.
TYPE_A_POOL_SEED = 1706
TYPE_A_FRAMES_PER_FAMILY = 12

# Launch directions per numeric map, as in the package's coverage tests; at
# most 256, where exp_coverage clamps the count.  One launch costs 70 to
# 220 ms whatever the count, so a pass holds one map per model.
SWEEP_ANGLES = 96
SWEEP_CELLS = 40
# S3 launches blow up before t = 4 in most directions; H2 launches run far
# enough toward x1 = 0 that their steps starve; S3~ stays where its cost is
# set by the 401 samples and sits clearly below H2's, so the median call of a
# pass is the H2 map.
SWEEP_T_MAX = {"S3": 4.0, "H2": 40.0, "S3~": 10.0}
PROBE_SPAN = (-50.0, 50.0)
PROBE_TOLERANCES = ((1e-8, 1e-10), (1e-10, 1e-12))
PROBE_SPEED = 0.75
JITTER = 0.05  # seeded jitter, as a share of a stratum
COMPLETE_MODELS = ("S2", "S3~", "S4:c=3/4", "S5", "H2")
L2_MAP_CELLS = 40
ISOMETRY_GRID = 41

# Canonical normal forms, packed (c11_1, c11_2, c12_1, c12_2, c22_1, c22_2).
F = Fraction
CANON_A = {
    "S1": (F(-1), F(0), F(-1, 2), F(0), F(0), F(0)),
    "S2": (F(0), F(0), F(-1, 2), F(0), F(0), F(0)),
    "S3": (F(-1), F(0), F(0), F(0), F(-1), F(0)),
}
S4_CS = (F(3, 4), F(1, 2), F(1), F(2), F(5, 3))
CANON_B = [
    ("H2", None, (F(-1), F(0), F(0), F(-1), F(1), F(0))),
    ("L2", None, (F(-1), F(0), F(0), F(-1), F(-1), F(0))),
    ("S5", None, (F(-1), F(1), F(0), F(-1, 2), F(0), F(0))),
] + [("S4", c, (F(-1), F(0), F(0), c, F(0), F(0))) for c in S4_CS]
# Kind-B tables that are flat or not locally symmetric; both properties are
# tensorial, so every shear/scale image keeps the verdict.
IMPOSSIBLE_B = (
    ((1, 0, 0, 0, 1, 0), "Flat"),
    ((1, 0, 0, 0, -1, 0), "Flat"),
    ((0, 0, 1, 0, 0, 1), "NotLocallySymmetric"),
    ((0, 0, 0, 0, 0, 1), "NotLocallySymmetric"),
)


@dataclass
class Op:
    """One public call with generated arguments and the oracle for its result."""

    layer: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


# ----------------------------------------------------------------------------
# pushforward of a connection table under w = m x, written out here so that
# classifier witnesses are checked without the package's own transform


def _unpack(c):
    return (((c[0], c[1]), (c[2], c[3])), ((c[2], c[3]), (c[4], c[5])))


def push(coeffs, m) -> tuple:
    """Packed table of the image chart: G'^k_ij = m^k_r inv^p_i inv^q_j G^r_pq."""
    (a, b), (c, d) = m
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    g = _unpack(coeffs)

    def entry(i, j, k):
        return sum(
            m[k][r] * inv[p][i] * inv[q][j] * g[p][q][r]
            for p, q, r in product(range(2), repeat=3)
        )

    return (entry(0, 0, 0), entry(0, 0, 1), entry(0, 1, 0),
            entry(0, 1, 1), entry(1, 1, 0), entry(1, 1, 1))


# ----------------------------------------------------------------------------
# sweep: numeric exp_coverage maps


def _reached_centres(cover) -> np.ndarray:
    cx = 0.5 * (cover.x_edges[:-1] + cover.x_edges[1:])
    cy = 0.5 * (cover.y_edges[:-1] + cover.y_edges[1:])
    i, j = np.nonzero(cover.grid == 1)
    return np.column_stack([cx[i], cy[j]])


def _cell_size(cover) -> float:
    return float(max(np.max(np.diff(cover.x_edges)), np.max(np.diff(cover.y_edges))))


def _base_reached(cover, base) -> bool:
    i = int(np.searchsorted(cover.x_edges, base[0], side="right")) - 1
    j = int(np.searchsorted(cover.y_edges, base[1], side="right")) - 1
    return bool(cover.grid[i, j] == 1)


def _launches(angles: int):
    """Launch directions of a numeric sweep: th_k = 2 pi k / angles."""
    th = 2.0 * np.pi * np.arange(angles) / angles
    return np.cos(th), np.sin(th)


def _check_s3_map(base):
    """S3 geodesics stay in the strip |x2 - b2| < pi around the base."""

    def check(cover) -> bool:
        if not _base_reached(cover, base):
            return False
        j = np.nonzero(np.any(cover.grid == 1, axis=0))[0]
        lo, hi = cover.y_edges[j], cover.y_edges[j + 1]
        return bool(np.all((lo < base[1] + math.pi) & (hi > base[1] - math.pi)))

    return check


def _h2_distance(p: np.ndarray, base, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Distance from points p (n, 2) to the H2 geodesic through base along (v1, v2).

    The orbit is the circle centred on x1 = 0 through the base and orthogonal
    to the velocity there, or the line x2 = b2 when v2 = 0.  Written without
    the centre so that it stays exact as v2 -> 0.
    """
    b1, b2 = base
    x = p[:, 0:1]
    y = p[:, 1:2] - b2
    num = np.abs(v2 * (x * x + y * y - b1 * b1) - 2.0 * y * b1 * v1)
    den = np.hypot(v2 * x, v2 * y - b1 * v1) + b1 * np.hypot(v1, v2)
    return num / den


def _s3t_curve(base, v1, v2, t_max, step) -> np.ndarray:
    """Closed form of S3~ geodesics: x2 = b2 + v2 t, x1 = b1 cos(v2 t) + (v1/v2) sin(v2 t)."""
    t = np.arange(-t_max, t_max + step, step)
    if v2 == 0.0:
        return np.column_stack([base[0] + v1 * t, np.full_like(t, base[1])])
    x1 = base[0] * np.cos(v2 * t) + (v1 / v2) * np.sin(v2 * t)
    return np.column_stack([x1, base[1] + v2 * t])


def _check_curve_map(base, distance):
    """Every reached cell lies within one cell of a closed-form launch curve."""

    def check(cover) -> bool:
        if not _base_reached(cover, base):
            return False
        pts = _reached_centres(cover)
        return bool(np.all(distance(cover, pts) <= _cell_size(cover)))

    return check


def _h2_check(base, angles):
    c, s = _launches(angles)

    def distance(cover, pts):
        return np.min(_h2_distance(pts, base, c[None, :], s[None, :]), axis=1)

    return _check_curve_map(base, distance)


def _s3t_check(base, angles, t_max):
    from scipy.spatial import cKDTree

    c, s = _launches(angles)

    def distance(cover, pts):
        h = _cell_size(cover)
        # |x'(t)| <= |b1| + 2 for unit launches, so this spacing is <= h / 8
        step = h / (8.0 * (abs(base[0]) + 2.0))
        x_lo, x_hi = cover.x_edges[0] - 2 * h, cover.x_edges[-1] + 2 * h
        y_lo, y_hi = cover.y_edges[0] - 2 * h, cover.y_edges[-1] + 2 * h
        curves = []
        for v1, v2 in zip(c, s):
            curve = _s3t_curve(base, float(v1), float(v2), t_max, step)
            inside = ((curve[:, 0] >= x_lo) & (curve[:, 0] <= x_hi)
                      & (curve[:, 1] >= y_lo) & (curve[:, 1] <= y_hi))
            curves.append(curve[inside])
        # a reached centre lies within half a cell diagonal of the curve, and
        # the nearest sample adds at most h / 16 to that: below one cell
        dist, _ = cKDTree(np.concatenate(curves)).query(pts)
        return dist

    return _check_curve_map(base, distance)


def _sweep_ops(rng: random.Random, api) -> list[Op]:
    def coverage_op(name, base, window, check):
        field = api.get_model(name).field
        return Op(
            "coverage.exp_coverage", f"sweep:{name}",
            lambda: api.exp_coverage(field, base, window, SWEEP_CELLS,
                                     angles=SWEEP_ANGLES, t_max=SWEEP_T_MAX[name]),
            check,
        )

    b = _base(rng, "A")
    window = (b[0] - rng.uniform(2.5, 3.0), b[0] + rng.uniform(2.5, 3.0),
              b[1] - rng.uniform(4.0, 4.5), b[1] + rng.uniform(4.0, 4.5))
    ops = [coverage_op("S3", b, window, _check_s3_map(b))]

    # unit launches: the cost of an H2 or S3~ map depends on b1, so b1 stays
    # in a narrow band; S3 is translation invariant
    b = (rng.uniform(0.9, 1.1), rng.uniform(-0.25, 0.25))
    window = (b[0] * rng.uniform(0.03, 0.08), b[0] * rng.uniform(2.8, 3.2),
              b[1] - b[0] * rng.uniform(1.8, 2.2), b[1] + b[0] * rng.uniform(1.8, 2.2))
    ops.append(coverage_op("H2", b, window, _h2_check(b, SWEEP_ANGLES)))

    b = (rng.uniform(0.7, 0.8), rng.uniform(-0.25, 0.25))
    window = (b[0] - rng.uniform(2.8, 3.2), b[0] + rng.uniform(2.8, 3.2),
              b[1] - rng.uniform(3.8, 4.2), b[1] + rng.uniform(3.8, 4.2))
    ops.append(coverage_op("S3~", b, window,
                           _s3t_check(b, SWEEP_ANGLES, SWEEP_T_MAX["S3~"])))
    return ops


# ----------------------------------------------------------------------------
# probe: one trajectory per call


def _check_complete(traj) -> bool:
    lo, hi = PROBE_SPAN
    return bool(traj.status_forward == "complete" and traj.status_backward == "complete"
                and traj.t[0] == lo and traj.t[-1] == hi and np.all(np.isfinite(traj.x)))


def _near(t_escape, want) -> bool:
    return t_escape is not None and abs(t_escape - want) < 1e-6 * (1.0 + abs(want))


def _check_escape(forward, backward):
    """``forward``/``backward`` is the expected escape time, or None for complete."""

    def side(status, t_escape, want):
        if want is None:
            return status == "complete"
        return status == "blowup" and _near(t_escape, want)

    def check(traj) -> bool:
        return side(traj.status_forward, traj.t_escape_forward, forward) and \
            side(traj.status_backward, traj.t_escape_backward, backward)

    return check


def _check_l2_conserved(base, vel):
    """c = v2/x1^2 and lam = (v2^2 - v1^2)/x1^2 are constant along L2 geodesics.

    Samples closer to the x1 = 0 edge than b1/4 are skipped: there both
    quantities are ratios of numbers below the absolute tolerance.
    """
    b1 = base[0]
    c0 = vel[1] / b1 ** 2
    lam0 = (vel[1] ** 2 - vel[0] ** 2) / b1 ** 2
    speed = math.hypot(*vel)

    def check(traj) -> bool:
        x1 = traj.x[:, 0]
        keep = x1 >= 0.25 * b1
        x1, v = x1[keep], traj.v[keep]
        if x1.size < 2 or not np.all(np.isfinite(v)):
            return False
        c = v[:, 1] / x1 ** 2
        lam = (v[:, 1] ** 2 - v[:, 0] ** 2) / x1 ** 2
        return bool(np.max(np.abs(c - c0)) <= 1e-6 * speed / b1 ** 2
                    and np.max(np.abs(lam - lam0)) <= 1e-6 * (speed / b1) ** 2)

    return check


def _check_first_conjugate(want):
    return lambda hits: len(hits) >= 1 and abs(hits[0] - want) < 1e-6


def _geodesic_op(api, label, field, point, velocity, tol, check, samples=11):
    rtol, atol = tol
    return Op(
        "geodesics.integrate_geodesic", label,
        lambda: api.integrate_geodesic(field, point, velocity, PROBE_SPAN, samples=samples,
                                       rtol=rtol, atol=atol),
        check,
    )


def _base(rng: random.Random, kind: str) -> tuple[float, float]:
    """Seeded base point within 1/4 of (0, 0) for kind A, of (1, 0) otherwise.

    The solver's error scale grows with |x|, so a wider spread of base points
    changed the cost of single probes by up to 50 % between seeds.
    """
    if kind == "A":
        return (rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
    return (rng.uniform(0.8, 1.25), rng.uniform(-0.25, 0.25))


def _stratum(rng: random.Random, k: int, n: int) -> float:
    """Point of stratum k of n in [0, 1): its midpoint plus the seeded jitter."""
    return (k + 0.5 + JITTER * (rng.random() - 0.5)) / n


def _probe_ops(rng: random.Random, api) -> list[Op]:
    ops = []

    # complete models: two directions per model, one per tolerance, in the
    # two halves of [0, pi); a launch and its reverse trace the same curve
    # over a symmetric window, so half a turn is the whole direction space
    for spec in COMPLETE_MODELS:
        field = api.parse_model_spec(spec).field
        for k, tol in enumerate(PROBE_TOLERANCES):
            th = math.pi * _stratum(rng, k, 2)
            if field.kind == "B":
                b = _base(rng, "B")
                v = (b[0] * PROBE_SPEED * math.cos(th), b[0] * PROBE_SPEED * math.sin(th))
            elif field.kind == "analytic":
                # S3~ is symmetric under x1 -> s x1 with v1 -> s v1
                b = _base(rng, "B")
                v = (b[0] * PROBE_SPEED * math.cos(th), PROBE_SPEED * math.sin(th))
            else:
                b = _base(rng, "A")
                v = (PROBE_SPEED * math.cos(th), PROBE_SPEED * math.sin(th))
            ops.append(_geodesic_op(api, f"complete:{spec}", field, b, v, tol,
                                    _check_complete))

    # incomplete models, one launch per tolerance, speeds stratified in [0.5, 1.5]
    s1 = api.get_model("S1").field
    s3 = api.get_model("S3").field
    l2 = api.get_model("L2").field
    for k, tol in enumerate(PROBE_TOLERANCES):
        speed = 0.5 + _stratum(rng, k, 2)
        b = _base(rng, "A")
        # S1 horizontal launch: x1' = v1 / (1 - v1 t) blows up at t = 1/v1
        ops.append(_geodesic_op(api, "escape:S1", s1, b, (speed, 0.0), tol,
                                _check_escape(1.0 / speed, None)))
    for k, tol in enumerate(PROBE_TOLERANCES):
        speed = 0.5 + _stratum(rng, k, 2)
        b = _base(rng, "A")
        # S3 vertical launch: x1' = v2 tan(v2 t) blows up at t = +-pi/(2 v2)
        esc = math.pi / (2.0 * speed)
        ops.append(_geodesic_op(api, "escape:S3", s3, b, (0.0, speed), tol,
                                _check_escape(esc, -esc)))
    for k, tol in enumerate(PROBE_TOLERANCES):
        speed = 0.5 + _stratum(rng, k, 2)
        b = _base(rng, "B")
        w = b[0] * speed
        # the null ray from (1, 0) along (1, 1) escapes at t = 1; scaling
        # x -> b1 x and the reflection x1' -> -x1' carry it to these launches
        if k == 0:
            check = _check_escape(1.0 / speed, None)
            v = (w, w)
        else:
            check = _check_escape(None, -1.0 / speed)
            v = (-w, w)
        ops.append(_geodesic_op(api, "escape:L2null", l2, b, v, tol, check))
    # timelike and spacelike launches at pi/8 and 5pi/8, clear of the null
    # directions pi/4 and 3pi/4 where the cost changes fastest
    for k, tol in enumerate(PROBE_TOLERANCES):
        th = math.pi * _stratum(rng, 2 * k, 4)
        b = _base(rng, "B")
        v = (b[0] * PROBE_SPEED * math.cos(th), b[0] * PROBE_SPEED * math.sin(th))
        ops.append(_geodesic_op(api, "conserved:L2", l2, b, v, tol,
                                _check_l2_conserved(b, v), samples=101))

    # conjugate points: the pseudosphere meridian through (0, v0) at speed s
    # meets its first conjugate point at pi / s; L2 has none in (0, pi)
    pseudo = api.get_model("pseudosphere").field
    s = 0.8 + 0.45 * _stratum(rng, 0, 1)
    b = (0.0, rng.uniform(-0.25, 0.25))
    ops.append(Op("jacobi.conjugate_points", "conjugate:pseudosphere",
                  lambda b=b, s=s: api.conjugate_points(pseudo, b, (0.0, s), 3.5 / s),
                  _check_first_conjugate(math.pi / s)))
    root2 = math.sqrt(2.0)
    for kind, (u1, u2) in (("spacelike", (0.0, 1.0)), ("timelike", (root2, 1.0)),
                           ("null", (1.0, 1.0))):
        b = _base(rng, "B")
        v = (b[0] * u1, b[0] * u2)
        ops.append(Op("jacobi.conjugate_points", f"conjugate:L2:{kind}",
                      lambda b=b, v=v: api.conjugate_points(l2, b, v, math.pi - 1e-3),
                      lambda hits: hits == []))
    return ops


# ----------------------------------------------------------------------------
# exact: classification, closed-form L2 maps and spray isometries


def _random_fraction(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _shear_scale(rng: random.Random) -> tuple:
    """Matrix of (x1, x2) -> (x1, delta x1 + gamma x2), entries p/q, |p| <= 8, q <= 6."""
    gamma = Fraction(0)
    while gamma == 0:
        gamma = _random_fraction(rng, 8, 6)
    return ((Fraction(1), Fraction(0)), (_random_fraction(rng, 8, 6), gamma))


def _gl2(rng: random.Random) -> tuple:
    """GL(2) frame with entries p/q, |p| <= 4, q <= 3, and |det| > 1/10."""
    while True:
        m = tuple(tuple(_random_fraction(rng, 4, 3) for _ in range(2)) for _ in range(2))
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) > Fraction(1, 10):
            return m


def _check_type_b(name, c, moved, canonical):
    def check(nf) -> bool:
        if nf.verdict != name or (c is not None and nf.c != c):
            return False
        w = nf.witness.matrix()
        exact = all(isinstance(e, Fraction) for row in w for e in row)
        return exact and push(moved, w) == canonical

    return check


def _check_type_a(name, moved):
    canonical = np.array([float(v) for v in CANON_A[name]])
    moved_f = tuple(float(v) for v in moved)

    def check(nf) -> bool:
        if nf.verdict != f"TypeA_{name}" or nf.witness is None:
            return False
        w = tuple(tuple(float(e) for e in row) for row in nf.witness)
        return bool(np.max(np.abs(np.array(push(moved_f, w)) - canonical)) < 1e-8)

    return check


def _check_l2_map(base):
    """Cells outside the wedge |x2 - b2| < b1 + x1 are never reached, and at
    least 95 % of the interior is.  The wedge at base (1, 0) is |x2| < 1 + x1;
    scaling x -> b1 x and shifting x2 carry it to any base."""
    b1, b2 = base
    margin = 0.05 * b1

    def check(cover) -> bool:
        cx = 0.5 * (cover.x_edges[:-1] + cover.x_edges[1:])
        cy = 0.5 * (cover.y_edges[:-1] + cover.y_edges[1:])
        gap = np.abs(cy[None, :] - b2) - (b1 + cx[:, None])
        reached = cover.grid == 1
        if np.any(reached & (gap > margin)):
            return False
        interior = gap < -margin
        return bool(np.sum(reached & interior) >= 0.95 * np.sum(interior))

    return check


def _t_l2(s, t):
    a = s - 0.5 * s * s * t
    return np.array([1.0 / a, 2.0 / s - 1.0 / a])


def _t_s2(s, t):
    return np.array([1.0 - t * s, s + 0.5 * t - 0.5 * t * s * s, s - 0.5 * t - 0.5 * t * s * s])


def _pullback_defect(label, s, t):
    """Defects of the pullback against (t^2, 1, 0), by central differences."""
    h = 1e-5
    if label == "TS2":
        fn = _t_s2
        inner = lambda p, a, b: a[0] * b[0] + a[1] * b[1] - a[2] * b[2]
    else:
        fn = _t_l2
        inner = lambda p, a, b: (-a[0] * b[0] + a[1] * b[1]) / p[0] ** 2
    p = fn(s, t)
    ds = (fn(s + h, t) - fn(s - h, t)) / (2 * h)
    dt = (fn(s, t + h) - fn(s, t - h)) / (2 * h)
    return np.array([inner(p, ds, ds) - t * t, inner(p, ds, dt) - 1.0, inner(p, dt, dt)])


def _check_isometry(label, grid, sample_rows):
    s_vals, t_spec = grid
    n_rows = sum(len(t_spec(s)) if callable(t_spec) else len(t_spec) for s in s_vals)

    def check(report) -> bool:
        rows = np.asarray(report.rows)
        if rows.shape != (n_rows, 5) or not np.all(np.isfinite(rows)):
            return False
        if np.max(np.abs(rows[:, 2:5])) >= 1e-8:
            return False
        for i in sample_rows:
            s, t = rows[i, 0], rows[i, 1]
            scale = 1.0 + abs(t) ** 2 + (1.0 / s ** 2 if label == "TL2" else 0.0)
            if np.max(np.abs(_pullback_defect(label, s, t) - rows[i, 2:5])) > 1e-5 * scale:
                return False
        return True

    return check


def _exact_ops(rng: random.Random, api) -> list[Op]:
    ops = []
    for name, c, canonical in CANON_B:
        for _ in range(7):
            moved = push(canonical, _shear_scale(rng))
            ops.append(Op("classify.type_b", f"type_b:{name}",
                          lambda moved=moved: api.classify_type_b(moved),
                          _check_type_b(name, c, moved, canonical)))
    for coeffs, verdict in IMPOSSIBLE_B:
        for _ in range(4):
            moved = push(tuple(Fraction(v) for v in coeffs), _shear_scale(rng))
            ops.append(Op("classify.type_b", f"type_b:{verdict}",
                          lambda moved=moved: api.classify_type_b(moved),
                          lambda nf, verdict=verdict: nf.verdict == verdict))

    pool = random.Random(TYPE_A_POOL_SEED)
    for i in range(3 * TYPE_A_FRAMES_PER_FAMILY):
        name = ("S1", "S2", "S3")[i % 3]
        moved = push(CANON_A[name], _gl2(pool))
        ops.append(Op("classify.type_a", f"type_a:{name}",
                      lambda moved=moved: api.classify_type_a(moved),
                      _check_type_a(name, moved)))

    l2 = api.get_model("L2").field
    for _ in range(2):
        b = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        window = (0.0, b[0] * rng.uniform(3.6, 4.4),
                  b[1] - b[0] * rng.uniform(3.6, 4.4), b[1] + b[0] * rng.uniform(3.6, 4.4))
        ops.append(Op("coverage.exp_coverage", "l2_map",
                      lambda b=b, window=window: api.exp_coverage(l2, b, window, L2_MAP_CELLS),
                      _check_l2_map(b)))

    n = ISOMETRY_GRID
    s_vals = np.linspace(rng.uniform(-2.0, -1.8), rng.uniform(1.8, 2.0), n)
    t_vals = np.linspace(rng.uniform(-2.0, -1.8), rng.uniform(1.8, 2.0), n)
    ts2 = (s_vals, t_vals)
    t_lo, t_gap = rng.uniform(-3.0, -2.8), rng.uniform(0.05, 0.1)
    tl2 = (np.linspace(rng.uniform(0.1, 0.2), rng.uniform(2.8, 3.0), n),
           lambda s: np.linspace(t_lo, 2.0 / s - t_gap, n))
    for label, fn, target, grid in (("TS2", "map_T_S2", "minkowski", ts2),
                                    ("TL2", "map_T_L2", "L2", tl2)):
        sample_rows = [rng.randrange(n * n) for _ in range(8)]
        ops.append(Op("sprays.verify_isometry", f"isometry:{label}",
                      lambda fn=fn, target=target, grid=grid, label=label:
                      api.verify_isometry(getattr(api, fn), target, grid, label=label),
                      _check_isometry(label, grid, sample_rows)))
    return ops


_MAKERS = {"sweep": _sweep_ops, "probe": _probe_ops, "exact": _exact_ops}


def build(workload: str, seed: int, api) -> list[Op]:
    """The workload's pass: the same list of operations is run in every pass."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), api)


def warm_up(workload: str, api) -> None:
    """Small fixed calls that reach every code path the workload times."""
    if workload == "sweep":
        for name in ("S3", "H2", "S3~"):
            field = api.get_model(name).field
            base = (1.0, 0.0)
            api.exp_coverage(field, base, (0.5, 1.5, -0.5, 0.5), 4, angles=1, t_max=0.5)
    elif workload == "probe":
        for name in ("S1", "S3~", "H2"):
            api.integrate_geodesic(api.get_model(name).field, (1.0, 0.0), (0.5, 0.5),
                                   (-0.5, 0.5), samples=11)
        for name in ("pseudosphere", "L2"):
            api.conjugate_points(api.get_model(name).field, (1.0, 0.0), (0.0, 1.0), 0.3,
                                 scan_samples=8)
    else:
        api.classify_type_b((-1, 0, 0, -1, -1, 0))
        api.classify_type_a(CANON_A["S3"])
        api.exp_coverage(api.get_model("L2").field, (1.0, 0.0), (0.0, 2.0, -2.0, 2.0), 4)
        api.verify_isometry(api.map_T_S2, "minkowski", api.ts2_grid(3))
        api.verify_isometry(api.map_T_L2, "L2", api.tl2_grid(3))

"""Command line front end for the affine surface toolkit.

Subcommands: ``classify`` (normal-form classification of a coefficient
table), ``geodesic`` (trace one geodesic to CSV/SVG), ``expmap``
(exponential-map coverage of a window), ``spray`` (null spray chart
verification), and ``curvature`` (curvature report for a model or raw
coefficients).

Exit codes: 0 any computed verdict, 2 malformed input or configuration,
3 inconclusive classification, 4 integration failure.  Outputs depend
only on the supplied configuration and seed, so repeated runs are
byte-identical (golden-file testable).  Coefficients such as ``-1/2`` are
positional values, with or without a ``--`` separator before them, and
option values may start with a minus sign, as in ``--tspan -2,2``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .catalog import parse_model_spec
from .classify import classify_type_a, classify_type_b
from .coverage import exp_coverage
from .curvature import (
    is_flat,
    is_locally_symmetric,
    nabla_ricci_table,
    ricci_at,
    ricci_table,
)
from .errors import (
    AffineSurfaceError,
    ClassificationInconclusiveError,
    IntegrationError,
)
from .fields import COEFF_NAMES, ChristoffelField, christoffel_at, tensor_to_coeffs
from .geodesics import integrate_geodesic, write_trajectory_csv
from .lorentz import fit_l2_geodesic
from .sprays import (
    IsometryReport,
    map_T_L2,
    map_T_S2,
    spine_sprays,
    spray_metric_grid,
    tl2_grid,
    ts2_grid,
    verify_composition,
    verify_isometry,
)
from .svg import coverage_svg, polyline_svg

__all__ = ["main", "DEFAULTS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTEGRATION = 4

DEFAULTS = {
    "classify": {"tol": 1e-9, "starts": 64, "seed": 1902},
    "geodesic": {
        "samples": 201,
        "rtol": 1e-10,
        "atol": 1e-12,
        "format": "csv",
        "out": None,
    },
    "expmap": {
        "cells": 80,
        "angles": 256,
        "tol": 1e-8,
        "tmax": 40.0,
        "format": "csv",
        "out": None,
    },
    "spray": {"grid": 41, "out": None},
    "curvature": {"point": "1,0"},
}

# Tokens such as -1/2 or -1,1 are values too; argparse alone takes only -1 and -0.5
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

_SPRAY_TARGETS = ("TS2", "TL2", "composition", "spine-vertical", "spine-horizontal")


def _parse_floats(text: str, n: int, label: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{label} needs {n} comma-separated numbers, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{label} needs finite numbers, got {text!r}")
    return values


def _parse_fractions(values) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        try:
            out.append(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {v!r} as a rational p/q") from exc
    return tuple(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinesurf",
        description="Curvature, classification, geodesics, coverage maps, "
        "and null spray charts for locally symmetric affine surfaces.",
    )
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.add_argument(
        "--show-config", action="store_true", help="print all defaults and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="classify a six-coefficient table")
    p.add_argument("--type", dest="kind", choices=("A", "B"), required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--starts", type=int, default=None, help="ignored: type A is exact")
    p.add_argument("--seed", type=int, default=None, help="ignored: type A is exact")
    p.add_argument("coefficients", nargs=6, metavar="c", help=" ".join(COEFF_NAMES))
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("geodesic", help="trace one geodesic")
    p.add_argument("--model", required=True)
    p.add_argument("--p0", required=True, help="start point x1,x2")
    p.add_argument("--v0", required=True, help="start velocity v1,v2")
    p.add_argument("--tspan", required=True, help="window t_min,t_max containing 0")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--format", choices=("csv", "svg", "text"), default=None)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("expmap", help="coverage map of the exponential map")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True, help="base point x1,x2")
    p.add_argument("--window", required=True, help="x_lo,x_hi,y_lo,y_hi")
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--angles", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--format", choices=("csv", "svg"), default=None)
    p.add_argument("--out", default=None)
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("spray", help="verify a null spray or spine chart")
    p.add_argument("--verify", choices=_SPRAY_TARGETS, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default=None, help="defect CSV path")

    p = sub.add_parser("curvature", help="curvature report")
    p.add_argument("--model", default=None)
    p.add_argument("--type", dest="kind", choices=("A", "B"), default=None)
    p.add_argument("--point", default=None, help="evaluation point x1,x2")
    p.add_argument("coefficients", nargs="*", metavar="c", default=[])
    p._negative_number_matcher = _NEGATIVE_NUMBER

    return parser


def _effective(args, file_cfg: dict) -> dict:
    cfg = dict(DEFAULTS[args.command])
    section = file_cfg.get(args.command, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {args.command!r} must be a JSON object")
    for key in cfg:
        if key in section:
            cfg[key] = section[key]
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _int_option(cfg: dict, key: str) -> int:
    """An integer option; a float, a bool or any other value is malformed."""
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError(f"option {key!r} must be an integer, got {val!r}")
    return val


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommands

def _verdict_name(nf) -> str:
    name = nf.verdict
    if name.startswith("TypeA_"):
        name = name[len("TypeA_"):]
    if name == "S4" and nf.c is not None:
        name = f"S4:c={nf.c}"
    return name


def cmd_classify(args, cfg: dict) -> int:
    coeffs = _parse_fractions(args.coefficients)
    if args.kind == "B":
        nf = classify_type_b(coeffs)
    else:
        nf = classify_type_a(coeffs, residual_tol=float(cfg["tol"]))
    name = _verdict_name(nf)
    if nf.witness is None:
        print(name)
    elif args.kind == "B":
        w = nf.witness
        if w.delta == 0 and w.gamma == 1:
            desc = "identity"
        else:
            desc = f"x2 -> {w.delta}*x1 + {w.gamma}*x2"
        print(f"{name}, witness: {desc}")
    else:
        print(name)
        m = nf.witness
        print(f"witness: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]")
    print(f"residual: {float(nf.residual):.3e}")
    return EXIT_OK


def cmd_geodesic(args, cfg: dict) -> int:
    model = parse_model_spec(args.model)
    p0 = _parse_floats(args.p0, 2, "--p0")
    v0 = _parse_floats(args.v0, 2, "--v0")
    tspan = _parse_floats(args.tspan, 2, "--tspan")
    traj = integrate_geodesic(
        model.field,
        p0,
        v0,
        tspan,
        samples=_int_option(cfg, "samples"),
        rtol=float(cfg["rtol"]),
        atol=float(cfg["atol"]),
    )

    fmt = cfg["format"]
    if fmt == "csv":
        _emit(write_trajectory_csv(traj), cfg["out"])
    elif fmt == "svg":
        pad_x = 0.05 * max(np.ptp(traj.x[:, 0]), 1e-6)
        pad_y = 0.05 * max(np.ptp(traj.x[:, 1]), 1e-6)
        window = (
            float(traj.x[:, 0].min() - pad_x),
            float(traj.x[:, 0].max() + pad_x),
            float(traj.x[:, 1].min() - pad_y),
            float(traj.x[:, 1].max() + pad_y),
        )
        _emit(polyline_svg(window, [traj.x]), cfg["out"])

    print(f"model: {model.name}")
    print(f"status backward: {traj.status_backward}")
    print(f"status forward: {traj.status_forward}")
    print(f"samples: {traj.t.size}")
    if model.name == "L2":
        fit = fit_l2_geodesic(p0, v0)
        # vertical and point geodesics have no orbit hyperbola, so no beta
        beta = "" if fit.beta is None else f" beta={fit.beta:.12g}"
        print(f"fit: family={fit.family} lambda={fit.lam:.12g} c={fit.c:.12g}{beta}")
    stalled = "stalled" in (traj.status_forward, traj.status_backward)
    return EXIT_INTEGRATION if stalled else EXIT_OK


def cmd_expmap(args, cfg: dict) -> int:
    model = parse_model_spec(args.model)
    base = _parse_floats(args.base, 2, "--base")
    window = _parse_floats(args.window, 4, "--window")
    cover = exp_coverage(
        model.field,
        base,
        window,
        _int_option(cfg, "cells"),
        angles=_int_option(cfg, "angles"),
        tol=float(cfg["tol"]),
        t_max=float(cfg["tmax"]),
    )
    if cfg["format"] == "svg":
        _emit(coverage_svg(cover), cfg["out"])
    else:
        _emit(cover.to_csv(), cfg["out"])
    counts = cover.counts()
    print(f"model: {model.name}")
    print(f"cells: {cover.grid.shape[0]}x{cover.grid.shape[1]}")
    for key in ("reached", "unreached", "unknown"):
        print(f"{key}: {counts[key]}")
    return EXIT_OK


def _spine_report(kind: str, n: int) -> tuple[IsometryReport, float, str]:
    chart = spine_sprays(kind)
    if kind == "vertical":
        s_vals = np.linspace(-1.0, 1.0, n)
        t_vals = np.linspace(-1.2, 0.45, n)
    else:
        s_vals = np.linspace(0.4, 3.0, n)
        t_vals = np.linspace(-1.5, 0.25, n)
    nodes = [(s, t) for s in s_vals for t in t_vals]
    got = spray_metric_grid(chart, s_vals, t_vals).reshape(-1, 3)
    want = [chart.expected_form(s, t) for s, t in nodes]
    return IsometryReport.of(chart.label, nodes, got, want), 1e-6, "1e-6"


def cmd_spray(args, cfg: dict) -> int:
    n = _int_option(cfg, "grid")
    if n < 1:
        raise ValueError(f"--grid must be at least 1, got {n}")
    target = args.verify
    if target == "TS2":
        report = verify_isometry(
            map_T_S2, "minkowski", ts2_grid(n), label="pseudosphere spray"
        )
        tol, tol_str = 1e-8, "1e-8"
    elif target == "TL2":
        report = verify_isometry(map_T_L2, "L2", tl2_grid(n), label="half-plane spray")
        tol, tol_str = 1e-8, "1e-8"
    elif target == "composition":
        report = verify_composition(n=n)
        tol, tol_str = 1e-7, "1e-7"
    else:
        report, tol, tol_str = _spine_report(target.split("-", 1)[1], n)
    if cfg["out"] is not None:
        report.write_csv(cfg["out"])
    defect = report.max_defect
    print(f"verify: {target}")
    print(f"grid: {n}x{n}")
    verdict = "<" if defect < tol else "NOT <"
    print(f"max defect {defect:.6e} {verdict} {tol_str}")
    return EXIT_OK


def _format_table(arr: np.ndarray) -> str:
    rows = ", ".join(
        "[" + ", ".join(f"{v:.12g}" for v in row) + "]" for row in np.atleast_2d(arr)
    )
    return f"[{rows}]"


def cmd_curvature(args, cfg: dict) -> int:
    if (args.model is None) == (args.kind is None):
        raise ValueError("give exactly one of --model or --type with six coefficients")
    point = _parse_floats(cfg["point"], 2, "--point")
    if args.model is not None:
        model = parse_model_spec(args.model)
        field = model.field
        print(f"model: {model.name}")
    else:
        if len(args.coefficients) != 6:
            raise ValueError("--type needs six coefficient values")
        field = ChristoffelField(kind=args.kind, coeffs=_parse_fractions(args.coefficients))
    print(f"kind: {field.kind}")
    print(f"point: {point[0]:.12g},{point[1]:.12g}")
    for name, value in zip(COEFF_NAMES, tensor_to_coeffs(christoffel_at(field, point))):
        print(f"gamma {name}: {value:.12g}")
    if field.kind in ("A", "B"):
        rho = ricci_table(field)
        tbl = "[[" + "], [".join(
            ", ".join(str(v) for v in row) for row in rho.table
        ) + "]]"
        scale = f" * x1^-{rho.power}" if rho.power else ""
        print(f"ricci exact: {tbl}{scale}")
        print(f"nabla ricci zero: {str(nabla_ricci_table(field).is_zero()).lower()}")
    print(f"ricci at point: {_format_table(ricci_at(field, point))}")
    print(f"flat: {str(is_flat(field)).lower()}")
    print(f"locally symmetric: {str(is_locally_symmetric(field)).lower()}")
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "geodesic": cmd_geodesic,
    "expmap": cmd_expmap,
    "spray": cmd_spray,
    "curvature": cmd_curvature,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.show_config:
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    file_cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(file_cfg, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG

    try:
        cfg = _effective(args, file_cfg)
        return _COMMANDS[args.command](args, cfg)
    except ClassificationInconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (AffineSurfaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's layer tracer against the package it patches.

``benchmarks/tracing.py`` wraps package functions at the module attributes
their callers look up.  Installing it here makes a renamed or deleted
attribute fail the test suite, not only the benchmark run.  The tracer
source is read and executed; nothing under ``benchmarks/`` is written.
"""

from __future__ import annotations

import pathlib
import types

from affinesurf import classify, coverage, geodesics, jacobi, sprays
from affinesurf.catalog import get_model
from affinesurf.fields import ChristoffelField

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
MODULES = (classify, coverage, geodesics, jacobi, sprays)


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _attributes() -> dict:
    return {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}


def test_tracer_installs_and_uninstalls_on_the_package():
    tracer = _load_tracing().Tracer()
    before = _attributes()
    tracer.install()
    try:
        during = _attributes()
        assert any(during[key] is not value for key, value in before.items())
        geodesics.integrate_geodesic(
            get_model("H2").field, (1.0, 0.0), (0.5, 0.5), 0.5, samples=3
        )
        counts = tracer.take_counts()
        assert counts["integrate.solve_ode.calls"] == 1
        assert counts["fields.christoffel_at.calls"] > 0
        # the catalog charts get closed-form conjugate points, so the scalar
        # Jacobi sweep is traced on a chart that is not locally symmetric
        cubic = ChristoffelField.analytic(
            lambda x1, x2: (0.0, 0.0, 0.0, 0.0, x1 + 0.3 * x1 ** 3, 0.0),
            lambda x1, x2: ((0.0, 0.0),) * 4 + ((1.0 + 0.9 * x1 ** 2, 0.0), (0.0, 0.0)),
        )
        assert len(jacobi.conjugate_points(cubic, (0.5, 0.0), (0.2, 1.0), 4.0)) == 1
        counts = tracer.take_counts()
        assert counts["jacobi.rhs.calls"] > 0
        assert counts["curvature.curvature_at.calls"] > 0
        assert counts["jacobi.brentq.calls"] == 1
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

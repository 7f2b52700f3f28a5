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
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

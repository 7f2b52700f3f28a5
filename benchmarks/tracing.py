"""Layer tracing from outside the package.

``Tracer.install()`` replaces public functions at the module attribute each
caller looks up at call time (for example ``affinesurf.geodesics.solve_ode``)
with wrappers that record spans; ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.

A span has a name, a start, an end and its parent.  Spans of layers that run
once per right-hand-side evaluation (the Christoffel and curvature
evaluators and the right-hand sides themselves) are only aggregated, since a
single sweep makes hundreds of thousands of them; every other span is kept
in memory and written out when the run ends.  A layer's self time is its
span time minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child_time, span_id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id)
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counts: Counter = Counter()  # per-pass counters, reset by take_counts
        self._next_id = 0
        self._patches: list[tuple] = []
        self._calls_seen: dict[str, int] = {}

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *, keep: bool = True, on_result=None):
        """Wrap fn so that each call is a span named ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += frame[0]
                if keep:
                    pid = parent[1] if parent is not None else -1
                    self.spans.append((span_id, name, start, end, pid))
            if on_result is not None:
                on_result(out)
            return out

        wrapper.traced = True
        return wrapper

    def call(self, name: str, fn):
        """Run fn() as a top-level span (the benchmark's own public call)."""
        return self.span(name, fn)()

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        from affinesurf import classify, coverage, geodesics, jacobi, sprays

        counts = self.counts

        def solve_result(res):
            counts["integrate.rhs_evals"] += res.nfev
            counts["integrate.accepted_steps"] += len(res.ts) - 1
            if res.status != "reached":
                counts["integrate.collapsed_runs"] += 1

        def traced_solve(orig, rhs_name):
            inner = self.span("integrate.solve_ode", orig, on_result=solve_result)

            def solve_ode(f, *args, **kwargs):
                if not getattr(f, "traced", False):
                    f = self.span(rhs_name, f, keep=False)
                return inner(f, *args, **kwargs)

            return solve_ode

        def traced_rhs_factory(orig):
            def geodesic_rhs(field):
                return self.span("geodesics.rhs", orig(field), keep=False)

            return geodesic_rhs

        for mod in (geodesics, jacobi, sprays):
            self._patch(mod, "christoffel_at",
                        self.span("fields.christoffel_at", mod.christoffel_at, keep=False))
        for mod in (geodesics, jacobi):
            self._patch(mod, "geodesic_rhs", traced_rhs_factory(mod.geodesic_rhs))
        self._patch(geodesics, "solve_ode", traced_solve(geodesics.solve_ode, "geodesics.rhs"))
        self._patch(jacobi, "solve_ode", traced_solve(jacobi.solve_ode, "jacobi.rhs"))
        self._patch(jacobi, "curvature_at",
                    self.span("curvature.curvature_at", jacobi.curvature_at, keep=False))
        self._patch(jacobi, "brentq", self.span("jacobi.brentq", jacobi.brentq))
        self._patch(coverage, "integrate_geodesic",
                    self.span("geodesics.integrate_geodesic", coverage.integrate_geodesic,
                              on_result=lambda _: counts.update(["coverage.sweep_geodesics"])))
        self._patch(coverage, "l2_reach_verdict",
                    self.span("coverage.l2_reach_verdict", coverage.l2_reach_verdict))
        self._patch(coverage, "brentq", self.span("coverage.brentq", coverage.brentq))
        self._patch(coverage, "fit_l2_geodesic",
                    self.span("lorentz.fit_l2_geodesic", coverage.fit_l2_geodesic))
        self._patch(classify, "least_squares", self.span("classify.lm", classify.least_squares))
        self._patch(classify, "nabla_ricci_table",
                    self.span("curvature.nabla_ricci_table", classify.nabla_ricci_table))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # -- read-out ------------------------------------------------------------

    def take_counts(self) -> Counter:
        """Counters since the last call: span calls per name plus result counters."""
        out = Counter(self.counts)
        for name, (calls, _, _) in self.totals.items():
            out[name + ".calls"] = calls - self._calls_seen.get(name, 0)
            self._calls_seen[name] = calls
        self.counts.clear()
        return out

    def nested_in(self, name: str, ancestor: str) -> int:
        """Number of kept spans named ``name`` with an ``ancestor`` span above them."""
        by_id = {s[0]: s for s in self.spans}
        n = 0
        for span in self.spans:
            if span[1] != name:
                continue
            pid = span[4]
            while pid != -1:
                parent = by_id[pid]
                if parent[1] == ancestor:
                    n += 1
                    break
                pid = parent[4]
        return n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "columns": ["id", "name", "start", "end", "parent"],
                "spans": self.spans,
                "aggregates": {k: {"calls": v[0], "total_s": v[1], "child_s": v[2]}
                               for k, v in self.totals.items()},
            }, fh)

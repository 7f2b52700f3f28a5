"""Benchmark command for affinesurf.

    python3 benchmarks/run.py --workload {sweep,probe,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload: calls are made one after another
from a single thread, with the BLAS and OpenMP pools pinned to one thread.
The command runs whole passes over the workload's seeded operation list for
about ``--seconds``, checks every result against an independent oracle, and
prints one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the spans of
the traced passes are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Set-up is timed in fresh processes, some before the timed passes and the
# rest after them, so that one slow stretch of the host moves few of them.
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 3
CHILD_TIMEOUT_S = 120

perf = time.perf_counter


def _import_paths() -> None:
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------------
# set-up time: import plus warm-up, each in a fresh interpreter


def _setup_child(workload: str) -> int:
    t0 = perf()
    import affinesurf

    t1 = perf()
    from workloads import warm_up

    t2 = perf()
    warm_up(workload, affinesurf)
    t3 = perf()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))
    return 0


def _spawn_setup(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_setup(workload: str, n: int) -> list[dict]:
    """Set-up of ``n`` fresh processes.  The caller has imported the package
    already, so the bytecode cache is warm."""
    return [_spawn_setup(workload) for _ in range(n)]


def summarize_setup(runs: list[dict]) -> dict:
    """Median set-up over the sampled processes."""
    total = [r["import_s"] + r["warmup_s"] for r in runs]
    return {
        "setup_s": statistics.median(total),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "warmup_s": statistics.median(r["warmup_s"] for r in runs),
    }


# ----------------------------------------------------------------------------
# timed passes


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []  # seconds per completed call
        self.index: list[int] = []  # op index of each completed call
        self.failed: list[tuple[str, str]] = []  # (label, error)
        self.wrong: list[str] = []  # labels whose result failed its oracle
        self.counts = None


def run_pass(ops, tracer=None) -> Pass:
    record = Pass(tracer is not None)
    for i, op in enumerate(ops):
        t0 = perf()
        try:
            out = tracer.call(op.layer, op.call) if tracer is not None else op.call()
        except Exception as exc:  # an operation that fails is counted, not fatal
            record.failed.append((op.label, repr(exc)))
            continue
        record.times.append(perf() - t0)
        record.index.append(i)
        if not op.check(out):
            record.wrong.append(op.label)
    return record


def run_passes(ops, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes, so that the run measures ``seconds`` give or take half a pass.

    The run stops when one more pass, at the mean pass time so far, would
    end farther past ``seconds`` than the run now falls short of it.  With a
    tracer, odd passes are traced and at least one pass of each kind is run.
    """
    passes: list[Pass] = []
    start = perf()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            record = run_pass(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record.counts = tracer.take_counts()
        passes.append(record)
        need_more = tracer is not None and len(passes) < 2
        elapsed = perf() - start
        if not need_more and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


# ----------------------------------------------------------------------------
# metrics


def _median_ms(times) -> float:
    return statistics.median(times) * 1e3


def _times(passes) -> list[float]:
    return [t for p in passes for t in p.times]


def end_to_end(passes, setup) -> dict:
    times = _times(passes)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (_median_ms(times), "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(ops, passes, tracer, setup) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    c = traced[0].counts
    tot = tracer.totals

    def per_call(name, scale):
        calls, total, _ = tot.get(name, (0, 0.0, 0.0))
        return total / calls * scale if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def kind_count(prefix):
        return sum(1 for op in ops if op.label.startswith(prefix))

    _, solve_s, solve_child_s = tot.get("integrate.solve_ode", (0, 0.0, 0.0))
    evals = c["integrate.rhs_evals"] * n
    type_a = [t for p in passes for i, t in zip(p.index, p.times)
              if ops[i].layer == "classify.type_a"]
    type_a_p90 = statistics.quantiles(type_a, n=10)[-1] * 1e3 if len(type_a) >= 2 else 0.0
    return {
        "fields.christoffel_at.calls": (c["fields.christoffel_at.calls"], "count"),
        "fields.christoffel_at.us_per_call": (per_call("fields.christoffel_at", 1e6), "us"),
        "geodesics.rhs.us_per_call": (per_call("geodesics.rhs", 1e6), "us"),
        "geodesics.integrate_geodesic.ms_per_call":
            (per_call("geodesics.integrate_geodesic", 1e3), "ms"),
        "integrate.solve_ode.calls": (c["integrate.solve_ode.calls"], "count"),
        "integrate.rhs_evals": (c["integrate.rhs_evals"], "count"),
        "integrate.accepted_steps": (c["integrate.accepted_steps"], "count"),
        "integrate.evals_per_step":
            (ratio(c["integrate.rhs_evals"], c["integrate.accepted_steps"]), "ratio"),
        "integrate.collapsed_runs": (c["integrate.collapsed_runs"], "count"),
        "integrate.us_per_rhs_eval": (ratio(solve_s, evals) * 1e6, "us"),
        "integrate.self_us_per_rhs_eval": (ratio(solve_s - solve_child_s, evals) * 1e6, "us"),
        "coverage.exp_coverage.ms_per_call": (per_call("coverage.exp_coverage", 1e3), "ms"),
        "coverage.sweep_geodesics_per_map":
            (ratio(c["coverage.sweep_geodesics"], kind_count("sweep:")), "count"),
        "coverage.l2_reach_verdict.us_per_call":
            (per_call("coverage.l2_reach_verdict", 1e6), "us"),
        "coverage.brentq.calls": (c["coverage.brentq.calls"], "count"),
        "lorentz.fit_l2_geodesic.calls": (c["lorentz.fit_l2_geodesic.calls"], "count"),
        "lorentz.fit_l2_geodesic.us_per_call": (per_call("lorentz.fit_l2_geodesic", 1e6), "us"),
        "jacobi.conjugate_points.ms_per_call": (per_call("jacobi.conjugate_points", 1e3), "ms"),
        "jacobi.rhs_evals": (c["jacobi.rhs.calls"], "count"),
        "jacobi.refine_solves":
            (tracer.nested_in("integrate.solve_ode", "jacobi.brentq") // n, "count"),
        "curvature.curvature_at.us_per_call": (per_call("curvature.curvature_at", 1e6), "us"),
        "classify.type_a.ms_per_call": (per_call("classify.type_a", 1e3), "ms"),
        "classify.type_a.p90_ms": (type_a_p90, "ms"),
        "classify.lm_runs": (c["classify.lm.calls"], "count"),
        "classify.lm_runs_per_verdict":
            (ratio(c["classify.lm.calls"], kind_count("type_a:")), "ratio"),
        "classify.lm.ms_per_call": (per_call("classify.lm", 1e3), "ms"),
        "classify.type_b.us_per_call": (per_call("classify.type_b", 1e6), "us"),
        "curvature.nabla_ricci_table.us_per_call":
            (per_call("curvature.nabla_ricci_table", 1e6), "us"),
        "sprays.verify_isometry.ms_per_call": (per_call("sprays.verify_isometry", 1e3), "ms"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.warmup_s": (setup["warmup_s"], "s"),
        "trace.overhead_ms_per_op": (_median_ms(_times(traced)) - _median_ms(_times(plain)), "ms"),
    }


def _inconsistent_counts(passes) -> list[str]:
    """Counter names whose value differs between traced passes (all should repeat)."""
    counts = [p.counts for p in passes if p.traced]
    names = set().union(*counts)
    return sorted(k for k in names if len({cnt[k] for cnt in counts}) > 1)


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "probe", "exact"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "affinesurf" / "__init__.py").is_file():
        print(f"error: no affinesurf sources under {SRC}", file=sys.stderr)
        return 2
    _import_paths()
    if args.setup_child:
        return _setup_child(args.workload)

    import affinesurf
    import workloads
    from tracing import Tracer

    setup_runs = sample_setup(args.workload, SETUP_RUNS_BEFORE)

    t0 = perf()
    ops = workloads.build(args.workload, args.seed, affinesurf)
    inputs_s = perf() - t0
    workloads.warm_up(args.workload, affinesurf)

    tracer = Tracer() if args.trace else None
    passes = run_passes(ops, args.seconds, tracer)
    setup = summarize_setup(setup_runs + sample_setup(args.workload, SETUP_RUNS_AFTER))

    attempted = len(ops) * len(passes)
    failed = [f for p in passes for f in p.failed]
    wrong = [w for p in passes for w in p.wrong]
    if tracer is None:
        metrics = end_to_end(passes, setup)
    else:
        metrics = per_layer(ops, passes, tracer, setup)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
        for name in _inconsistent_counts(passes):
            print(f"warning: counter {name} differs between traced passes", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {len(ops)}  measured {sum(_times(passes)):.1f} s  "
          f"inputs {inputs_s:.3f} s", file=sys.stderr)
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for i, t in zip(p.index, p.times):
            by_label.setdefault(ops[i].label, []).append(t)
    for label, times in sorted(by_label.items()):
        print(f"  {label:32s} median {_median_ms(times):10.2f} ms over {len(times)} calls",
              file=sys.stderr)
    for label, err in failed[:10]:
        print(f"failed: {label}: {err}", file=sys.stderr)
    for label in sorted(set(wrong)):
        print(f"oracle rejected: {label} ({wrong.count(label)}x)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'attempted':44s} {attempted:14d}")
    print(f"{'failed':44s} {len(failed):14d}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmarks/spread.py --workload probe --seeds 1-10 --seconds 25 [--trace 1]

Runs ``benchmarks/run.py`` one seed after another, never in parallel, and
prints every metric's median, first and third quartile, and the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = (int(v) for v in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    results = []
    walls = []
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=RUN.parent.parent, capture_output=True, text=True, check=True,
        )
        walls.append(time.perf_counter() - t0)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={walls[-1]:.1f}s {values}", flush=True)

    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    print(f"wall time per run: min {min(walls):.1f} s, max {max(walls):.1f} s, "
          f"total {sum(walls):.0f} s")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}  all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

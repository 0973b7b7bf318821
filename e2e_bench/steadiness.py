"""Steadiness of the end-to-end metrics across fresh processes.

    python3 e2e_bench/steadiness.py --repeats 10 --seconds 20

Runs ``run.py --trace 0`` for every workload ``--repeats`` times, one
process at a time, each repeat with the next seed and with the workload
order reversed on every other repeat, so slow drift on the machine does
not land on one workload.  Prints the median, the quartiles and the
quartile spread (``(q3 - q1) / median``) of every end-to-end metric, the
figures ``BENCHMARK.json``'s bounds are set from.  With ``--repeats 1``
it is the one command that runs all four workloads.  Exit status 1 when
a run failed or a check did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper-figs", "ring-1024", "recovery-verified", "fuzz-bands")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    units: dict[str, str] = {}
    shares: dict[str, set] = {w: set() for w in WORKLOADS}
    ok = True
    for repeat in range(args.repeats):
        order = WORKLOADS if repeat % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            seed = args.seed_base + repeat
            result = run_once(workload, seed, args.seconds)
            ok &= result["correct"]
            shares[workload].add((result["failed"], result["attempted"]))
            line = ", ".join(f"{name}={m['value']:.4g}"
                             for name, m in result["metrics"].items())
            print(f"[{repeat + 1}/{args.repeats}] {workload} seed={seed}: "
                  f"{result['attempted']} runs, {result['failed']} failed; "
                  f"{line}", flush=True)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]

    print(f"\n{'workload':<18} {'metric':<12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}  runs")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{workload:<18} {name:<12} {median:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread:>8.2%}  {len(vals)} ({units[name]})")
        print(f"{workload:<18} failed/attempted per run: "
              f"{sorted(shares[workload])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

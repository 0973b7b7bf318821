"""End-to-end benchmark of the simulator: one workload per invocation.

    python3 e2e_bench/run.py --workload paper-figs --seed 1 --seconds 20 --trace 0

Run from a source checkout: the program is imported from ``src/`` next
to this directory, never from an installed copy.  The run executes whole
rounds of the workload (see ``workloads.py``) until ``--seconds`` have
passed; a round is not started if it would likely end more than a
quarter of the window late.  After the timed phase every round's outputs
are checked.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": <simulation runs>, "failed": <runs
     failing a check>, "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics (medians over rounds).
``--trace 1`` alternates untraced rounds with rounds traced at every
layer boundary, reports the per-layer metrics (per traced round) and the
tracing overhead, then runs one more round with tracemalloc on for the
runs at the workload's largest process count (the ``mem.*`` split), and
writes the first traced round's spans to
``e2e_bench/out/trace-<workload>-seed<seed>.json``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark cannot run here (no ``src/repro`` beside it, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: a round is not started when it would likely end this far past the window
OVERRUN = 1.25


def _fatal(message: str) -> None:
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put ``src/`` first on the path and make sure ``repro`` came from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fatal(f"no program source at {SRC / 'repro'}; run from a checkout "
               f"of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fatal(f"imported repro from {repro.__file__}, not from {SRC}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-figs", "ring-1024",
                                 "recovery-verified", "fuzz-bands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _timed_round(workload, probe) -> tuple[float, float, object]:
    """One round: (wall seconds, set-up seconds, Round)."""
    gc.collect()  # the previous round's garbage is not this round's cost
    probe.setup_s = 0.0
    start = time.perf_counter()
    rnd = workload.run_round()
    wall = time.perf_counter() - start
    return wall, probe.setup_s, rnd


def _keep_going(started: float, seconds: float, walls: list[float]) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed + walls[-1] <= seconds * OVERRUN and elapsed < seconds


def measure(workload, probe, seconds: float) -> dict:
    walls, setups, rates, rounds = [], [], [], []
    started = time.perf_counter()
    while True:
        wall, setup, rnd = _timed_round(workload, probe)
        walls.append(wall)
        setups.append(setup)
        rates.append(rnd.delivers / (wall - setup))
        rounds.append(rnd)
        if not _keep_going(started, seconds, walls):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "msgs_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {"rounds": rounds, "metrics": metrics}


def measure_traced(workload, probe, seconds: float, out_path: Path) -> dict:
    from tracer import MemoryProbe, Tracer

    tracer = Tracer()
    plain, traced, rounds = [], [], []
    started = time.perf_counter()
    while True:
        walls = plain if len(plain) <= len(traced) else traced
        if walls is traced:
            tracer.recording = not traced  # keep the first traced round's spans
            tracer.install()
        try:
            wall, _, rnd = _timed_round(workload, probe)
        finally:
            tracer.uninstall()
        walls.append(wall)
        rounds.append(rnd)
        if traced and not _keep_going(started, seconds, plain + traced):
            break
    metrics = tracer.metrics(len(traced))
    metrics["tracing.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0, "%")
    gc.collect()
    with MemoryProbe(SRC / "repro", workload.max_nprocs) as memory:
        workload.run_round()
    metrics.update(memory.metrics())
    written = tracer.write_chrome_trace(out_path)
    print(f"{written} spans of the first traced round written to {out_path}")
    return {"rounds": rounds, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    from checks import failed_keys
    from tracer import SetupProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    probe = SetupProbe().install()
    try:
        if args.trace:
            out = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            result = measure_traced(workload, probe, args.seconds, out)
        else:
            result = measure(workload, probe, args.seconds)
    finally:
        probe.uninstall()

    reference = workload.reference()
    attempted = failed = 0
    for index, rnd in enumerate(result["rounds"]):
        failures = workload.check(rnd, reference)
        for failure in failures[:5]:
            print(f"CHECK FAILED (round {index}): {failure.message}")
        attempted += rnd.attempted
        failed += len(failed_keys(failures))

    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {len(result['rounds'])} rounds, "
          f"{attempted} runs attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

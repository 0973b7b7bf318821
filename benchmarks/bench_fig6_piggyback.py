"""Fig. 6: average amount of piggyback per message (identifiers).

One benchmark per (workload, protocol) pair; each runs the full 4-32
process sweep and reports the per-scale series.  The assertions pin the
paper's qualitative shape: TAG > TEL > TDI everywhere, TDI exactly
linear in the process count, the TAG/TDI gap widening with scale and
worst on LU (the most communication-intensive benchmark).

Beyond the paper's 32-rank ceiling, the large-scale section sweeps
n in {64, 256, 1024} on a communication-sparse ring workload to measure
what ``compress_piggybacks`` does to TDI's O(n) wire cost — in bytes on
the wire and in the wall time of each run, raw and compressed.  Run as
a module (``PYTHONPATH=src python benchmarks/bench_fig6_piggyback.py``)
to append one record to ``BENCH_piggyback.json``.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.config import SimulationConfig
from repro.harness.config import ExperimentOptions
from repro.harness.runner import Cell, run_cell
from repro.mpi.cluster import run_simulation
from repro.workloads.presets import workload_factory

OPTIONS = ExperimentOptions()  # paper preset, scales 4..32
SCALES = OPTIONS.scales

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_piggyback.json"
#: beyond-the-paper scales for the compressed-wire sweep
LARGE_SCALES = (64, 256, 1024)


def sweep(workload: str, protocol: str) -> dict[int, float]:
    series = {}
    for nprocs in SCALES:
        run = run_cell(
            Cell(workload, nprocs, protocol),
            preset=OPTIONS.preset,
            checkpoint_interval=OPTIONS.checkpoint_interval,
            seed=OPTIONS.seed,
        )
        series[nprocs] = run.stats.piggyback_identifiers_per_message
    return series


@pytest.mark.parametrize("workload", ("lu", "bt", "sp"))
@pytest.mark.parametrize("protocol", ("tdi", "tel", "tag"))
def test_fig6(benchmark, figure_report, workload, protocol):
    series = benchmark(sweep, workload, protocol)
    figure_report.append(
        f"fig6 {workload:9s} {protocol}: "
        + "  ".join(f"n={n}:{v:8.1f}" for n, v in sorted(series.items()))
    )
    if protocol == "tdi":
        for n, v in series.items():
            assert v == pytest.approx(n + 1), "TDI piggyback is the vector + index"


@pytest.mark.parametrize("workload", ("lu", "bt", "sp"))
def test_fig6_ordering(benchmark, figure_report, workload):
    """The figure's protocol ordering at every scale point."""

    def all_protocols():
        return {p: sweep(workload, p) for p in ("tdi", "tel", "tag")}

    series = benchmark(all_protocols)
    for n in SCALES:
        # TEL > TDI and TAG > TDI strictly; TAG vs TEL may near-tie at
        # the smallest, least-communicative points (see validate_fig6)
        assert series["tel"][n] > series["tdi"][n], (workload, n)
        assert series["tag"][n] > series["tel"][n] * 0.85, (workload, n)
    # scalability: the TAG/TDI ratio grows with the system scale
    first, last = SCALES[0], SCALES[-1]
    assert (series["tag"][last] / series["tdi"][last]
            > series["tag"][first] / series["tdi"][first])
    figure_report.append(
        f"fig6 {workload:9s} TAG/TDI ratio: n={first}: "
        f"{series['tag'][first] / series['tdi'][first]:.1f}x -> n={last}: "
        f"{series['tag'][last] / series['tdi'][last]:.1f}x"
    )


def test_fig6_lu_is_worst_for_graph_protocols(benchmark, figure_report):
    """Frequent message passing (LU) hurts TAG most — paper §IV.A."""

    def tag_across_workloads():
        return {wl: sweep(wl, "tag")[SCALES[-1]] for wl in ("lu", "bt", "sp")}

    values = benchmark(tag_across_workloads)
    assert values["lu"] > values["sp"] > values["bt"]
    figure_report.append(
        "fig6 TAG identifiers at n=32 by workload: "
        + "  ".join(f"{k}:{v:.0f}" for k, v in values.items())
    )


# ----------------------------------------------------------------------
# Beyond the paper: compressed piggybacks at 64-1024 ranks
# ----------------------------------------------------------------------

def ring_run(nprocs: int, *, compress: bool, rounds: int = 6):
    """One TDI run on the sparse ring workload at the given scale.

    Fixed nearest-neighbour strides keep each rank's causal cone to the
    few ranks within ``rounds`` hops, so the *delta* between consecutive
    piggybacks stays O(1) while the raw dense vector is O(n) — the
    regime the compressed encodings exist for.
    """
    config = SimulationConfig(
        nprocs=nprocs, protocol="tdi", seed=1,
        checkpoint_interval=10.0,  # no mid-run checkpoints; pure tracking
        compress_piggybacks=compress,
    )
    workload = workload_factory("synthetic", scale="fast",
                                pattern="ring", rounds=rounds)
    return run_simulation(config, workload)


def ring_measure(nprocs: int, *, compress: bool) -> tuple[float, float]:
    """``(piggyback bytes per app message put on the wire, wall seconds)``
    of one ring run."""
    start = time.perf_counter()
    run = ring_run(nprocs, compress=compress)
    wall_s = time.perf_counter() - start
    sends = run.stats.total("app_sends")
    counter = "piggyback_bytes_wire" if compress else "piggyback_bytes_raw"
    return run.stats.total(counter) / sends, wall_s


def ring_bytes_per_message(nprocs: int, *, compress: bool) -> float:
    """Piggyback bytes per app message actually put on the wire."""
    return ring_measure(nprocs, compress=compress)[0]


def ring_sweep() -> dict[int, dict[str, float]]:
    series: dict[int, dict[str, float]] = {}
    for nprocs in LARGE_SCALES:
        raw, raw_s = ring_measure(nprocs, compress=False)
        wire, wire_s = ring_measure(nprocs, compress=True)
        series[nprocs] = {"raw": raw, "wire": wire, "ratio": raw / wire,
                          "raw_s": raw_s, "wire_s": wire_s}
    return series


def test_compressed_ring_scaling(figure_report):
    """The tentpole claim: raw grows O(n), compressed stays near-flat."""
    series = ring_sweep()
    figure_report.append(
        "piggyback wire bytes/msg (ring, tdi): "
        + "  ".join(f"n={n}: raw={v['raw']:.0f} wire={v['wire']:.1f} "
                    f"({v['ratio']:.0f}x)" for n, v in sorted(series.items()))
    )
    # raw is the dense (n+1)-identifier encoding at 4 bytes each
    for n in LARGE_SCALES:
        assert series[n]["raw"] == pytest.approx(4 * (n + 1))
    # at 1024 ranks the compressed wire must beat raw by >= 10x
    assert series[1024]["ratio"] >= 10.0
    # and grow sublinearly across the sweep: each 4x scale step must
    # grow compressed bytes/msg by strictly less than 4x
    assert series[256]["wire"] < 4 * series[64]["wire"]
    assert series[1024]["wire"] < 4 * series[256]["wire"]


def test_compressed_ring_same_answer():
    """Compression is a wire format, not a semantics change."""
    base = ring_run(64, compress=False)
    comp = ring_run(64, compress=True)
    assert comp.answer == base.answer
    assert comp.stats.total("pb_undecodable_drops") == 0


# ----------------------------------------------------------------------
# Trajectory artifact
# ----------------------------------------------------------------------

def collect_record() -> dict:
    """Measure the ring sweep once and package it for the trajectory."""
    series = ring_sweep()
    return {
        "date": time.strftime("%Y-%m-%d"),
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {"kernel": "synthetic", "pattern": "ring", "rounds": 6,
                     "protocol": "tdi", "seed": 1},
        "scales": list(LARGE_SCALES),
        "raw_bytes_per_msg": {str(n): round(series[n]["raw"], 2)
                              for n in LARGE_SCALES},
        "wire_bytes_per_msg": {str(n): round(series[n]["wire"], 2)
                               for n in LARGE_SCALES},
        "compression_ratio": {str(n): round(series[n]["ratio"], 1)
                              for n in LARGE_SCALES},
        # wall time of each single ring run (one process, serial)
        "wall_s": {
            "raw": {str(n): round(series[n]["raw_s"], 3)
                    for n in LARGE_SCALES},
            "compressed": {str(n): round(series[n]["wire_s"], 3)
                           for n in LARGE_SCALES},
        },
        "command": "PYTHONPATH=src python benchmarks/bench_fig6_piggyback.py",
    }


def append_record(record: dict, path: Path = ARTIFACT) -> None:
    """Append ``record`` to the trajectory file (created on first use)."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": "bench_fig6_piggyback",
                "description": "piggyback bytes per message, raw vs "
                               "compressed wire encodings (TDI, sparse "
                               "ring workload, 64-1024 ranks), one "
                               "record appended per measurement run",
                "records": []}
    data["records"].append(record)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    """Measure, print, and append to the trajectory artifact."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=ARTIFACT,
                        help=f"trajectory file (default: {ARTIFACT})")
    args = parser.parse_args(argv)
    record = collect_record()
    append_record(record, args.out)
    print(json.dumps(record, indent=2))
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

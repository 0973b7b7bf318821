"""Output checks for the four benchmark workloads.

Every check works on plain records built from the program's run
summaries, so the self-test (``selftest.py``) can feed it a corrupted
copy and show that it fails.  A check returns a list of
:class:`Failure`; each names the runs it implicates, and those runs count
as failed.  Nothing here calls into the simulator: the reference values
(the ring checksum, the ``n + 1`` identifier count, the ``4(n + 1)`` raw
byte count) are computed from the method's definition, apart from the
program.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Failure:
    """One failed check: the run keys it implicates and why."""

    keys: tuple
    message: str


@dataclass(frozen=True)
class RunRecord:
    """The part of one run's summary the checks read."""

    key: tuple
    #: canonical reprs of every rank's application answer
    answer: tuple
    app_sends: int
    app_delivers: int
    identifiers: int
    pb_raw: int
    pb_wire: int
    undecodable: int
    recoveries: int
    violations: int
    accomplishment: float
    error: str | None = None


def record(key: tuple, summary) -> RunRecord:
    """Build a :class:`RunRecord` from a ``repro`` ``RunSummary``."""
    stats = summary.stats
    return RunRecord(
        key=key,
        answer=tuple(summary.results or ()),
        app_sends=int(stats.total("app_sends")),
        app_delivers=int(stats.total("app_delivers")),
        identifiers=int(stats.total("piggyback_identifiers")),
        pb_raw=int(stats.total("piggyback_bytes_raw")),
        pb_wire=int(stats.total("piggyback_bytes_wire")),
        undecodable=int(stats.total("pb_undecodable_drops")),
        recoveries=int(stats.total("recovery_count")),
        violations=len(summary.violations),
        accomplishment=float(summary.accomplishment_time),
        error=summary.error,
    )


@dataclass(frozen=True)
class ScenarioRecord:
    """One fuzz scenario's outcome."""

    name: str
    #: run keys of the scenario's legs, as the benchmark counts them
    legs: tuple
    runs_executed: int
    findings: tuple
    invalid: str | None = None


def failed_keys(failures: Iterable[Failure]) -> set:
    """Distinct runs implicated by ``failures``."""
    return {key for failure in failures for key in failure.keys}


def _errors(records: Iterable[RunRecord]) -> list[Failure]:
    return [Failure((r.key,), f"{r.key}: run raised {r.error}")
            for r in records if r.error is not None]


def _ids_per_msg(r: RunRecord) -> float:
    return r.identifiers / r.app_sends if r.app_sends else 0.0


# ----------------------------------------------------------------------
# paper-figs
# ----------------------------------------------------------------------

def check_paper_figs(cells: Mapping[tuple, RunRecord],
                     reference: Mapping[tuple, tuple]) -> list[Failure]:
    """``cells`` is keyed ``(workload, n, protocol)``; ``reference`` maps
    ``(workload, n)`` to the answer under protocol ``none``."""
    failures = _errors(cells.values())
    for (workload, n, protocol), r in cells.items():
        if r.answer != reference[(workload, n)]:
            failures.append(Failure((r.key,), (
                f"{r.key}: answer differs from the same cell under "
                f"protocol none")))
        if r.app_sends != r.app_delivers:
            failures.append(Failure((r.key,), (
                f"{r.key}: {r.app_sends} sends but {r.app_delivers} "
                f"deliveries")))
        if protocol == "tdi" and r.identifiers != (n + 1) * r.app_sends:
            failures.append(Failure((r.key,), (
                f"{r.key}: TDI carries {_ids_per_msg(r):.3f} identifiers "
                f"per message, Algorithm 1 says n + 1 = {n + 1}")))
    points = sorted({(w, n) for w, n, _ in cells})
    for workload, n in points:
        tdi, tag, tel = (cells[(workload, n, p)] for p in ("tdi", "tag", "tel"))
        for other in (tag, tel):
            if not _ids_per_msg(other) > _ids_per_msg(tdi):
                failures.append(Failure((other.key, tdi.key), (
                    f"{other.key}: {_ids_per_msg(other):.2f} identifiers per "
                    f"message, not above TDI's {_ids_per_msg(tdi):.2f}")))
    for workload in sorted({w for w, _ in points}):
        scales = sorted(n for w, n in points if w == workload)
        lo, hi = scales[0], scales[-1]

        def ratio(n: int) -> float:
            tdi = _ids_per_msg(cells[(workload, n, "tdi")])
            return _ids_per_msg(cells[(workload, n, "tag")]) / tdi if tdi else 0.0

        if not ratio(hi) > ratio(lo):
            keys = tuple(cells[(workload, n, p)].key
                         for n in (lo, hi) for p in ("tdi", "tag"))
            failures.append(Failure(keys, (
                f"{workload}: TAG/TDI identifiers per message does not grow "
                f"from n={lo} ({ratio(lo):.2f}) to n={hi} ({ratio(hi):.2f})")))
    return failures


# ----------------------------------------------------------------------
# ring-1024
# ----------------------------------------------------------------------

def ring_total(nprocs: int, rounds: int) -> int:
    """The ring workload's global answer, from its definition: in round
    ``k`` rank ``r`` receives ``(31k + 17s) mod 1009`` from its left
    neighbour ``s = r - 1``, folds it into ``c = (13c + got) mod 2^62``,
    and the ranks' checksums are summed."""
    total = 0
    for rank in range(nprocs):
        left = (rank - 1) % nprocs
        checksum = 0
        for k in range(rounds):
            checksum = (checksum * 13 + (k * 31 + left * 17) % 1009) % (1 << 62)
        total += checksum
    return total


def check_ring(r: RunRecord, nprocs: int, rounds: int) -> list[Failure]:
    failures = _errors([r])
    expected = ring_total(nprocs, rounds)
    totals = set()
    for answer in r.answer:
        try:
            totals.add(ast.literal_eval(answer)["total"])
        except (ValueError, SyntaxError, KeyError, TypeError):
            totals.add(None)
    if len(r.answer) != nprocs or totals != {expected}:
        failures.append(Failure((r.key,), (
            f"ring total {sorted(totals, key=repr)} over {len(r.answer)} "
            f"ranks, closed form gives {expected} on all {nprocs}")))
    if r.pb_raw != 4 * (nprocs + 1) * r.app_sends:
        failures.append(Failure((r.key,), (
            f"raw piggyback {r.pb_raw / max(r.app_sends, 1):.2f} B/msg, "
            f"expected 4(n + 1) = {4 * (nprocs + 1)}")))
    if not (0 < r.pb_wire and 10 * r.pb_wire <= r.pb_raw):
        failures.append(Failure((r.key,), (
            f"compressed wire bytes {r.pb_wire} not within a tenth of "
            f"raw {r.pb_raw}")))
    if r.undecodable:
        failures.append(Failure((r.key,), (
            f"{r.undecodable} undecodable piggybacks dropped")))
    return failures


# ----------------------------------------------------------------------
# recovery-verified
# ----------------------------------------------------------------------

def check_recovery(runs: Mapping[tuple, RunRecord]) -> list[Failure]:
    """``runs`` is keyed ``("probe", workload, n)`` for the probes and
    ``(workload, n, mode, "base" | "faulted")`` for the Fig. 8 matrix."""
    failures = _errors(runs.values())
    for r in runs.values():
        if r.violations:
            failures.append(Failure((r.key,), (
                f"{r.key}: {r.violations} oracle violation(s)")))
    points = sorted({(k[0], k[1]) for k in runs if k[0] != "probe"})
    for workload, n in points:
        for mode in ("blocking", "nonblocking"):
            base = runs[(workload, n, mode, "base")]
            faulted = runs[(workload, n, mode, "faulted")]
            if faulted.answer != base.answer:
                failures.append(Failure((faulted.key, base.key), (
                    f"{faulted.key}: answer differs from its failure-free "
                    f"twin")))
            if faulted.recoveries != 1 or base.recoveries != 0:
                failures.append(Failure((faulted.key, base.key), (
                    f"{faulted.key}: {faulted.recoveries} recoveries for one "
                    f"kill ({base.recoveries} without it)")))
        blocking = runs[(workload, n, "blocking", "faulted")]
        nonblocking = runs[(workload, n, "nonblocking", "faulted")]
        if nonblocking.accomplishment > blocking.accomplishment:
            failures.append(Failure((nonblocking.key, blocking.key), (
                f"{workload} n={n}: non-blocking faulted time "
                f"{nonblocking.accomplishment:.6f} exceeds blocking "
                f"{blocking.accomplishment:.6f}")))
    return failures


# ----------------------------------------------------------------------
# fuzz-bands
# ----------------------------------------------------------------------

def check_fuzz(scenarios: Iterable[ScenarioRecord]) -> list[Failure]:
    failures = []
    for s in scenarios:
        if s.invalid is not None:
            failures.append(Failure(s.legs, f"{s.name}: skipped: {s.invalid}"))
        if s.findings:
            failures.append(Failure(s.legs, (
                f"{s.name}: {len(s.findings)} finding(s): {s.findings[0]}")))
        if s.runs_executed != len(s.legs):
            failures.append(Failure(s.legs, (
                f"{s.name}: {s.runs_executed} runs executed, the scenario "
                f"defines {len(s.legs)} legs")))
    return failures

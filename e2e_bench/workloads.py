"""The four benchmark workloads.

Each workload turns ``--seed`` into fixed inputs once, then runs *rounds*:
one round executes every simulation of the workload, serially, in this
process, through the harness's own worker entry points with no result
cache and no process pool.  A round returns plain records; ``check``
judges them and ``reference`` computes whatever a check compares against
outside the timed phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import repro.fuzz.differential as differential
import repro.fuzz.scenario as fuzz_scenario
from repro.faults.injector import FaultSpec
from repro.harness.executor import run_batch, run_request
from repro.harness.runner import Cell, RunRequest

from checks import (Failure, ScenarioRecord, check_fuzz, check_paper_figs,
                    check_recovery, check_ring, record)


@dataclass
class Round:
    """What one round produced."""

    runs: dict = field(default_factory=dict)  # key -> RunRecord
    scenarios: list = field(default_factory=list)  # fuzz only

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def delivers(self) -> int:
        return sum(r.app_delivers for r in self.runs.values())


def _run_all(requests) -> dict:
    return {r.key: record(r.key, run_request(r)) for r in requests}


class PaperFigs:
    """The Fig. 6/7 matrix: LU, BT, SP x TDI, TAG, TEL x n in {4, 8, 16},
    paper preset, checkpoint interval 0.05, fault-free, raw piggybacks,
    oracle off.  Each kernel runs 6 of its 20 iterations so that a round
    takes seconds, not the ~17 s of the full preset."""

    name = "paper-figs"
    WORKLOADS = ("lu", "bt", "sp")
    SCALES = (4, 8, 16)
    PROTOCOLS = ("tdi", "tag", "tel")
    ITERATIONS = 6
    INTERVAL = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.max_nprocs = max(self.SCALES)
        self.requests = [self._request(w, n, p) for w in self.WORKLOADS
                         for n in self.SCALES for p in self.PROTOCOLS]

    def _request(self, workload: str, n: int, protocol: str) -> RunRequest:
        return RunRequest(
            key=(workload, n, protocol),
            cell=Cell(workload, n, protocol),
            preset="paper",
            checkpoint_interval=self.INTERVAL,
            seed=self.seed,
            workload_kwargs=(("iterations", self.ITERATIONS),),
        )

    def run_round(self) -> Round:
        return Round(runs=_run_all(self.requests))

    def reference(self) -> dict:
        """Every cell's answer under protocol ``none``."""
        refs = _run_all(self._request(w, n, "none") for w in self.WORKLOADS
                        for n in self.SCALES)
        return {(w, n): r.answer for (w, n, _), r in refs.items()}

    def check(self, rnd: Round, reference: dict) -> list[Failure]:
        return check_paper_figs(rnd.runs, reference)


class Ring1024:
    """The sparse ring (``synthetic``, ``pattern="ring"``) at n = 1024
    under TDI with compressed piggybacks, fault-free, oracle off.  Two
    rounds of the pattern: most of the codec's work is each channel's
    first, full record, which two rounds already pay in full."""

    name = "ring-1024"
    NPROCS = 1024
    ROUNDS = 2

    def __init__(self, seed: int) -> None:
        self.max_nprocs = self.NPROCS
        self.request = RunRequest(
            key=("ring", self.NPROCS),
            cell=Cell("synthetic", self.NPROCS, "tdi"),
            preset="paper",
            checkpoint_interval=0.05,
            seed=seed,
            workload_kwargs=(("pattern", "ring"), ("rounds", self.ROUNDS)),
            config_overrides=(("compress_piggybacks", True),),
        )

    def run_round(self) -> Round:
        return Round(runs=_run_all([self.request]))

    def reference(self) -> None:
        return None

    def check(self, rnd: Round, reference: None) -> list[Failure]:
        return check_ring(rnd.runs[self.request.key], self.NPROCS, self.ROUNDS)


class RecoveryVerified:
    """The Fig. 8 matrix under the oracle: TDI, blocking and non-blocking
    middleware, each failure-free and with one kill late in a checkpoint
    interval, LU, BT and SP at n in {8, 16}, paper preset cut to 6
    iterations.  As in the harness's ``fig8``, a probe run per point sets
    the checkpoint interval to a sixth of its failure-free span, and the
    kill of rank n/2 lands 1.95 intervals in: 0.95 of an interval after
    the first checkpoint past the initial one."""

    name = "recovery-verified"
    WORKLOADS = ("lu", "bt", "sp")
    SCALES = (8, 16)
    ITERATIONS = 6
    FAULT_FRACTION = 0.95

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.max_nprocs = max(self.SCALES)

    def _request(self, key, workload, n, mode, interval, faults=()):
        return RunRequest(
            key=key,
            cell=Cell(workload, n, "tdi", comm_mode=mode),
            preset="paper",
            checkpoint_interval=interval,
            seed=self.seed,
            faults=faults,
            verify=True,
            # violations are counted by the checks, not raised mid-round
            strict_verify=False,
            workload_kwargs=(("iterations", self.ITERATIONS),),
        )

    def run_round(self) -> Round:
        points = [(w, n) for w in self.WORKLOADS for n in self.SCALES]
        runs = _run_all(
            self._request(("probe", w, n), w, n, "nonblocking", 1e9)
            for w, n in points)
        requests = []
        for w, n in points:
            interval = runs[("probe", w, n)].accomplishment / 6.0
            kill = (FaultSpec(rank=n // 2,
                              at_time=(1.0 + self.FAULT_FRACTION) * interval),)
            for mode in ("blocking", "nonblocking"):
                requests.append(self._request((w, n, mode, "base"), w, n,
                                              mode, interval))
                requests.append(self._request((w, n, mode, "faulted"), w, n,
                                              mode, interval, kill))
        runs.update(_run_all(requests))
        return Round(runs=runs)

    def reference(self) -> None:
        return None

    def check(self, rnd: Round, reference: None) -> list[Failure]:
        return check_recovery(rnd.runs)


class FuzzBands:
    """The differential fuzzer: fuzz seeds 0..7 in each of seven bands
    (unbiased, overlap, churn, gray, lossy, hostile storage, compressed),
    protocols tdi, tag and tel plus the ground truth, serial, no
    shrinking, no corpus.  The scenario shapes are fixed by the fuzz
    seeds; ``--seed`` redraws each scenario's simulation seed, which
    moves its jitter and so its message interleavings and kill
    timings."""

    name = "fuzz-bands"
    BANDS = (
        ("unbiased", {}),
        ("overlap", {"fault_bias": "overlap"}),
        ("churn", {"fault_bias": "churn"}),
        ("gray", {"fault_bias": "gray"}),
        ("lossy", {"net_bias": "lossy"}),
        ("hostile", {"storage_bias": "hostile"}),
        ("compress", {"compress": True}),
    )
    FUZZ_SEEDS = range(8)
    PROTOCOLS = differential.DEFAULT_PROTOCOLS

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"e2e_bench.fuzz-bands:{seed}")
        self.sim_seeds = {(band, s): rng.randrange(1 << 31)
                          for band, _ in self.BANDS for s in self.FUZZ_SEEDS}
        self.max_nprocs = max(
            fuzz_scenario.generate_scenario(s, **bias).nprocs
            for _, bias in self.BANDS for s in self.FUZZ_SEEDS)

    def _legs(self, band: str, scenario) -> tuple:
        """The legs a scenario defines: the ground truth, a failure-free
        run per protocol and, when it schedules kills, gray faults or
        churn, a faulted run per protocol."""
        phases = ["ff"]
        if scenario.faults or scenario.grays or scenario.joins or scenario.leaves:
            phases.append("faulted")
        return ((band, scenario.name, differential.GROUND_TRUTH, "ff"),) + tuple(
            (band, scenario.name, p, phase)
            for phase in phases for p in self.PROTOCOLS)

    def run_round(self) -> Round:
        rnd = Round()
        for band, bias in self.BANDS:
            for s in self.FUZZ_SEEDS:
                scenario = fuzz_scenario.generate_scenario(s, **bias).with_(
                    seed=self.sim_seeds[(band, s)])
                requests = differential.scenario_requests(scenario, self.PROTOCOLS)
                results = run_batch(requests, jobs=1, cache=None,
                                    capture_errors=True)
                verdict = differential.diff_results(scenario, results,
                                                    self.PROTOCOLS)
                for key, summary in results.items():
                    rnd.runs[(band,) + key] = record((band,) + key, summary)
                rnd.scenarios.append(ScenarioRecord(
                    name=f"{band}/{scenario.name}",
                    legs=self._legs(band, scenario),
                    runs_executed=verdict.runs,
                    findings=tuple(str(f) for f in verdict.findings),
                    invalid=verdict.invalid,
                ))
        return rnd

    def reference(self) -> None:
        return None

    def check(self, rnd: Round, reference: None) -> list[Failure]:
        return check_fuzz(rnd.scenarios)


WORKLOADS = {w.name: w for w in (PaperFigs, Ring1024, RecoveryVerified,
                                 FuzzBands)}

"""Self-test of the benchmark's output checks.

    python3 e2e_bench/selftest.py

Each check first sees a well-formed result and must pass it, then sees
the same result with one defect planted and must fail it.  No simulation
runs: the results are built here, from the same definitions the checks
use.  Exit status 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from checks import (RunRecord, ScenarioRecord, check_fuzz, check_paper_figs,
                    check_recovery, check_ring, ring_total)


def _run(key, **fields) -> RunRecord:
    base = dict(answer=("a", "a"), app_sends=100, app_delivers=100,
                identifiers=0, pb_raw=0, pb_wire=0, undecodable=0,
                recoveries=0, violations=0, accomplishment=1.0)
    base.update(fields)
    return RunRecord(key=key, **base)


def paper_figs_case():
    # TAG/TDI grows with n, TEL sits between: the paper's Fig. 6 shape
    ids = {"tdi": lambda n: n + 1, "tag": lambda n: 10 * n * n,
           "tel": lambda n: 3 * n}
    cells = {(w, n, p): _run((w, n, p), answer=(f"{w}{n}",),
                             identifiers=ids[p](n) * 100)
             for w in ("lu", "sp") for n in (4, 16)
             for p in ("tdi", "tag", "tel")}
    reference = {(w, n): (f"{w}{n}",) for w in ("lu", "sp") for n in (4, 16)}
    return cells, reference


def ring_case(n=16, rounds=3):
    total = ring_total(n, rounds)
    answer = tuple(f"{{'checksum': 1, 'rounds': {rounds}, 'total': {total}}}"
                   for _ in range(n))
    sends = n * rounds
    raw = 4 * (n + 1) * sends
    return _run(("ring", n), answer=answer, app_sends=sends, app_delivers=sends,
                pb_raw=raw, pb_wire=raw // 20), n, rounds


def recovery_case():
    runs = {("probe", "lu", 8): _run(("probe", "lu", 8))}
    for mode, time in (("blocking", 2.0), ("nonblocking", 1.8)):
        runs[("lu", 8, mode, "base")] = _run(("lu", 8, mode, "base"),
                                             accomplishment=time - 0.5)
        runs[("lu", 8, mode, "faulted")] = _run(("lu", 8, mode, "faulted"),
                                                accomplishment=time, recoveries=1)
    return runs


def fuzz_case():
    legs = tuple(("band", "s0", p, phase) for p in ("none", "tdi")
                 for phase in ("ff",))
    return [ScenarioRecord(name="band/s0", legs=legs, runs_executed=len(legs),
                           findings=())]


def _set(mapping, key, **changes):
    out = dict(mapping)
    out[key] = replace(out[key], **changes)
    return out


def main() -> int:
    cells, ref = paper_figs_case()
    ring, n, rounds = ring_case()
    rec = recovery_case()
    fuzz = fuzz_case()
    figs = lambda c: check_paper_figs(c, ref)
    ring_check = lambda r: check_ring(r, n, rounds)
    flipped = ring.answer[-1].replace(f"'total': {ring_total(n, rounds)}",
                                      f"'total': {ring_total(n, rounds) ^ 1}")
    cases = [
        # (what, check, well-formed result, the result with a defect planted)
        ("paper-figs: answer differs from protocol none", figs, cells,
         _set(cells, ("sp", 4, "tag"), answer=("flipped",))),
        ("paper-figs: TDI piggyback of n identifiers", figs, cells,
         _set(cells, ("lu", 16, "tdi"), identifiers=16 * 100)),
        ("paper-figs: a lost delivery", figs, cells,
         _set(cells, ("lu", 4, "tel"), app_delivers=99)),
        ("paper-figs: TEL not above TDI", figs, cells,
         _set(cells, ("sp", 16, "tel"), identifiers=17 * 100)),
        ("paper-figs: TAG/TDI does not grow with n", figs, cells,
         _set(cells, ("lu", 16, "tag"), identifiers=17 * 20 * 100)),
        ("ring: flipped checksum", ring_check, ring,
         replace(ring, answer=ring.answer[:-1] + (flipped,))),
        ("ring: raw piggyback not 4(n + 1) bytes", ring_check, ring,
         replace(ring, pb_raw=ring.pb_raw - 4 * ring.app_sends)),
        ("ring: compression above a tenth of raw", ring_check, ring,
         replace(ring, pb_wire=ring.pb_raw // 9)),
        ("ring: an undecodable piggyback", ring_check, ring,
         replace(ring, undecodable=1)),
        ("recovery: one oracle violation", check_recovery, rec,
         _set(rec, ("lu", 8, "nonblocking", "faulted"), violations=1)),
        ("recovery: faulted answer differs from its twin", check_recovery, rec,
         _set(rec, ("lu", 8, "blocking", "faulted"), answer=("b", "a"))),
        ("recovery: two recoveries for one kill", check_recovery, rec,
         _set(rec, ("lu", 8, "blocking", "faulted"), recoveries=2)),
        ("recovery: non-blocking slower than blocking", check_recovery, rec,
         _set(rec, ("lu", 8, "nonblocking", "faulted"), accomplishment=2.1)),
        ("fuzz: a finding", check_fuzz, fuzz,
         [replace(fuzz[0], findings=("[tdi] answer-mismatch: rank 1",))]),
        ("fuzz: a skipped scenario", check_fuzz, fuzz,
         [replace(fuzz[0], invalid="ground-truth run crashed")]),
        ("fuzz: fewer runs than legs", check_fuzz, fuzz,
         [replace(fuzz[0], runs_executed=1)]),
    ]
    bad = 0
    for what, check, good, corrupted in cases:
        passes_good = not check(good)
        fails_bad = bool(check(corrupted))
        ok = passes_good and fails_bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}"
              + ("" if passes_good else " (well-formed result rejected)")
              + ("" if fails_bad else " (corruption not caught)"))
    print(f"{len(cases) - bad}/{len(cases)} checks pass the well-formed "
          f"result and fail the corrupted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

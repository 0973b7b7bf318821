"""Outside-in tracing: timers around each layer's public entry points.

The program has no spans of its own, so the traced run patches class
attributes and module functions of ``repro`` for its duration and
restores them afterwards.  Every wrapped call is one span; a span's self
time is its duration minus the wrapped child spans it covers.  Spans
are aggregated by name as they close (self time and call count); the
first :data:`KEEP_SPANS` of them are also kept as ``(name, start, end,
parent)`` records and written as Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open.

:class:`SetupProbe` is the one probe the untraced run keeps: two
timestamps per simulation run, to split set-up from the run phase.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_MISSING = object()


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()


class SetupProbe:
    """Set-up time per simulation run: from ``RunRequest.execute``
    entry (config, workload inputs, ``Cluster`` construction) to
    ``Cluster.run`` entry, when the engine starts."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self._entered = 0.0
        self._patches = Patches()

    def install(self) -> "SetupProbe":
        from repro.harness.runner import RunRequest
        from repro.mpi.cluster import Cluster

        probe = self
        execute, run = RunRequest.execute, Cluster.run

        @functools.wraps(execute)
        def timed_execute(request, *args, **kwargs):
            probe._entered = time.perf_counter()
            return execute(request, *args, **kwargs)

        @functools.wraps(run)
        def timed_run(cluster, *args, **kwargs):
            probe.setup_s += time.perf_counter() - probe._entered
            return run(cluster, *args, **kwargs)

        self._patches.replace(RunRequest, "execute", timed_execute)
        self._patches.replace(Cluster, "run", timed_run)
        return self

    def uninstall(self) -> None:
        self._patches.restore()


#: spans kept for the Chrome trace (a traced round can make millions)
KEEP_SPANS = 100_000


class Tracer:
    """Span aggregation plus the counters read off each finished run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.recording = False
        #: open spans: ``[name, child_time]``
        self._stack: list[list] = []
        self._patches = Patches()

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             when: Callable[[Any], bool] | None = None,
             after: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` timed as span ``name``.  ``when(self)`` false skips the
        span (a call that does no work); ``after(result)`` reads
        counters off the return value."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                span = end - start
                tracer.self_s[name] += span - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += span
                if tracer.recording and len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((name, start, end, parent))
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        self._patches.replace(owner, attr,
                              self.wrap(getattr(owner, attr), name, **hooks))

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points (see README.md)."""
        import repro.core.tdi as tdi_module
        import repro.fuzz.differential as differential
        import repro.fuzz.scenario as scenario_module
        import repro.protocols.compression as compression
        from repro.core.log_store import SenderLog
        from repro.core.tdi import TdiProtocol
        from repro.core.vectors import DependIntervalVector
        from repro.faults.detector import FailureDetector
        from repro.harness.runner import RunRequest
        from repro.mpi.cluster import Cluster
        from repro.mpi.endpoint import Endpoint
        from repro.protocols.base import Protocol
        from repro.protocols.checkpoint import CheckpointStore
        from repro.protocols.noop import NoFaultTolerance
        from repro.protocols.partitioned import PartitionedProtocol
        from repro.protocols.pessimistic import PessimisticProtocol
        from repro.protocols.pwd import PwdCausalProtocol
        from repro.protocols.tag_protocol import TagProtocol
        from repro.protocols.tel_protocol import TelProtocol
        from repro.simnet.network import Network
        from repro.simnet.proc import Task
        from repro.simnet.trace import Trace
        from repro.simnet.transport import ReliableTransport
        from repro.verify.oracle import CausalOracle

        p = self.patch
        p(RunRequest, "execute", "harness.run")
        p(Cluster, "__init__", "cluster.build")
        p(Cluster, "run", "engine", after=self._collect_run)
        p(Endpoint, "_handle_effect", "engine")
        p(Task, "_step", "app.step")
        p(Network, "transmit", "network.transmit")
        p(ReliableTransport, "transmit", "transport.transmit")
        p(Trace, "emit", "trace.emit",
          when=lambda trace: trace.enabled or trace._listeners)
        for cls, tag in ((TdiProtocol, "tdi"), (TagProtocol, "tag"),
                         (TelProtocol, "tel")):
            p(cls, "prepare_send", f"protocol.{tag}.send")
            p(cls, "classify", f"protocol.{tag}.deliver")
            p(cls, "on_deliver", f"protocol.{tag}.deliver")
        for cls in (Protocol, TdiProtocol, PwdCausalProtocol, TelProtocol,
                    NoFaultTolerance, PessimisticProtocol, PartitionedProtocol):
            if "handle_control" in cls.__dict__:
                p(cls, "handle_control", "protocol.control")
        p(Protocol, "handle_membership", "protocol.control")
        p(DependIntervalVector, "merge", "vectors.merge")
        p(compression.VectorDeltaEncoder, "encode", "codec.encode")
        p(compression.VectorDeltaDecoder, "decode", "codec.decode")
        p(compression, "encode_pwd_piggyback", "codec.encode")
        p(compression, "decode_pwd_piggyback", "codec.decode")
        p(tdi_module, "encode_vector_full", "codec.encode")
        p(SenderLog, "append", "log.append")
        p(SenderLog, "release_upto", "log.release")
        p(CheckpointStore, "begin_write", "storage.write")
        p(CheckpointStore, "commit", "storage.commit")
        p(CheckpointStore, "read", "storage.read")
        p(FailureDetector, "observe_heartbeat", "detector.heartbeat")
        p(FailureDetector, "evaluate", "detector.evaluate")
        p(CausalOracle, "observe", "oracle.observe")
        p(scenario_module, "generate_scenario", "fuzz.scenario")
        p(differential, "scenario_requests", "fuzz.requests")
        p(differential, "diff_results", "fuzz.diff")
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    # ------------------------------------------------------------------
    _TOTALS = {
        "transport.retransmits": "rt_retransmits",
        "transport.acks": "rt_acks_sent",
        "log.resends": "resends",
        "storage.fallbacks": "storage_fallbacks",
        "storage.write_retries": "ckpt_write_retries",
        "recovery.episodes": "recovery_count",
        "recovery.rollback_retries": "rollback_retries",
        "codec.full_fallbacks": "delta_fallback_full_sends",
    }

    def _collect_run(self, result) -> None:
        stats, counts = result.metrics, self.counts
        counts["engine.events"] += result.events_fired
        counts["detector.false_suspicions"] += (
            result.detector.false_suspicion_count())
        for metric, counter in self._TOTALS.items():
            counts[metric] += stats.total(counter)
        protocol = result.config.protocol
        counts[f"ids.{protocol}"] += stats.total("piggyback_identifiers")
        counts[f"sends.{protocol}"] += stats.total("app_sends")
        if result.config.compress_piggybacks:
            counts["codec.wire_bytes"] += stats.total("piggyback_bytes_wire")
            counts["codec.sends"] += stats.total("app_sends")

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round."""
        s, c, k = self.self_s, self.calls, self.counts

        def per_msg(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "cluster.build_s": (s["cluster.build"], "s"),
            "engine.events": (k["engine.events"], "count"),
            "engine.self_s": (s["engine"], "s"),
            "network.frames": (c["network.transmit"], "count"),
            "network.transmit_s": (s["network.transmit"], "s"),
            "transport.transmit_s": (s["transport.transmit"], "s"),
            "transport.retransmits": (k["transport.retransmits"], "count"),
            "transport.acks": (k["transport.acks"], "count"),
            "trace.events": (c["trace.emit"], "count"),
            "trace.emit_s": (s["trace.emit"], "s"),
        }
        for tag in ("tdi", "tag", "tel"):
            out[f"protocol.{tag}.send_s"] = (s[f"protocol.{tag}.send"], "s")
            out[f"protocol.{tag}.deliver_s"] = (s[f"protocol.{tag}.deliver"], "s")
        out["protocol.control_s"] = (s["protocol.control"], "s")
        out.update({
            "vectors.merges": (c["vectors.merge"], "count"),
            "vectors.merge_s": (s["vectors.merge"], "s"),
            "codec.encode_s": (s["codec.encode"], "s"),
            "codec.decode_s": (s["codec.decode"], "s"),
            "codec.records": (c["codec.encode"], "count"),
            "codec.full_fallbacks": (k["codec.full_fallbacks"], "count"),
            "log.appends": (c["log.append"], "count"),
            "log.append_s": (s["log.append"], "s"),
            "log.release_s": (s["log.release"], "s"),
            "log.resends": (k["log.resends"], "count"),
            "storage.writes": (c["storage.write"], "count"),
            "storage.write_s": (s["storage.write"] + s["storage.commit"], "s"),
            "storage.reads": (c["storage.read"], "count"),
            "storage.read_s": (s["storage.read"], "s"),
            "storage.fallbacks": (k["storage.fallbacks"], "count"),
            "storage.write_retries": (k["storage.write_retries"], "count"),
            "recovery.episodes": (k["recovery.episodes"], "count"),
            "recovery.rollback_retries": (k["recovery.rollback_retries"], "count"),
            "detector.heartbeats": (c["detector.heartbeat"], "count"),
            "detector.s": (s["detector.heartbeat"] + s["detector.evaluate"], "s"),
            "detector.false_suspicions": (k["detector.false_suspicions"], "count"),
            "oracle.events": (c["oracle.observe"], "count"),
            "oracle.observe_s": (s["oracle.observe"], "s"),
            "app.steps": (c["app.step"], "count"),
            "app.step_s": (s["app.step"], "s"),
            "harness.runs": (c["harness.run"], "count"),
            "harness.self_s": (s["harness.run"], "s"),
            "fuzz.scenarios": (c["fuzz.scenario"], "count"),
            "fuzz.generate_s": (s["fuzz.scenario"] + s["fuzz.requests"], "s"),
            "fuzz.diff_s": (s["fuzz.diff"], "s"),
        })
        out = {name: (value / rounds, unit) for name, (value, unit) in out.items()}
        # ratios are already per message, not per round
        for tag in ("tdi", "tag", "tel"):
            out[f"protocol.{tag}.ids_per_msg"] = (
                per_msg(k[f"ids.{tag}"], k[f"sends.{tag}"]), "count")
        out["codec.wire_bytes_per_msg"] = (
            per_msg(k["codec.wire_bytes"], k["codec.sends"]), "B")
        return out

    def write_chrome_trace(self, path: Path) -> int:
        """Write the kept spans as Chrome trace-event JSON; return how
        many were written."""
        if not self.spans:
            return 0
        origin = min(start for _, start, _, _ in self.spans)
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "pid": 1, "tid": 1, "args": {"parent": parent}}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


# ----------------------------------------------------------------------
# Memory by allocating module
# ----------------------------------------------------------------------

#: ``mem.*`` metric -> path prefixes under ``src/repro/``
MEMORY_GROUPS = {
    "mem.vectors_mb": ("core/vectors.py",),
    "mem.log_mb": ("core/log_store.py",),
    "mem.protocols_mb": ("protocols/", "core/"),
    "mem.simnet_mb": ("simnet/",),
    "mem.mpi_mb": ("mpi/",),
}


class MemoryProbe:
    """tracemalloc over the runs of one round that use the workload's
    largest process count (tracing every allocation slows a run several
    times over, and the small runs say little about memory).  Each
    traced run is followed from ``RunRequest.execute`` entry, so the
    cluster's construction counts; a snapshot is taken when a run ends
    with more live memory than any traced run before it, so the kept
    snapshot shows the largest live state, grouped by allocating
    module."""

    def __init__(self, package_root: Path, nprocs: int) -> None:
        self.package_root = str(package_root.resolve()) + "/"
        self.nprocs = nprocs
        self.snapshot: tracemalloc.Snapshot | None = None
        self.best = -1
        self.peak = 0
        self._patches = Patches()

    def __enter__(self) -> "MemoryProbe":
        from repro.harness.runner import RunRequest
        from repro.mpi.cluster import Cluster

        execute, run = RunRequest.execute, Cluster.run
        probe = self

        @functools.wraps(execute)
        def traced_execute(request, *args, **kwargs):
            if request.cell.nprocs != probe.nprocs:
                return execute(request, *args, **kwargs)
            tracemalloc.start(1)
            try:
                return execute(request, *args, **kwargs)
            finally:
                probe.peak = max(probe.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        @functools.wraps(run)
        def run_then_snapshot(cluster, *args, **kwargs):
            result = run(cluster, *args, **kwargs)
            current, _ = tracemalloc.get_traced_memory()
            if tracemalloc.is_tracing() and current > probe.best:
                probe.best = current
                probe.snapshot = None  # release the old one before taking more
                probe.snapshot = tracemalloc.take_snapshot()
            return result

        self._patches.replace(RunRequest, "execute", traced_execute)
        self._patches.replace(Cluster, "run", run_then_snapshot)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    def metrics(self) -> dict[str, tuple[float, str]]:
        mb = 1024.0 * 1024.0
        groups = dict.fromkeys(MEMORY_GROUPS, 0)
        other = 0
        stats = self.snapshot.statistics("filename") if self.snapshot else []
        for stat in stats:
            filename = stat.traceback[0].filename
            rel = (filename[len(self.package_root):]
                   if filename.startswith(self.package_root) else None)
            for metric, prefixes in MEMORY_GROUPS.items():
                if rel is not None and rel.startswith(prefixes):
                    groups[metric] += stat.size
                    break
            else:
                other += stat.size
        out = {metric: (size / mb, "MB") for metric, size in groups.items()}
        out["mem.other_mb"] = (other / mb, "MB")
        out["mem.peak_mb"] = (self.peak / mb, "MB")
        return out

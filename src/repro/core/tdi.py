"""TDI — Tracking based on Dependent Interval (Algorithm 1).

The paper's lightweight causal message logging protocol.  Dependency
tracking is relaxed from per-delivery-event metadata (the PWD model) to
one integer per process: the index of the highest process-state interval
the current state depends on.  A message therefore piggybacks ``n``
integers (the ``depend_interval`` vector) plus its per-destination send
index — independent of message history, linear in system scale — instead
of an antecedence graph of 4-identifier event records.

Delivery gate during recovery (the heart of the relaxation): a logged
message ``m`` is deliverable as soon as the recovering process has made
``m.depend_interval[i]`` deliveries, *in any order* — non-deterministic
delivery stays valid while rolling forward, which both shrinks the
piggyback and removes the wait-for-a-specific-message stalls of PWD
replay.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.core.log_store import SenderLog
from repro.core.recovery import (
    CHECKPOINT_ADVANCE,
    RESPONSE,
    ROLLBACK,
    TdiRecoveryMixin,
)
from repro.core.vectors import DependIntervalVector
from repro.core.wire import encode_vector_full
from repro.protocols.compression import (
    UndecodablePiggyback,
    VectorDeltaDecoder,
    VectorDeltaEncoder,
)
from repro.protocols.base import (
    DeliveryVerdict,
    LoggedMessage,
    PreparedSend,
    Protocol,
    VectorState,
)


class TdiProtocol(TdiRecoveryMixin, Protocol):
    """The paper's protocol (§III, Algorithm 1)."""

    name = "tdi"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        n = self.nprocs
        # Algorithm 1 lines 2-7.  The depend-interval vector is sized to
        # the membership *horizon* (it grows as ranks join); every other
        # per-rank list stays capacity-sized so control payloads and
        # index lookups never need bounds checks.
        self.log = SenderLog(n, trace=self.trace, owner=self.rank)
        self.depend_interval = DependIntervalVector(self.horizon,
                                                    owner=self.rank)
        self.depend_interval.set_own_epoch(self.epoch)
        self.vectors = VectorState(n)
        self.last_ckpt_deliver_index = [0] * n
        self.rollback_last_send_index = [0] * n
        #: own interval covered by the checkpoint this incarnation rose
        #: from — the clamp target for stale-epoch dependencies (startup
        #: state is checkpoint zero)
        self._ckpt_own_interval = 0
        #: delivery-cover snapshots queued per checkpoint; GC advances
        #: go out lagged by services.checkpoint_gc_lag() checkpoints so
        #: a hostile store's fallback recovery still finds its logs.
        #: Not checkpointed: a restored incarnation starts empty, which
        #: only delays GC (always safe).
        self._ckpt_advance_queue: list[list[int]] = []
        # compressed wire layer: per-destination delta chains out, and
        # per-source reconstruction state in (repro.protocols.compression)
        self._pb_encoder = VectorDeltaEncoder(self.depend_interval) \
            if self.compress else None
        self._pb_decoder = VectorDeltaDecoder(n) if self.compress else None
        self._init_recovery_state()

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def _grow_to(self, horizon: int) -> None:
        self.depend_interval.grow_to(horizon)
        if self._pb_encoder is not None:
            # every open delta chain refers to the shorter vector; the
            # next record per destination re-establishes with a counted
            # FULL at the new length
            self._pb_encoder.grow()
    def prepare_send(self, dest: int, tag: int, payload: Any, size_bytes: int) -> PreparedSend:
        if dest >= self.horizon:
            # sending to a rank we have not yet seen a frame from
            self.grow_membership(dest)
        self.vectors.last_send_index[dest] += 1
        send_index = self.vectors.last_send_index[dest]
        piggyback = self.depend_interval.as_piggyback()

        transmit = send_index > self.rollback_last_send_index[dest]
        # piggyback = horizon-length vector + the send index itself; once
        # any entry refers to a post-rollback incarnation the epoch
        # vector rides along too (2n + 1) — see core.wire for the forms
        identifiers = (2 * len(piggyback) + 1) if piggyback.tagged \
            else len(piggyback) + 1
        cost = (
            self.costs.per_send_base
            + self.costs.identifiers_cost(identifiers)
            + self.costs.log_append_cost(size_bytes)
        )
        self.log.append(
            LoggedMessage(
                dest=dest,
                send_index=send_index,
                tag=tag,
                payload=payload,
                size_bytes=size_bytes,
                piggyback=piggyback,
                piggyback_identifiers=identifiers,
            )
        )
        self.metrics.log_items_created += 1
        self.metrics.log_bytes_peak = max(self.metrics.log_bytes_peak, self.log.nbytes)
        wire_blob = None
        if transmit:
            if self._pb_encoder is not None:
                # encode here, not at transmit time: the delta is against
                # the vector as of *this* snapshot, and deliveries may
                # mutate it before the scheduled transmission
                wire_blob, fell_back = self._pb_encoder.encode(
                    dest, piggyback, send_index)
                if fell_back:
                    self.metrics.delta_fallback_full_sends += 1
            self.charge(
                cost,
                identifiers=identifiers,
                pb_bytes=identifiers * self.costs.identifier_bytes,
            )
        else:
            # suppressed duplicate during rolling forward: the log item is
            # rebuilt (regenerating lost logs, §III.D) but nothing is sent
            self.charge(cost)
        return PreparedSend(
            send_index=send_index,
            piggyback=piggyback,
            piggyback_identifiers=identifiers,
            cost=cost,
            transmit=transmit,
            wire=wire_blob,
        )

    # ------------------------------------------------------------------
    # Delivery gate (lines 15-31)
    # ------------------------------------------------------------------
    def classify(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        send_index = frame_meta["send_index"]
        last = self.vectors.last_deliver_index[src]
        if send_index <= last:
            return DeliveryVerdict.DUPLICATE  # line 19 fails: repetitive
        if send_index > last + 1:
            # Ahead of the per-sender sequence.  Either a legitimately
            # buffered future message whose predecessor is queued behind
            # a different tag, or — during our recovery — a survivor
            # frame that overtook the ordered resend stream because it
            # was transmitted before the ROLLBACK reached its sender.
            # Both resolve by waiting: predecessors are already queued,
            # in flight, or guaranteed to be resent from the peer's log.
            return DeliveryVerdict.DEFER
        piggyback = frame_meta["pb"]
        # line 17: enough local deliveries must have happened — but an
        # interval count is only comparable within one incarnation.  A
        # piggyback from a peer with a smaller membership horizon may not
        # reach our entry; absent entries are zero (no dependency).
        in_range = self.rank < len(piggyback)
        required = piggyback[self.rank] if in_range else 0
        epochs = getattr(piggyback, "epochs", None)
        if epochs is not None and in_range:
            entry_epoch = epochs[self.rank]
            if entry_epoch > self.epoch:
                # a dependency on an incarnation of ours that does not
                # exist yet — only possible for a frame that outlived
                # two of our failures in flight; park it
                return DeliveryVerdict.DEFER
            if entry_epoch < self.epoch and self._stale_epoch_degraded:
                # The dependency references deliveries a dead incarnation
                # of ours made.  Rolling forward replays that delivery
                # sequence position-for-position, so the count normally
                # still gates (delivering below it would re-create the
                # orphan the gate exists to prevent).  The exception is a
                # recovery the watchdog had to escalate: a stall with
                # stale-epoch requirements is the inflated-regenerated-
                # piggyback race (the overlapping-recovery corpus entry),
                # where a re-executed send manufactured a requirement on
                # its own delivery.  Degrade by clamping to our
                # checkpointed coverage, which the restore satisfied by
                # construction (any-order redelivery, §III.A relaxation).
                required = min(required, self._ckpt_own_interval)
        if self.depend_interval.own_interval >= required:
            return DeliveryVerdict.DELIVER
        return DeliveryVerdict.DEFER

    def explain_defer(self, frame_meta: dict[str, Any], src: int) -> str | None:
        """Name what blocks a queued frame (watchdog abort diagnosis)."""
        send_index = frame_meta["send_index"]
        last = self.vectors.last_deliver_index[src]
        if send_index <= last:
            return None  # a duplicate is discarded, never blocking
        if send_index > last + 1:
            return (f"frame {src}->{self.rank} #{send_index} waits for "
                    f"predecessor #{last + 1} on that channel")
        piggyback = frame_meta["pb"]
        in_range = self.rank < len(piggyback)
        required = piggyback[self.rank] if in_range else 0
        epochs = getattr(piggyback, "epochs", None)
        # an untagged piggyback gates at face value, like classify()
        entry_epoch = (epochs[self.rank]
                       if epochs is not None and in_range else self.epoch)
        own = self.depend_interval.own_interval
        if entry_epoch > self.epoch:
            return (f"frame {src}->{self.rank} #{send_index} references "
                    f"future epoch {entry_epoch} of rank {self.rank} "
                    f"(currently at epoch {self.epoch})")
        if entry_epoch < self.epoch:
            if self._stale_epoch_degraded:
                required = min(required, self._ckpt_own_interval)
            if required > own:
                return (f"frame {src}->{self.rank} #{send_index} requires "
                        f"interval {required} of rank {self.rank} in dead "
                        f"epoch {entry_epoch} (clamps to coverage "
                        f"{self._ckpt_own_interval} on escalation); "
                        f"receiver has made {own} deliveries")
            return None
        if required > own:
            return (f"frame {src}->{self.rank} #{send_index} requires "
                    f"interval {required} of rank {self.rank} in epoch "
                    f"{entry_epoch}; receiver has made {own} deliveries")
        return None

    def on_deliver(self, frame_meta: dict[str, Any], src: int) -> float:
        send_index = frame_meta["send_index"]
        expected = self.vectors.last_deliver_index[src] + 1
        if send_index != expected:
            # FIFO channels + duplicate filtering make this unreachable;
            # a violation means lost-message accounting broke.
            raise RuntimeError(
                f"rank {self.rank}: delivery gap from {src}: "
                f"send_index={send_index}, expected {expected}"
            )
        # lines 20-24
        self.depend_interval.advance_own()
        self.vectors.last_deliver_index[src] = send_index
        piggyback = frame_meta["pb"]
        if len(piggyback) > len(self.depend_interval):
            # the sender's horizon is ahead of ours: a rank joined that we
            # have not heard from yet
            self.grow_membership(len(piggyback) - 1)
        merged = self.depend_interval.merge(piggyback)
        scanned = (2 * len(piggyback) if getattr(piggyback, "tagged", False)
                   else len(piggyback))
        cost = self.costs.per_deliver_base + self.costs.identifiers_cost(scanned)
        self.charge(cost)
        self.trace.emit(
            "proto.deliver", self.rank, src=src, send_index=send_index, merged=merged
        )
        return cost

    # ------------------------------------------------------------------
    # Checkpointing (lines 32-39)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        return {
            "vectors": self.vectors.snapshot(),
            "depend_interval": self.depend_interval.snapshot(),
            "last_ckpt_deliver_index": list(self.vectors.last_deliver_index),
            "rollback_last_send_index": list(self.rollback_last_send_index),
            "log": self.log.snapshot(),
            "membership": self.membership_snapshot(),
        }

    def checkpoint_log_bytes(self) -> int:
        return self.log.nbytes

    def after_checkpoint(self) -> None:
        """Lines 34-37: tell each sender how far our checkpoint covers its
        messages, so it can garbage-collect its log.

        Under hostile storage the advance advertises the cover of the
        checkpoint ``gc_lag`` generations back (the oldest the fallback
        read path can land on), so peers never release an item a
        fallback recovery would replay.  With lag 0 the snapshot just
        pushed is popped straight back — today's eager GC, byte for
        byte.
        """
        self._ckpt_advance_queue.append(list(self.vectors.last_deliver_index))
        lag_fn = getattr(self.services, "checkpoint_gc_lag", None)
        lag = lag_fn() if lag_fn is not None else 0
        if len(self._ckpt_advance_queue) <= lag:
            return
        cover = self._ckpt_advance_queue.pop(0)
        for k in sorted(self.members):
            if k == self.rank:
                continue
            # a lagged cover may predate a joiner: it covers nothing
            delivered = cover[k] if k < len(cover) else 0
            if delivered > self.last_ckpt_deliver_index[k]:
                self.services.send_control(
                    k, CHECKPOINT_ADVANCE, delivered, self.costs.identifier_bytes
                )
                self.last_ckpt_deliver_index[k] = delivered

    # ------------------------------------------------------------------
    # Recovery (lines 40-53; survivor+incarnation logic in the mixin)
    # ------------------------------------------------------------------
    def restore(self, state: dict[str, Any]) -> None:
        self.vectors.restore(state["vectors"])
        # the vector restores at its checkpointed length (the membership
        # horizon as of the checkpoint); sync_membership grows it back to
        # the live horizon once the incarnation re-attaches
        stored = state["depend_interval"]
        stored_len = len(stored["v"]) if isinstance(stored, dict) else len(stored)
        self.depend_interval = DependIntervalVector.from_snapshot(
            stored_len, self.rank, stored
        )
        # the restored counts belong to *this* incarnation now: the own
        # entry re-tags under the current epoch, and its restored value
        # is what stale-epoch dependencies clamp to
        self.depend_interval.set_own_epoch(self.epoch)
        if self._pb_encoder is not None:
            self._pb_encoder.bind(self.depend_interval)
        self.restore_membership(state.get("membership"))
        self._ckpt_own_interval = self.depend_interval.own_interval
        self.last_ckpt_deliver_index = list(state["last_ckpt_deliver_index"])
        self.rollback_last_send_index = list(state["rollback_last_send_index"])
        self.log = SenderLog.from_snapshot(
            self.nprocs, copy.copy(state["log"]), trace=self.trace, owner=self.rank
        )

    # ------------------------------------------------------------------
    # Compressed piggyback wire layer
    # ------------------------------------------------------------------
    def _on_peer_epoch_advance(self, rank: int) -> None:
        """The peer's decoder state died with its previous incarnation:
        the next send to it must carry a full record."""
        if self._pb_encoder is not None:
            self._pb_encoder.invalidate(rank)

    def encode_piggyback_wire(self, dest: int, piggyback: Any,
                              send_index: int) -> Any:
        if self._pb_encoder is None:
            return None
        # resends are standalone full records: they may overtake or
        # duplicate, so they must not touch either side's channel state
        epochs = getattr(piggyback, "epochs", None) or (0,) * len(piggyback)
        return encode_vector_full(piggyback, epochs, send_index)

    def decode_piggyback_wire(self, src: int, blob: Any,
                              send_index: int) -> Any:
        piggyback, embedded = self._pb_decoder.decode(src, blob)
        if embedded != send_index:
            raise UndecodablePiggyback(
                f"record send_index {embedded} != frame {send_index}")
        return piggyback

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        if self.handle_membership(ctl, src, payload):
            return
        if ctl == CHECKPOINT_ADVANCE:
            self._handle_checkpoint_advance(src, payload)
        elif ctl == ROLLBACK:
            self._handle_rollback(src, payload)
        elif ctl == RESPONSE:
            self._handle_response(src, payload)
            self.services.wake_delivery()
        else:
            raise ValueError(f"TDI got unknown control frame {ctl!r}")

"""Shared machinery for the PWD-model baseline protocols (TAG, TEL).

Both baselines assume the piecewise-deterministic execution model: every
message delivery is a non-deterministic event whose *determinant* —
``(receiver, deliver_index, sender, send_index)``, 4 identifiers — must
be logged causally so that a recovering process can replay its delivery
history in exactly the original order.  They differ only in where
determinants are kept and when piggybacking stops (antecedence graph vs.
event logger); everything else is shared here:

* sender-based payload logging and resends (identical to TDI — the
  paper's §II notes raw-data logging is common to the family);
* the strict-order replay gate: during recovery, delivery ``d`` may only
  be the exact ``(sender, send_index)`` recorded for position ``d``;
* the recovery barrier: the incarnation collects determinants from all
  survivors (and, for TEL, the event logger) *before* delivering
  anything — replaying blind would risk orphan states.  This barrier,
  and the waits for one specific next message during replay, are the
  rolling-forward overhead the paper's protocol removes.

Incarnation epochs: ROLLBACK/RESPONSE control frames carry them (like
TDI's) so stale frames from dead incarnations are recognised and
dropped under overlapping recoveries.  *Determinants themselves are
deliberately not epoch-tagged*: the all-peer recovery barrier means the
required_order map is always rebuilt from post-rollback survivor
answers, so a determinant can never reference erased state the way a
TDI interval count can — the asymmetry is structural, not an omission.
"""

from __future__ import annotations

import copy
from typing import Any, NamedTuple

from repro.core.log_store import SenderLog
from repro.protocols.base import (
    DeliveryVerdict,
    LoggedMessage,
    PreparedSend,
    Protocol,
    VectorState,
)

ROLLBACK = "ROLLBACK"
RESPONSE = "RESPONSE"
CHECKPOINT_ADVANCE = "CKPT_ADV"

#: a determinant is 4 identifiers on the wire
DET_IDENTIFIERS = 4


class Determinant(NamedTuple):
    """One delivery event's replay record."""

    receiver: int
    deliver_index: int   # position in the receiver's delivery sequence
    sender: int
    send_index: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.receiver, self.deliver_index)


class PwdCausalProtocol(Protocol):
    """Base class implementing the PWD-family common behaviour."""

    name = "pwd-abstract"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        n = self.nprocs
        self.log = SenderLog(n, trace=self.trace, owner=self.rank)
        self.vectors = VectorState(n)
        self.deliver_total = 0
        self.rollback_last_send_index = [0] * n
        #: deliver_index -> (sender, send_index): the replay order the
        #: incarnation must follow (filled by survivor RESPONSEs)
        self.required_order: dict[int, tuple[int, int]] = {}
        self._awaiting_response: set[int] = set()
        self._history_pending = False  # TEL: event-logger query in flight
        #: advance payloads queued per checkpoint, broadcast lagged by
        #: services.checkpoint_gc_lag() so fallback recoveries under
        #: hostile storage still find logs and determinants (lag 0 =
        #: eager, byte-identical).  Not checkpointed: an empty queue
        #: after restore only delays GC, which is always safe.
        self._ckpt_advance_queue: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Hooks the concrete protocols implement
    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        """Return (piggyback, identifier_count, extra_cpu_cost)."""
        raise NotImplementedError

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        """Record the new determinant, merge the piggyback; return cost."""
        raise NotImplementedError

    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        """Determinants this process holds for ``failed``'s deliveries
        beyond its checkpoint (returned with the RESPONSE)."""
        raise NotImplementedError

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        """Prune determinant storage: ``src``'s deliveries up to
        ``stable_upto`` can no longer roll back."""
        raise NotImplementedError

    def _extra_checkpoint_state(self) -> dict[str, Any]:
        raise NotImplementedError

    def _restore_extra(self, state: dict[str, Any]) -> None:
        raise NotImplementedError

    def _request_history(self) -> None:
        """TEL queries the event logger here; TAG needs nothing."""

    # ------------------------------------------------------------------
    # Sending (PWD version of Algorithm 1 lines 8-12)
    # ------------------------------------------------------------------
    def prepare_send(self, dest: int, tag: int, payload: Any, size_bytes: int) -> PreparedSend:
        if dest >= self.horizon:
            self.grow_membership(dest)
        self.vectors.last_send_index[dest] += 1
        send_index = self.vectors.last_send_index[dest]
        piggyback, identifiers, extra_cost = self._build_piggyback(dest)
        identifiers += 1  # the send index itself
        transmit = send_index > self.rollback_last_send_index[dest]
        cost = (
            self.costs.per_send_base
            + self.costs.identifiers_cost(identifiers)
            + self.costs.log_append_cost(size_bytes)
            + extra_cost
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
            if self.compress:
                wire_blob = self.encode_piggyback_wire(
                    dest, piggyback, send_index)
            self.charge(cost, identifiers=identifiers,
                        pb_bytes=identifiers * self.costs.identifier_bytes)
        else:
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
    # Delivery gate: strict PWD replay
    # ------------------------------------------------------------------
    def classify(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        last = self.vectors.last_deliver_index[src]
        if frame_meta["send_index"] <= last:
            return DeliveryVerdict.DUPLICATE
        if frame_meta["send_index"] > last + 1:
            # ahead of the per-sender sequence (buffered future message,
            # or a survivor frame that overtook our recovery's ordered
            # resend stream) — wait for its predecessors
            return DeliveryVerdict.DEFER
        if self._recovery_barrier_active():
            return DeliveryVerdict.DEFER
        required = self.required_order.get(self.deliver_total + 1)
        if required is not None and required != (src, frame_meta["send_index"]):
            return DeliveryVerdict.DEFER
        return DeliveryVerdict.DELIVER

    def _recovery_barrier_active(self) -> bool:
        return bool(self._awaiting_response) or self._history_pending

    def explain_defer(self, frame_meta: dict[str, Any], src: int) -> str | None:
        """Name what blocks a queued frame (watchdog abort diagnosis)."""
        send_index = frame_meta["send_index"]
        last = self.vectors.last_deliver_index[src]
        if send_index <= last:
            return None  # a duplicate is discarded, never blocking
        if send_index > last + 1:
            return (f"frame {src}->{self.rank} #{send_index} waits for "
                    f"predecessor #{last + 1} on that channel")
        if self._recovery_barrier_active():
            legs = []
            if self._awaiting_response:
                legs.append(f"RESPONSE from {sorted(self._awaiting_response)}")
            if self._history_pending:
                legs.append("event-logger history")
            return (f"rank {self.rank} recovery barrier awaits "
                    + " and ".join(legs))
        required = self.required_order.get(self.deliver_total + 1)
        if required is not None and required != (src, send_index):
            return (f"replay position {self.deliver_total + 1} requires "
                    f"message {required}; frame is ({src}, {send_index})")
        return None

    def on_deliver(self, frame_meta: dict[str, Any], src: int) -> float:
        send_index = frame_meta["send_index"]
        expected = self.vectors.last_deliver_index[src] + 1
        if send_index != expected:
            raise RuntimeError(
                f"rank {self.rank}: delivery gap from {src}: "
                f"send_index={send_index}, expected {expected}"
            )
        self.vectors.last_deliver_index[src] = send_index
        self.deliver_total += 1
        det = Determinant(self.rank, self.deliver_total, src, send_index)
        cost = self.costs.per_deliver_base + self._on_deliver_hook(
            det, frame_meta["pb"], src
        )
        self.charge(cost)
        return cost

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = {
            "vectors": self.vectors.snapshot(),
            "deliver_total": self.deliver_total,
            "rollback_last_send_index": list(self.rollback_last_send_index),
            "log": self.log.snapshot(),
            "membership": self.membership_snapshot(),
        }
        state.update(self._extra_checkpoint_state())
        return state

    def checkpoint_log_bytes(self) -> int:
        return self.log.nbytes

    def after_checkpoint(self) -> None:
        """Determinants for our pre-checkpoint deliveries are dead weight
        everywhere; senders can also GC their payload logs.  One broadcast
        carries both facts (TDI can target individual senders instead —
        a structural saving the comparison keeps honest).

        Under hostile storage the broadcast payload is the one from
        ``gc_lag`` checkpoints back — both the log release and the
        determinant pruning lag together, so a fallback recovery still
        finds everything it replays (lag 0 pops what was just pushed:
        today's eager GC unchanged)."""
        self._ckpt_advance_queue.append({
            "from_counts": list(self.vectors.last_deliver_index),
            "stable_upto": self.deliver_total,
        })
        lag_fn = getattr(self.services, "checkpoint_gc_lag", None)
        lag = lag_fn() if lag_fn is not None else 0
        if len(self._ckpt_advance_queue) <= lag:
            return
        payload = self._ckpt_advance_queue.pop(0)
        size = (self.nprocs + 1) * self.costs.identifier_bytes
        self.services.broadcast_control(CHECKPOINT_ADVANCE, payload, size)
        # our own pre-checkpoint deliveries can be pruned locally as well
        self._on_checkpoint_advance(self.rank, payload["stable_upto"])

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore(self, state: dict[str, Any]) -> None:
        self.vectors.restore(state["vectors"])
        self.deliver_total = state["deliver_total"]
        self.rollback_last_send_index = list(state["rollback_last_send_index"])
        self.log = SenderLog.from_snapshot(
            self.nprocs, copy.copy(state["log"]), trace=self.trace, owner=self.rank
        )
        self.restore_membership(state.get("membership"))
        self._restore_extra(state)

    def begin_recovery(self) -> None:
        self.metrics.recovery_count += 1
        self._awaiting_response = {r for r in self.members if r != self.rank}
        self._request_history()
        self._broadcast_rollback(self._awaiting_response)

    def recovery_pending(self) -> bool:
        return self._recovery_barrier_active()

    def retry_recovery(self) -> None:
        if self._history_pending:
            self._request_history()
        if self._awaiting_response:
            self._broadcast_rollback(self._awaiting_response)

    def escalate_recovery(self) -> None:
        """Watchdog escalation: re-broadcast ROLLBACK to *every* peer —
        a peer that already answered may have answered a dead
        incarnation of ours — and re-query the event logger if that leg
        of the barrier is what stalled."""
        self.trace.emit("proto.recovery_escalate", self.rank,
                        awaiting=sorted(self._awaiting_response),
                        history_pending=self._history_pending)
        if self._history_pending:
            self._request_history()
        self._broadcast_rollback(
            {r for r in self.members if r != self.rank})

    def _broadcast_rollback(self, targets: set[int]) -> None:
        payload = {
            "ldi": list(self.vectors.last_deliver_index),
            "ckpt_deliver_total": self.deliver_total,
            "epoch": self.epoch,
        }
        size = (self.nprocs + 2) * self.costs.identifier_bytes
        for dst in sorted(targets):
            self.services.send_control(dst, ROLLBACK, payload, size)
        self.trace.emit("proto.rollback_bcast", self.rank, targets=sorted(targets))

    # ------------------------------------------------------------------
    # Compressed piggyback wire layer
    # ------------------------------------------------------------------
    # Determinant-increment piggybacks are self-contained, so the PWD
    # compressed form is *stateless*: every record is standalone and no
    # channel state exists to invalidate on epoch advances.  The imports
    # are function-level because repro.protocols.compression imports
    # Determinant from this module.

    def encode_piggyback_wire(self, dest: int, piggyback: Any,
                              send_index: int) -> Any:
        if not self.compress:
            return None
        from repro.protocols.compression import encode_pwd_piggyback

        return encode_pwd_piggyback(piggyback, send_index)

    def decode_piggyback_wire(self, src: int, blob: Any,
                              send_index: int) -> Any:
        from repro.protocols.compression import (
            UndecodablePiggyback,
            decode_pwd_piggyback,
        )

        piggyback, embedded = decode_pwd_piggyback(blob, self.nprocs)
        if embedded != send_index:
            raise UndecodablePiggyback(
                f"record send_index {embedded} != frame {send_index}")
        return piggyback

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        if self.handle_membership(ctl, src, payload):
            return
        if ctl == CHECKPOINT_ADVANCE:
            counts = payload["from_counts"]
            # a lagged payload may predate this rank's join: it covers
            # nothing of ours
            upto = counts[self.rank] if self.rank < len(counts) else 0
            released = self.log.release_upto(src, upto)
            self.metrics.log_items_released += released
            self._on_checkpoint_advance(src, payload["stable_upto"])
        elif ctl == ROLLBACK:
            self._handle_rollback(src, payload)
        elif ctl == RESPONSE:
            self._handle_response(src, payload)
        else:
            raise ValueError(f"{self.name} got unknown control frame {ctl!r}")

    def _handle_rollback(self, src: int, payload: dict[str, Any]) -> None:
        # a ROLLBACK from a rank that had left and rejoined re-admits it
        self.grow_membership(src)
        epoch = payload.get("epoch")
        if epoch is not None:
            prior = self.vectors.peer_epoch[src]
            if not self.vectors.observe_peer_epoch(src, epoch):
                # a retry from an incarnation that has since died again;
                # answering would clamp suppression below what the current
                # incarnation already told us it has covered
                self.trace.emit("proto.stale_rollback", self.rank, src=src,
                                epoch=epoch, known=self.vectors.peer_epoch[src])
                return
            if epoch > prior:
                self._on_peer_epoch_advance(src)
        dets = self._determinants_for(src, payload["ckpt_deliver_total"])
        response = {
            "delivered": self.vectors.last_deliver_index[src],
            "dets": dets,
            "epoch": self.epoch,
            "for_epoch": epoch,
        }
        size = (3 + DET_IDENTIFIERS * len(dets)) * self.costs.identifier_bytes
        self.services.send_control(src, RESPONSE, response, size)
        # A suppression index learned from the peer's *previous*
        # incarnation (its RESPONSE to our own earlier rollback) is stale
        # now: the peer has lost every delivery past its checkpoint, so
        # re-executed sends beyond that point must transmit again.  The
        # duplicate filter makes over-sending harmless; the stale
        # suppression would silently starve the peer's recovery instead.
        covered = payload["ldi"][self.rank]
        if self.rollback_last_send_index[src] > covered:
            self.rollback_last_send_index[src] = covered
        # Sends the peer's checkpoint already covers will never be acked
        # again (any in-flight copies and their acks died with the old
        # incarnation): drop them from the eager window before a parked
        # sender waits on them forever.  Duck-typed for test doubles.
        watermark = getattr(self.services, "peer_watermark", None)
        if callable(watermark):
            watermark(src, covered)
        resent = 0
        for item in self.log.items_for(src, after_index=covered):
            self.services.resend_logged(item)
            resent += 1
        self.metrics.resends += resent
        self.trace.emit("proto.resend", self.rank, to=src, count=resent, dets=len(dets))

    def _handle_response(self, src: int, payload: dict[str, Any]) -> None:
        for_epoch = payload.get("for_epoch")
        if for_epoch is not None and for_epoch != self.epoch:
            # an answer to a dead incarnation's rollback — its delivered
            # count and determinants may describe a history this
            # incarnation is about to diverge from; wait for the answer
            # to the rollback *this* incarnation broadcast
            self.trace.emit("proto.stale_response", self.rank, src=src,
                            for_epoch=for_epoch)
            return
        epoch = payload.get("epoch")
        if epoch is not None:
            prior = self.vectors.peer_epoch[src]
            if self.vectors.observe_peer_epoch(src, epoch) and epoch > prior:
                self._on_peer_epoch_advance(src)
        if payload["delivered"] > self.rollback_last_send_index[src]:
            self.rollback_last_send_index[src] = payload["delivered"]
        for det in payload["dets"]:
            self.required_order[det.deliver_index] = (det.sender, det.send_index)
        self._awaiting_response.discard(src)
        if not self._recovery_barrier_active():
            self.services.wake_delivery()

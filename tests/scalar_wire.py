"""The scalar LEB128 codec the array codec in :mod:`repro.core.wire`
replaced, kept as the reference for the old-vs-new equivalence
properties (``tests/properties/test_wire_equivalence.py``).

One Python call per integer: slow, but obviously LEB128.  Not used by
the simulator.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from repro.protocols.compression import PWD_FLAG_STABLE, UndecodablePiggyback
from repro.protocols.pwd import Determinant


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

def encode_uvarint(value: int) -> bytes:
    """LEB128: 7 value bits per byte, high bit = continuation."""
    if value < 0:
        raise ValueError(f"identifier {value} is negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Inverse of :func:`encode_uvarint`; returns (value, next_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def uvarint_len(value: int) -> int:
    """Encoded length of one varint, without building it."""
    if value < 0:
        raise ValueError(f"identifier {value} is negative")
    length = 1
    while value > 0x7F:
        value >>= 7
        length += 1
    return length


# ----------------------------------------------------------------------
# Vector records (depend-interval piggybacks)
# ----------------------------------------------------------------------

#: header-byte modes
FULL_DENSE = 0
FULL_SPARSE = 1
DELTA = 2
_MODE_MASK = 0x0F
#: per-entry epochs ride along (any shipped epoch is nonzero)
FLAG_EPOCHS = 0x10
#: record carries no stream seq and must not touch channel state (resends)
FLAG_STANDALONE = 0x20
#: an explicit vector length follows the header (dynamic membership: a
#: sender's horizon may differ from the receiver's capacity, so a FULL
#: record names its own length instead of trusting the caller's nprocs)
FLAG_COUNTED = 0x40


class VectorRecord(NamedTuple):
    """One decoded vector record (either full form or a delta)."""

    mode: int
    standalone: bool
    #: stream position on the channel (None for standalone records)
    seq: int | None
    send_index: int
    #: FULL modes: the complete value/epoch tuples; DELTA: None
    values: tuple | None
    epochs: tuple | None
    #: DELTA mode: sorted ``(index, value, epoch)`` changes; FULL: None
    changes: tuple | None


def _encode_entries(out: bytearray, entries: Sequence[tuple[int, int, int]],
                    with_epochs: bool) -> None:
    out += encode_uvarint(len(entries))
    prev = -1
    for index, value, epoch in entries:
        out += encode_uvarint(index - prev - 1 if prev >= 0 else index)
        out += encode_uvarint(value)
        if with_epochs:
            out += encode_uvarint(epoch)
        prev = index


def _decode_entries(data: bytes, offset: int, with_epochs: bool,
                    ) -> tuple[list[tuple[int, int, int]], int]:
    count, offset = decode_uvarint(data, offset)
    entries: list[tuple[int, int, int]] = []
    index = -1
    for _ in range(count):
        gap, offset = decode_uvarint(data, offset)
        index = index + gap + 1 if index >= 0 else gap
        value, offset = decode_uvarint(data, offset)
        epoch = 0
        if with_epochs:
            epoch, offset = decode_uvarint(data, offset)
        entries.append((index, value, epoch))
    return entries, offset


def encode_vector_full(values: Sequence[int], epochs: Sequence[int],
                       send_index: int, *, seq: int | None = None) -> bytes:
    """A self-contained vector record: dense or sparse, whichever is
    shorter (exact — both bodies are built and the minimum wins).

    ``seq=None`` produces a standalone record (``FLAG_STANDALONE``) that
    receivers decode without consulting or updating channel state — the
    form every log resend uses.
    """
    n = len(values)
    if len(epochs) != n:
        raise ValueError(f"epoch vector length {len(epochs)} != {n}")
    with_epochs = any(epochs)
    flags = FLAG_COUNTED | (FLAG_EPOCHS if with_epochs else 0) | (
        FLAG_STANDALONE if seq is None else 0)
    head = bytearray(encode_uvarint(n))
    if seq is not None:
        head += encode_uvarint(seq)
    tail = encode_uvarint(send_index)

    dense = bytearray([FULL_DENSE | flags])
    dense += head
    for v in values:
        dense += encode_uvarint(v)
    if with_epochs:
        for e in epochs:
            dense += encode_uvarint(e)
    dense += tail

    sparse = bytearray([FULL_SPARSE | flags])
    sparse += head
    entries = [(i, int(values[i]), int(epochs[i]))
               for i in range(n) if values[i] or epochs[i]]
    _encode_entries(sparse, entries, with_epochs)
    sparse += tail
    return bytes(sparse) if len(sparse) < len(dense) else bytes(dense)


def encode_vector_delta(changes: Sequence[tuple[int, int, int]],
                        send_index: int, seq: int) -> bytes:
    """A delta record against the receiver's per-channel base: only the
    ``(index, value, epoch)`` entries that changed since the previous
    record on this channel, O(changed) to build."""
    with_epochs = any(epoch for _, _, epoch in changes)
    out = bytearray([DELTA | (FLAG_EPOCHS if with_epochs else 0)])
    out += encode_uvarint(seq)
    _encode_entries(out, changes, with_epochs)
    out += encode_uvarint(send_index)
    return bytes(out)


def decode_vector_record(data: bytes, nprocs: int) -> VectorRecord:
    """Parse one vector record (any mode).  Raises ``ValueError`` on a
    malformed record; reconstruction against channel state happens in
    :mod:`repro.protocols.compression`."""
    if not data:
        raise ValueError("empty vector record")
    header = data[0]
    mode = header & _MODE_MASK
    with_epochs = bool(header & FLAG_EPOCHS)
    standalone = bool(header & FLAG_STANDALONE)
    offset = 1
    seq = None
    if mode == DELTA and standalone:
        raise ValueError("delta records cannot be standalone")
    if header & FLAG_COUNTED:
        # the record names its own vector length; ``nprocs`` stays the
        # legacy fallback for uncounted (pre-membership) records
        nprocs, offset = decode_uvarint(data, offset)
        if nprocs < 1:
            raise ValueError("counted record with zero-length vector")
    if not standalone:
        seq, offset = decode_uvarint(data, offset)
    if mode == FULL_DENSE:
        values = []
        for _ in range(nprocs):
            v, offset = decode_uvarint(data, offset)
            values.append(v)
        epochs = [0] * nprocs
        if with_epochs:
            epochs = []
            for _ in range(nprocs):
                e, offset = decode_uvarint(data, offset)
                epochs.append(e)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        return VectorRecord(mode, standalone, seq, send_index,
                            tuple(values), tuple(epochs), None)
    if mode == FULL_SPARSE:
        entries, offset = _decode_entries(data, offset, with_epochs)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        values = [0] * nprocs
        epochs = [0] * nprocs
        for index, value, epoch in entries:
            if index >= nprocs:
                raise ValueError(f"sparse index {index} >= nprocs {nprocs}")
            values[index] = value
            epochs[index] = epoch
        return VectorRecord(mode, standalone, seq, send_index,
                            tuple(values), tuple(epochs), None)
    if mode == DELTA:
        entries, offset = _decode_entries(data, offset, with_epochs)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        for index, _, _ in entries:
            if index >= nprocs:
                raise ValueError(f"delta index {index} >= nprocs {nprocs}")
        return VectorRecord(mode, standalone, seq, send_index,
                            None, None, tuple(entries))
    raise ValueError(f"unknown vector-record mode {mode}")


# ----------------------------------------------------------------------
# Determinant records (TAG / TEL / PART compressed piggybacks)
# ----------------------------------------------------------------------

def encode_determinants_varint(dets: Sequence[Determinant]) -> bytes:
    """Varint determinant list: count + 4 varints per determinant.  No
    32-bit ceiling, and small indexes (the common case) cost one byte."""
    out = bytearray()
    out += encode_uvarint(len(dets))
    for det in dets:
        out += encode_uvarint(det.receiver)
        out += encode_uvarint(det.deliver_index)
        out += encode_uvarint(det.sender)
        out += encode_uvarint(det.send_index)
    return bytes(out)


def decode_determinants_varint(data: bytes, offset: int = 0,
                               ) -> tuple[list[Determinant], int]:
    """Inverse of :func:`encode_determinants_varint`; returns
    (determinants, next_offset)."""
    count, offset = decode_uvarint(data, offset)
    dets: list[Determinant] = []
    for _ in range(count):
        receiver, offset = decode_uvarint(data, offset)
        deliver_index, offset = decode_uvarint(data, offset)
        sender, offset = decode_uvarint(data, offset)
        send_index, offset = decode_uvarint(data, offset)
        dets.append(Determinant(receiver, deliver_index, sender, send_index))
    return dets, offset


# ----------------------------------------------------------------------
# PWD-family piggybacks
# ----------------------------------------------------------------------

def encode_pwd_piggyback(piggyback: Any, send_index: int) -> bytes | None:
    """Compressed form of a determinant-increment piggyback; ``None``
    passes through (the pessimistic baseline piggybacks nothing)."""
    if piggyback is None:
        return None
    stable = piggyback.get("stable")
    out = bytearray([PWD_FLAG_STABLE if stable is not None else 0])
    out += encode_uvarint(send_index)
    out += encode_determinants_varint(piggyback["dets"])
    if stable is not None:
        for entry in stable:
            out += encode_uvarint(entry)
    return bytes(out)


def decode_pwd_piggyback(blob: bytes, nprocs: int) -> tuple[dict, int]:
    """Inverse of :func:`encode_pwd_piggyback`; returns the piggyback
    dict and the embedded send index."""
    try:
        flags = blob[0]
        send_index, offset = decode_uvarint(blob, 1)
        dets, offset = decode_determinants_varint(blob, offset)
        piggyback: dict[str, Any] = {"dets": tuple(dets)}
        if flags & PWD_FLAG_STABLE:
            stable = []
            for _ in range(nprocs):
                entry, offset = decode_uvarint(blob, offset)
                stable.append(entry)
            piggyback["stable"] = tuple(stable)
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} trailing bytes")
    except (ValueError, IndexError) as exc:
        raise UndecodablePiggyback(f"malformed record: {exc}") from exc
    return piggyback, send_index

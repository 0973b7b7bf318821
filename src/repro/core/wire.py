"""Wire formats for the compressed piggyback payloads.

Raw mode ships piggybacks as Python objects and *accounts* their wire
size as ``identifiers x IDENTIFIER_BYTES`` — the paper's Fig. 6 unit;
nothing on the raw path encodes bytes.  Under
``SimulationConfig(compress_piggybacks=True)`` every piggyback becomes a
record of the varint family below, and its real length is what
``piggyback_bytes_wire`` counts:

* every integer is an **LEB128 varint** — small counts cost one byte,
  and counts past 2^32 (long-running systems) encode fine, up to the
  int64 identifier range (2^63 − 1);
* a **vector record** ships a depend-interval piggyback in one of three
  modes, tagged in a header byte: ``FULL_DENSE`` (all ``n`` entries),
  ``FULL_SPARSE`` (only the entries whose value or epoch is nonzero,
  against an implicit all-zero base), and ``DELTA`` (only the entries
  that changed since the previous record on the same channel, against
  the receiver's reconstructed base).  ``encode_vector_full`` picks
  dense vs sparse exactly (whichever is shorter); the per-channel
  delta-vs-full decision lives in :mod:`repro.protocols.compression`;
* a **determinant record** (TAG / TEL / PART) is the varint form of the
  determinant list, with TEL's stability vector appended; its layout
  lives with its codec in :mod:`repro.protocols.compression`.

Record layout (header byte = ``mode | flags``):

====================  =================================================
``FULL_DENSE``  (0)   header, [n], [seq], v_0..v_{n-1}, [e_0..e_{n-1}],
                      send_index
``FULL_SPARSE`` (1)   header, [n], [seq], count, count × (gap, value,
                      [epoch]), send_index
``DELTA``       (2)   header, seq, count, count × (gap, value,
                      [epoch]), send_index
====================  =================================================

``FLAG_EPOCHS`` (0x10) marks that per-entry epochs ride along;
``FLAG_STANDALONE`` (0x20) marks a record that neither carries a stream
sequence number nor touches any channel state (log resends);
``FLAG_COUNTED`` (0x40) marks that the vector length ``n`` follows the
header.  ``gap`` is the distance from the previous shipped index (first
gap = index), so clustered sparse entries cost one byte each.

Array codec
-----------
Every record is one header byte followed by one stream of varints, so
each record is encoded and decoded by a fixed handful of numpy passes
over that stream (:func:`pack_varints`, :class:`VarintStream`) — no
Python call per integer.  A stream whose every element is below 0x80 is
just its ``uint8`` image.  Otherwise the encoder lays the stream out as
a value × byte-position matrix (shift, 7-bit mask, and a continuation
bit from comparing each value against the thresholds 2^7, 2^14, …) and
keeps the bytes each value has, in row order, which is wire order.  The
decoder finds the varint ends with one continuation-bit scan
(``flatnonzero(buf < 0x80)``) and folds in lower bytes with one gather
per further byte position.  Dense and sparse sizes of a full record are
compared arithmetically, and only the shorter body is built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

#: one identifier on the wire (the paper's unit in Fig. 6)
IDENTIFIER_BYTES = 4

#: a value needs ``k + 1`` varint bytes iff it is >= 2^(7k)
_THRESHOLDS = tuple(1 << (7 * k) for k in range(1, 9))
#: bytes of the longest varint an int64 identifier needs (63 bits)
_MAX_VARINT_BYTES = 9
_INT64_MAX = (1 << 63) - 1
#: per varint width ``w`` (1..9), the constant rows the encoder's byte
#: matrix broadcasts against: byte ``j``'s bit shift, the value at which
#: byte ``j`` is present, and the value past which it has a successor
_SHIFTS = [None] + [7 * np.arange(w, dtype=np.int64) for w in range(1, 10)]
_PRESENT = [None] + [np.array([0, *_THRESHOLDS][:w], dtype=np.int64)
                     for w in range(1, 10)]
_CONTINUED = [None] + [np.array([t - 1 for t in _THRESHOLDS] + [_INT64_MAX],
                                dtype=np.int64)[:w] for w in range(1, 10)]


# ======================================================================
# The array LEB128 codec
# ======================================================================

def uvarint_len(value: int) -> int:
    """Encoded length of one varint, without building it."""
    if value < 0:
        raise ValueError(f"identifier {value} is negative")
    return max(1, (value.bit_length() + 6) // 7)


def _fits(value: int) -> int:
    """``value``, checked against the int64 identifier range's top."""
    if value > _INT64_MAX:
        raise ValueError(f"identifier {value} does not fit in 63 bits")
    return value


def as_identifiers(values) -> np.ndarray:
    """``values`` as an int64 array (an array passes through), rejecting
    anything beyond the int64 identifier range."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("identifier does not fit in 63 bits") from None


def _check_nonnegative(values: np.ndarray) -> None:
    if len(values) and values.min() < 0:
        first = values[np.flatnonzero(values < 0)[0]]
        raise ValueError(f"identifier {int(first)} is negative")


def varints_size(values: np.ndarray) -> int:
    """Encoded size of every (non-negative) element, in bytes."""
    size = len(values)
    if size:
        top = values.max()
        for threshold in _THRESHOLDS:
            if top < threshold:
                break
            size += int(np.count_nonzero(values >= threshold))
    return size


def pack_varints(header: int, values: np.ndarray) -> bytes:
    """``header`` byte, then every element of the int64 array ``values``
    as an LEB128 varint (``ValueError`` names the first negative one)."""
    _check_nonnegative(values)
    top = int(values.max())
    if top < 0x80:
        return bytes((header,)) + values.astype(np.uint8).tobytes()
    # one row per value, one column per byte position up to the widest
    # varint: every byte is computed at once, and the bytes each value
    # actually has are kept in row-major order, which is wire order
    width = (top.bit_length() + 6) // 7
    col = values[:, None]
    rows = ((col >> _SHIFTS[width]) & 0x7F) | ((col > _CONTINUED[width]) << 7)
    kept = rows[col >= _PRESENT[width]].astype(np.uint8)
    return bytes((header,)) + kept.tobytes()


class VarintStream:
    """Positional reader over every complete varint of ``data`` from
    ``offset`` on, all decoded up front in one array pass.

    The pass finds the varint ends with one continuation-bit scan
    (``flatnonzero(buf < 0x80)``); each end byte holds its varint's top
    seven bits, and one gather per further byte position, walking back
    from the ends over the varints that reach that far, folds in the
    lower bits.  Bytes after the last complete varint (a truncated one)
    stay unread, so reading into them raises "truncated varint" and
    :meth:`finish` counts them as trailing.  A varint too long for an
    int64 identifier ends the readable values the same way.
    """

    __slots__ = ("data", "offset", "values", "ends", "pos", "short")

    def __init__(self, data: bytes, offset: int) -> None:
        self.data = data
        self.offset = offset
        self.pos = 0
        #: why reading stops after the last value
        self.short = "truncated varint"
        buf = np.frombuffer(data, dtype=np.uint8)[offset:]
        last = np.flatnonzero(buf < 0x80)
        values = buf[last].astype(np.int64)
        if len(last) < len(buf) and len(last):
            # a varint reaches back past its end byte iff the byte before
            # it is a continuation byte (the first: iff it is not byte 0)
            reach = buf[last - 1] >= 0x80
            reach[0] = last[0] > 0
            sel = np.flatnonzero(reach)
            at = last[sel]
            for _ in range(1, _MAX_VARINT_BYTES):
                at = at - 1
                values[sel] = (values[sel] << 7) | (buf[at] & 0x7F)
                more = np.flatnonzero((buf[at - 1] >= 0x80) & (at > 0))
                sel, at = sel[more], at[more]
                if not len(sel):
                    break
            else:
                readable = int(sel[0])
                self.short = "varint exceeds 63 bits"
                last, values = last[:readable], values[:readable]
        self.values = values
        #: offset just past each varint
        self.ends = last + (offset + 1)

    def _advance(self, count: int) -> int:
        start = self.pos
        stop = start + count
        if stop > len(self.values):
            raise ValueError(self.short)
        self.pos = stop
        return start

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values."""
        start = self._advance(count)
        return self.values[start:start + count]

    def one(self) -> int:
        """The next value."""
        return int(self.values[self._advance(1)])

    def finish(self) -> None:
        """Reject bytes past the last value read."""
        end = int(self.ends[self.pos - 1]) if self.pos else self.offset
        if end != len(self.data):
            raise ValueError(f"{len(self.data) - end} trailing bytes")


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
    #: FULL modes: all ``n`` entries; DELTA: the changed entries, in
    #: index order.  int64 arrays; epochs are zeros when none rode along
    values: np.ndarray
    epochs: np.ndarray
    #: DELTA mode: the sorted indexes of the changed entries; FULL: None
    indexes: np.ndarray | None

    @property
    def changes(self) -> tuple[tuple[int, int, int], ...] | None:
        """DELTA mode: the ``(index, value, epoch)`` triples; FULL: None."""
        if self.indexes is None:
            return None
        return tuple(zip(self.indexes.tolist(), self.values.tolist(),
                         self.epochs.tolist()))


def encode_vector_full(values: Sequence[int], epochs: Sequence[int],
                       send_index: int, *, seq: int | None = None) -> bytes:
    """A self-contained vector record: dense or sparse, whichever is
    shorter (exact — the size difference is computed, and only the
    winning body is built).

    ``values`` may be a :class:`~repro.core.vectors.TaggedPiggyback`,
    whose cached int64 array is read directly.  ``seq=None`` produces a
    standalone record (``FLAG_STANDALONE``) that receivers decode without
    consulting or updating channel state — the form every log resend
    uses.
    """
    n = len(values)
    if len(epochs) != n:
        raise ValueError(f"epoch vector length {len(epochs)} != {n}")
    head = (n,) if seq is None else (n, seq)
    for value in head[1:] + (send_index,):
        if value < 0:
            raise ValueError(f"identifier {value} is negative")
        _fits(value)
    cached = getattr(values, "_arr", None)
    vals = cached if cached is not None else as_identifiers(values)
    _check_nonnegative(vals)
    eps = None
    if epochs.any() if isinstance(epochs, np.ndarray) else any(epochs):
        eps = as_identifiers(epochs)
        _check_nonnegative(eps)
    flags = FLAG_COUNTED | (FLAG_EPOCHS if eps is not None else 0) | (
        FLAG_STANDALONE if seq is None else 0)
    width = 2 if eps is None else 3
    hot = np.flatnonzero(vals if eps is None else vals | eps)
    k = len(hot)
    # A hot entry costs the same value (and epoch) bytes in both bodies,
    # so sparse is shorter exactly when the zero entries' bytes in the
    # dense body (one per value, one per epoch) exceed the sparse
    # count's and gaps' bytes; a gap costs at least one byte.
    spare = (n - k) * (width - 1)
    gaps = None
    if spare > uvarint_len(k) + k:
        gaps = hot.copy()
        gaps[1:] -= hot[:-1] + 1
        if spare <= uvarint_len(k) + varints_size(gaps):
            gaps = None
    h = len(head)
    if gaps is None:
        stream = np.empty(h + (width - 1) * n + 1, dtype=np.int64)
        stream[h:h + n] = vals
        if eps is not None:
            stream[h + n:-1] = eps
        mode = FULL_DENSE
    else:
        stream = np.empty(h + 1 + width * k + 1, dtype=np.int64)
        stream[h] = k
        body = stream[h + 1:-1].reshape(k, width)
        body[:, 0] = gaps
        body[:, 1] = vals[hot]
        if eps is not None:
            body[:, 2] = eps[hot]
        mode = FULL_SPARSE
    stream[:h] = head
    stream[-1] = send_index
    return pack_varints(mode | flags, stream)


def vector_delta_stream(changes, send_index: int,
                        seq: int) -> tuple[int, np.ndarray]:
    """The header byte and varint stream of a delta record (see
    :func:`encode_vector_delta`), unpacked: its size is
    ``1 + varints_size(stream)`` before any byte is built."""
    table = as_identifiers(changes).reshape(-1, 3)
    k = len(table)
    with_epochs = bool(table[:, 2].any())
    width = 3 if with_epochs else 2
    stream = np.empty(2 + width * k + 1, dtype=np.int64)
    stream[0] = _fits(seq)
    stream[1] = k
    body = stream[2:-1].reshape(k, width)
    body[:, :width] = table[:, :width]
    body[1:, 0] -= table[:-1, 0] + 1  # index -> gap from the previous one
    stream[-1] = _fits(send_index)
    return DELTA | (FLAG_EPOCHS if with_epochs else 0), stream


def encode_vector_delta(changes, send_index: int, seq: int) -> bytes:
    """A delta record against the receiver's per-channel base: only the
    ``(index, value, epoch)`` entries that changed since the previous
    record on this channel, in index order, O(changed) to build.
    ``changes`` is a sequence of triples or a ``(k, 3)`` int64 array."""
    return pack_varints(*vector_delta_stream(changes, send_index, seq))


def _take_entries(stream: VarintStream, nprocs: int, with_epochs: bool,
                  kind: str,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Parse ``count, count × (gap, value, [epoch]), send_index``;
    returns (indexes, values, epochs, send_index)."""
    count = stream.one()
    width = 3 if with_epochs else 2
    table = stream.take(count * width).reshape(count, width)
    send_index = stream.one()
    stream.finish()
    gaps = table[:, 0]
    values = table[:, 1]
    epochs = table[:, 2] if with_epochs else np.zeros(count, dtype=np.int64)
    # clipping each gap at nprocs keeps the cumsum from wrapping and
    # leaves every in-range index exact
    indexes = np.cumsum(np.minimum(gaps, nprocs) + 1) - 1
    if count and indexes[-1] >= nprocs:
        first = int(np.argmax(indexes >= nprocs))
        index = (int(indexes[first - 1]) + 1 if first else 0) + int(gaps[first])
        raise ValueError(f"{kind} index {index} >= nprocs {nprocs}")
    return indexes, values, epochs, send_index


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
    seq = None
    if mode == DELTA and standalone:
        raise ValueError("delta records cannot be standalone")
    stream = VarintStream(data, 1)
    if header & FLAG_COUNTED:
        # the record names its own vector length; ``nprocs`` stays the
        # legacy fallback for uncounted (pre-membership) records
        nprocs = stream.one()
        if nprocs < 1:
            raise ValueError("counted record with zero-length vector")
    if not standalone:
        seq = stream.one()
    if mode == FULL_DENSE:
        values = stream.take(nprocs)
        epochs = stream.take(nprocs) if with_epochs else \
            np.zeros(nprocs, dtype=np.int64)
        send_index = stream.one()
        stream.finish()
        return VectorRecord(mode, standalone, seq, send_index,
                            values, epochs, None)
    if mode == FULL_SPARSE:
        indexes, hot_values, hot_epochs, send_index = _take_entries(
            stream, nprocs, with_epochs, "sparse")
        values = np.zeros(nprocs, dtype=np.int64)
        epochs = np.zeros(nprocs, dtype=np.int64)
        values[indexes] = hot_values
        epochs[indexes] = hot_epochs
        return VectorRecord(mode, standalone, seq, send_index,
                            values, epochs, None)
    if mode == DELTA:
        indexes, values, epochs, send_index = _take_entries(
            stream, nprocs, with_epochs, "delta")
        return VectorRecord(mode, standalone, seq, send_index,
                            values, epochs, indexes)
    raise ValueError(f"unknown vector-record mode {mode}")

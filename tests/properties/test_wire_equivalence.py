"""Old-vs-new equivalence of the compressed wire codec.

The array codec in :mod:`repro.core.wire` (and the PWD record codec in
:mod:`repro.protocols.compression`) must put exactly the bytes on the
wire that the scalar, one-call-per-integer codec in
``tests/scalar_wire.py`` does, and must parse every input — well-formed,
truncated, with trailing bytes, or with out-of-range indexes — to the
same result or the same ``ValueError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.vectors import DependIntervalVector, TaggedPiggyback
from repro.protocols import compression
from repro.protocols.compression import UndecodablePiggyback
from repro.protocols.pwd import Determinant
from tests import scalar_wire as ref

INT64_MAX = (1 << 63) - 1

#: identifiers: mostly small (one-byte varints, zeros for sparse bodies),
#: some at every varint length up to the int64 ceiling
identifiers = st.one_of(
    st.just(0), st.integers(1, 0x7F), st.integers(0x80, 1 << 21),
    st.integers(0, INT64_MAX), st.just(INT64_MAX))
epoch_values = st.one_of(st.just(0), st.integers(1, 3),
                         st.integers(0, INT64_MAX))
seqs = st.one_of(st.none(), st.integers(0, 1 << 20), st.just(INT64_MAX))


@st.composite
def full_records(draw):
    n = draw(st.integers(1, 40))
    values = draw(st.lists(identifiers, min_size=n, max_size=n))
    if draw(st.booleans()):
        epochs = [0] * n
    else:
        epochs = draw(st.lists(epoch_values, min_size=n, max_size=n))
    return values, epochs, draw(identifiers), draw(seqs)


@st.composite
def delta_records(draw):
    nprocs = draw(st.integers(1, 40))
    # indexes may run past nprocs: the decoders must reject those alike
    indexes = sorted(draw(st.sets(st.integers(0, nprocs + 8), max_size=12)))
    with_epochs = draw(st.booleans())
    changes = tuple(
        (k, draw(identifiers), draw(epoch_values) if with_epochs else 0)
        for k in indexes)
    return nprocs, changes, draw(identifiers), draw(st.integers(0, INT64_MAX))


determinants = st.lists(st.builds(
    Determinant, receiver=identifiers, deliver_index=identifiers,
    sender=identifiers, send_index=identifiers), max_size=8)


@st.composite
def pwd_piggybacks(draw):
    nprocs = draw(st.integers(1, 12))
    piggyback = {"dets": tuple(draw(determinants))}
    if draw(st.booleans()):
        piggyback["stable"] = tuple(draw(st.lists(
            identifiers, min_size=nprocs, max_size=nprocs)))
    return nprocs, piggyback, draw(identifiers)


#: how a well-formed record is damaged before both decoders parse it
damage = st.one_of(
    st.just(("intact", 0)),
    st.tuples(st.just("truncate"), st.integers(0, 64)),
    st.tuples(st.just("trailing"), st.binary(min_size=1, max_size=12)),
)


def _damaged(blob: bytes, how) -> bytes:
    kind, arg = how
    if kind == "truncate":
        return blob[:arg % len(blob)]
    if kind == "trailing":
        return blob + arg
    return blob


def _old_form(rec: wire.VectorRecord) -> tuple:
    """The new record as the scalar decoder's tuple form."""
    if rec.mode == wire.DELTA:
        return (rec.mode, rec.standalone, rec.seq, rec.send_index,
                None, None, rec.changes)
    return (rec.mode, rec.standalone, rec.seq, rec.send_index,
            tuple(rec.values.tolist()), tuple(rec.epochs.tolist()), None)


def _outcome(call):
    try:
        return "ok", call()
    except (ValueError, UndecodablePiggyback) as exc:
        return type(exc).__name__, str(exc)


def _assert_vector_decoders_agree(blob: bytes, nprocs: int) -> None:
    old = _outcome(lambda: tuple(ref.decode_vector_record(blob, nprocs)))
    new = _outcome(lambda: _old_form(wire.decode_vector_record(blob, nprocs)))
    assert new == old


def _uncounted(blob: bytes) -> bytes:
    """The legacy form of a counted record: no FLAG_COUNTED, no length."""
    _, offset = ref.decode_uvarint(blob, 1)
    return bytes((blob[0] & ~wire.FLAG_COUNTED,)) + blob[offset:]


class TestEncodersByteIdentical:
    @settings(max_examples=400)
    @given(full_records())
    def test_vector_full(self, record):
        values, epochs, send_index, seq = record
        want = ref.encode_vector_full(values, epochs, send_index, seq=seq)
        assert wire.encode_vector_full(
            values, epochs, send_index, seq=seq) == want
        # the protocols hand over a piggyback with its array cache primed
        if max(values) <= INT64_MAX:
            pb = TaggedPiggyback(values, epochs)
            pb._arr = wire.as_identifiers(values)
            assert wire.encode_vector_full(
                pb, pb.epochs, send_index, seq=seq) == want

    @settings(max_examples=400)
    @given(delta_records(), st.integers(0, INT64_MAX))
    def test_vector_delta(self, record, seq):
        _, changes, send_index, _ = record
        want = ref.encode_vector_delta(changes, send_index, seq)
        assert wire.encode_vector_delta(changes, send_index, seq) == want

    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("block", [124, 126, 127, 128, 200, 260])
    def test_vector_full_at_the_tie_with_wide_gaps(self, block, tagged):
        """A block of adjacent hot entries, a gap of 128+ zeros, one more
        hot entry: scanning the gap across the point where dense and
        sparse are the same length hits the tie (dense must win) with a
        multi-byte gap, which short random vectors never produce."""
        for gap in range(120, 400):
            values = [1] * block + [0] * gap + [1]
            epochs = [1 if tagged else 0] * block + [0] * gap + [
                1 if tagged else 0]
            want = ref.encode_vector_full(values, epochs, 5, seq=2)
            assert wire.encode_vector_full(values, epochs, 5, seq=2) == want

    def test_empty_delta(self):
        assert wire.encode_vector_delta((), 3, 1) == \
            ref.encode_vector_delta((), 3, 1) == b"\x02\x01\x00\x03"

    @settings(max_examples=300)
    @given(pwd_piggybacks())
    def test_pwd_record(self, record):
        _, piggyback, send_index = record
        assert compression.encode_pwd_piggyback(piggyback, send_index) == \
            ref.encode_pwd_piggyback(piggyback, send_index)

    @pytest.mark.parametrize("values, epochs, send_index, seq", [
        ((1, -2, 3), (0, 0, 0), 1, 0),
        ((1, 2, 3), (0, -1, 0), 1, None),
        ((1, 2, 3), (0, 0, 0), -5, 0),
        ((1, 2, 3), (0, 0, 0), 5, -1),
    ])
    def test_negative_identifiers_rejected_alike(self, values, epochs,
                                                 send_index, seq):
        with pytest.raises(ValueError) as old:
            ref.encode_vector_full(values, epochs, send_index, seq=seq)
        with pytest.raises(ValueError) as new:
            wire.encode_vector_full(values, epochs, send_index, seq=seq)
        assert str(new.value) == str(old.value)


class TestDecodersAgree:
    @settings(max_examples=400)
    @given(full_records(), damage, st.integers(0, 4))
    def test_full_records(self, record, how, shrink):
        values, epochs, send_index, seq = record
        blob = _damaged(ref.encode_vector_full(values, epochs, send_index,
                                               seq=seq), how)
        # counted records name their own length; uncounted (legacy)
        # records trust the caller's nprocs, so a short one overruns
        _assert_vector_decoders_agree(blob, len(values))
        if blob:
            legacy = _uncounted(ref.encode_vector_full(
                values, epochs, send_index, seq=seq))
            for nprocs in (len(values), max(1, len(values) - shrink)):
                _assert_vector_decoders_agree(_damaged(legacy, how), nprocs)

    @settings(max_examples=400)
    @given(delta_records(), damage)
    def test_delta_records(self, record, how):
        nprocs, changes, send_index, seq = record
        blob = _damaged(ref.encode_vector_delta(changes, send_index, seq), how)
        _assert_vector_decoders_agree(blob, nprocs)

    @settings(max_examples=300)
    @given(pwd_piggybacks(), damage)
    def test_pwd_records(self, record, how):
        nprocs, piggyback, send_index = record
        blob = _damaged(ref.encode_pwd_piggyback(piggyback, send_index), how)
        old = _outcome(lambda: ref.decode_pwd_piggyback(blob, nprocs))
        new = _outcome(lambda: compression.decode_pwd_piggyback(blob, nprocs))
        assert new == old

    def test_sparse_index_past_nprocs(self):
        # a sparse record for 64 entries read as an uncounted 8-entry one
        values = [0] * 64
        values[40] = 9
        blob = _uncounted(ref.encode_vector_full(values, [0] * 64, 1, seq=2))
        assert wire.decode_vector_record(blob, 64).values[40] == 9
        _assert_vector_decoders_agree(blob, 8)
        with pytest.raises(ValueError, match="sparse index 40 >= nprocs 8"):
            wire.decode_vector_record(blob, 8)

    def test_huge_gap_reports_the_exact_index(self):
        changes = ((2, 1, 0), (INT64_MAX, 1, 0))
        blob = ref.encode_vector_delta(changes, 1, 0)
        _assert_vector_decoders_agree(blob, 16)


class TestDeltaEncoderStream:
    """The encoder's delta path, driven through a real vector."""

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1 << 40)),
                    max_size=30))
    def test_records_match_scalar_encoding(self, merges):
        vector = DependIntervalVector(8, owner=0)
        encoder = compression.VectorDeltaEncoder(vector)
        chain_values = None
        for step, (k, value) in enumerate(merges):
            pb_values = [0] * 8
            pb_values[k] = value
            vector.merge(tuple(pb_values))
            vector.advance_own()
            pb = vector.as_piggyback()
            blob, _ = encoder.encode(1, pb, step + 1)
            if chain_values is None:
                want = ref.encode_vector_full(tuple(pb), pb.epochs, step + 1,
                                              seq=0)
            else:
                changes = tuple((i, pb[i], 0) for i in range(8)
                                if pb[i] != chain_values[i])
                want = ref.encode_vector_delta(changes, step + 1, step)
                if len(want) >= 8 + 3:
                    full = ref.encode_vector_full(tuple(pb), pb.epochs,
                                                  step + 1, seq=step)
                    want = full if len(full) <= len(want) else want
            assert blob == want
            chain_values = tuple(pb)

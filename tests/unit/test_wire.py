"""Wire-codec tests: round trips and length formulas of the compressed
records, and the raw-mode accounting of identifiers and bytes."""

import pytest
from hypothesis import given, strategies as st

from repro.core import wire
from repro.core.vectors import TaggedPiggyback
from repro.metrics.costs import CostModel
from repro.protocols.compression import (
    UndecodablePiggyback,
    decode_pwd_piggyback,
    encode_pwd_piggyback,
)
from repro.protocols.pwd import Determinant
from tests.conftest import app_meta, make_protocol

u32 = st.integers(0, (1 << 32) - 1)
INT64_MAX = (1 << 63) - 1
dets_strategy = st.lists(
    st.builds(Determinant, receiver=st.integers(0, 63),
              deliver_index=st.integers(0, 10_000),
              sender=st.integers(0, 63), send_index=st.integers(0, 10_000)),
    max_size=20,
)


def _pwd_roundtrip(piggyback, send_index, nprocs=4):
    blob = encode_pwd_piggyback(piggyback, send_index)
    got, got_index = decode_pwd_piggyback(blob, nprocs)
    assert got == piggyback and got_index == send_index
    return blob


class TestTdiCodec:
    """A TDI piggyback on the compressed wire: a counted FULL record."""

    @given(st.lists(u32, min_size=1, max_size=64), u32)
    def test_roundtrip(self, vector, send_index):
        data = wire.encode_vector_full(vector, [0] * len(vector), send_index)
        rec = wire.decode_vector_record(data, len(vector))
        assert rec.values.tolist() == vector and rec.send_index == send_index
        assert rec.epochs.tolist() == [0] * len(vector)
        assert rec.standalone and not data[0] & wire.FLAG_EPOCHS

    @given(st.data(), st.integers(1, 64), u32)
    def test_tagged_roundtrip(self, data, nprocs, send_index):
        """Epoch-tagged piggybacks round-trip; the epochs ride along
        (FLAG_EPOCHS) exactly when one of them is nonzero."""
        values = data.draw(st.lists(u32, min_size=nprocs, max_size=nprocs))
        epochs = data.draw(st.lists(st.integers(0, 1 << 16),
                                    min_size=nprocs, max_size=nprocs))
        pb = TaggedPiggyback(values, epochs)
        encoded = wire.encode_vector_full(pb, pb.epochs, send_index)
        rec = wire.decode_vector_record(encoded, nprocs)
        assert rec.values.tolist() == values and rec.send_index == send_index
        assert rec.epochs.tolist() == epochs
        assert bool(encoded[0] & wire.FLAG_EPOCHS) == any(epochs)

    def test_length_formula(self):
        # one-byte values: header + n + n values + send index = n + 3
        assert len(wire.encode_vector_full([1] * 8, [0] * 8, 1)) == 8 + 3
        # all zero: header + n + empty sparse body + send index
        assert len(wire.encode_vector_full([0] * 8, [0] * 8, 1)) == 4

    def test_tagged_length_formula(self):
        pb = TaggedPiggyback([1] * 8, [1] * 8)
        assert len(wire.encode_vector_full(pb, pb.epochs, 1)) == 2 * 8 + 3

    def test_overflow_rejected(self):
        # identifiers are int64 on the wire: past 2^63 - 1 or below 0 fails
        with pytest.raises(ValueError, match="63 bits"):
            wire.encode_vector_full([1 << 63], [0], 0)
        with pytest.raises(ValueError, match="63 bits"):
            wire.encode_vector_full([1], [0], 1 << 63)
        with pytest.raises(ValueError, match="negative"):
            wire.encode_vector_full([-1], [0], 0)

    def test_wrong_length_rejected(self):
        data = wire.encode_vector_full([1, 2, 3, 4], [0] * 4, 5, seq=0)
        with pytest.raises(ValueError, match="truncated"):
            wire.decode_vector_record(data[:-1], nprocs=4)


class TestDeterminantCodec:
    """A TAG determinant list on the compressed wire (no stability vector)."""

    @given(dets_strategy, u32)
    def test_roundtrip(self, dets, send_index):
        blob = _pwd_roundtrip({"dets": tuple(dets)}, send_index)
        assert blob[0] == 0  # no stability vector follows

    @given(dets_strategy, u32)
    def test_length_formula(self, dets, send_index):
        data = encode_pwd_piggyback({"dets": tuple(dets)}, send_index)
        fields = sum(wire.uvarint_len(f) for det in dets for f in det)
        assert len(data) == (1 + wire.uvarint_len(send_index)
                             + wire.uvarint_len(len(dets)) + fields)

    def test_truncated_rejected(self):
        data = encode_pwd_piggyback({"dets": (Determinant(1, 2, 3, 4),)}, 1)
        with pytest.raises(UndecodablePiggyback, match="truncated"):
            decode_pwd_piggyback(data[:-1], 4)

    def test_empty_header_rejected(self):
        with pytest.raises(UndecodablePiggyback):
            decode_pwd_piggyback(b"", 4)


class TestTelCodec:
    @given(dets_strategy, st.lists(u32, min_size=4, max_size=4), u32)
    def test_roundtrip(self, dets, stable, idx):
        blob = _pwd_roundtrip({"dets": tuple(dets), "stable": tuple(stable)},
                              idx)
        assert blob[0] & 0x01  # the stability vector follows


u64plus = st.integers(0, (1 << 70) - 1)


class TestUvarint:
    @given(u64plus)
    def test_roundtrip(self, value):
        if value > INT64_MAX:
            # beyond the int64 identifier range: rejected, never wrapped
            with pytest.raises(ValueError, match="63 bits"):
                wire.as_identifiers([value])
            return
        data = wire.pack_varints(0, wire.as_identifiers([value]))[1:]
        stream = wire.VarintStream(data, 0)
        assert stream.one() == value
        stream.finish()
        assert len(data) == wire.uvarint_len(value)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wire.pack_varints(0, wire.as_identifiers([3, -1]))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            wire.VarintStream(b"\x80", 0).one()


def _full_roundtrip(values, epochs, send_index, seq):
    blob = wire.encode_vector_full(tuple(values), tuple(epochs),
                                   send_index, seq=seq)
    rec = wire.decode_vector_record(blob, len(values))
    assert rec.values.tolist() == list(values)
    assert rec.epochs.tolist() == list(epochs)
    assert rec.send_index == send_index
    assert rec.seq == seq
    assert rec.standalone == (seq is None)
    return blob, rec


class TestVectorRecordCodec:
    @given(st.data(), st.integers(1, 64))
    def test_full_roundtrip(self, data, nprocs):
        values = data.draw(st.lists(st.integers(0, 1 << 40),
                                    min_size=nprocs, max_size=nprocs))
        epochs = data.draw(st.lists(st.integers(0, 8),
                                    min_size=nprocs, max_size=nprocs))
        seq = data.draw(st.one_of(st.none(), st.integers(0, 1 << 20)))
        send_index = data.draw(st.integers(0, 1 << 40))
        _full_roundtrip(values, epochs, send_index, seq)

    @given(st.data(), st.integers(1, 48))
    def test_delta_roundtrip(self, data, nprocs):
        indices = data.draw(st.sets(st.integers(0, nprocs - 1), max_size=nprocs))
        changes = tuple(
            (k, data.draw(st.integers(0, 1 << 40)), data.draw(st.integers(0, 8)))
            for k in sorted(indices))
        seq = data.draw(st.integers(0, 1 << 20))
        send_index = data.draw(st.integers(0, 1 << 40))
        blob = wire.encode_vector_delta(changes, send_index, seq)
        rec = wire.decode_vector_record(blob, nprocs)
        assert rec.mode == wire.DELTA
        assert rec.changes == changes
        assert rec.send_index == send_index and rec.seq == seq

    def test_beyond_u32_dense(self):
        # every entry hot, so the dense body wins; the legacy u32 codec
        # rejects these counts but the varint forms must not
        values = [(1 << 32) + k for k in range(6)]
        blob, rec = _full_roundtrip(values, [0] * 6, (1 << 33) + 5, seq=9)
        assert rec.mode == wire.FULL_DENSE

    def test_beyond_u32_sparse(self):
        values = [0] * 64
        values[3] = (1 << 34) + 7
        blob, rec = _full_roundtrip(values, [0] * 64, 1 << 32, seq=0)
        assert rec.mode == wire.FULL_SPARSE

    def test_beyond_u32_delta(self):
        changes = ((5, (1 << 35) + 1, 2),)
        blob = wire.encode_vector_delta(changes, (1 << 32) + 3, seq=4)
        rec = wire.decode_vector_record(blob, 16)
        assert rec.changes == changes and rec.send_index == (1 << 32) + 3

    @given(st.data(), st.integers(1, 64))
    def test_dense_fallback_boundary_exact(self, data, nprocs):
        """FULL picks sparse only when *strictly* shorter than dense."""
        values = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(1, 1 << 20)),
            min_size=nprocs, max_size=nprocs))
        epochs = data.draw(st.lists(st.integers(0, 3),
                                    min_size=nprocs, max_size=nprocs))
        blob, rec = _full_roundtrip(values, epochs, 7, seq=1)
        with_epochs = any(epochs)
        # reconstruct both candidate body lengths independently
        dense = sum(wire.uvarint_len(v) for v in values)
        if with_epochs:
            dense += sum(wire.uvarint_len(e) for e in epochs)
        entries = [(k, values[k], epochs[k]) for k in range(nprocs)
                   if values[k] or epochs[k]]
        sparse = wire.uvarint_len(len(entries))
        prev = -1
        for k, v, e in entries:
            sparse += wire.uvarint_len(k - prev - 1 if prev >= 0 else k)
            sparse += wire.uvarint_len(v)
            if with_epochs:
                sparse += wire.uvarint_len(e)
            prev = k
        # header + counted vector length + seq + send_index
        overhead = (1 + wire.uvarint_len(nprocs) + wire.uvarint_len(1)
                    + wire.uvarint_len(7))
        assert len(blob) == overhead + min(dense, sparse)
        if rec.mode == wire.FULL_SPARSE:
            assert sparse < dense
        else:
            assert dense <= sparse

    def test_trailing_bytes_rejected(self):
        blob = wire.encode_vector_full((1, 2), (0, 0), 3, seq=0)
        with pytest.raises(ValueError):
            wire.decode_vector_record(blob + b"\x00", 2)

    def test_out_of_range_index_rejected(self):
        blob = wire.encode_vector_delta(((9, 4, 0),), 1, seq=0)
        with pytest.raises(ValueError):
            wire.decode_vector_record(blob, 4)


class TestVarintDeterminantCodec:
    @given(st.lists(st.builds(
        Determinant, receiver=st.integers(0, INT64_MAX),
        deliver_index=st.integers(0, INT64_MAX),
        sender=st.integers(0, INT64_MAX),
        send_index=st.integers(0, INT64_MAX)), max_size=8))
    def test_roundtrip(self, dets):
        _pwd_roundtrip({"dets": tuple(dets)}, 7)

    def test_beyond_u32_fields(self):
        dets = (Determinant(1, (1 << 32) + 1, 2, (1 << 40) + 9),)
        _pwd_roundtrip({"dets": dets}, 1 << 33)


class TestAccountingGrounded:
    """Raw mode prices a piggyback from its identifier count: the
    accounted bytes are identifiers x IDENTIFIER_BYTES, and the count
    follows each protocol's piggyback form."""

    @staticmethod
    def _bytes_accounted(p, prepared):
        assert CostModel().identifier_bytes == wire.IDENTIFIER_BYTES
        assert p.metrics.piggyback_identifiers == prepared.piggyback_identifiers
        return p.metrics.piggyback_bytes_raw

    def test_tdi_accounting_matches_codec(self):
        p, _ = make_protocol("tdi", nprocs=8)
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback_identifiers == 8 + 1
        assert self._bytes_accounted(p, prepared) == \
            prepared.piggyback_identifiers * wire.IDENTIFIER_BYTES

    def test_tdi_tagged_accounting_matches_codec(self):
        # once any entry refers to a later incarnation the epoch vector
        # rides along: 2n + 1 identifiers
        p, _ = make_protocol("tdi", nprocs=8)
        p.depend_interval.observe_rollback(3, 5, epoch=1)
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback_identifiers == 2 * 8 + 1
        assert self._bytes_accounted(p, prepared) == \
            prepared.piggyback_identifiers * wire.IDENTIFIER_BYTES

    def test_tag_accounting_matches_codec(self):
        p, _ = make_protocol("tag", nprocs=4)
        for i in range(5):
            p.on_deliver(app_meta(i + 1, {"dets": ()}), src=1)
        prepared = p.prepare_send(2, 0, "x", 64)
        dets = prepared.piggyback["dets"]
        # 4 per determinant + 1 send index
        assert prepared.piggyback_identifiers == 4 * len(dets) + 1
        assert self._bytes_accounted(p, prepared) == \
            (4 * len(dets) + 1) * wire.IDENTIFIER_BYTES

    def test_tel_accounting_matches_codec(self):
        p, _ = make_protocol("tel", nprocs=4)
        p.on_deliver(app_meta(1, {"dets": (), "stable": (0, 0, 0, 0)}), src=1)
        prepared = p.prepare_send(2, 0, "x", 64)
        dets = prepared.piggyback["dets"]
        # 4 per determinant + n stability entries + 1 send index
        assert prepared.piggyback_identifiers == 4 * len(dets) + 4 + 1
        assert self._bytes_accounted(p, prepared) == \
            prepared.piggyback_identifiers * wire.IDENTIFIER_BYTES

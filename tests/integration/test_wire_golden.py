"""Golden pin of the compressed TDI wire: every record the delta encoder
emits on the sparse ring, hashed.

The digests were computed with the scalar (per-integer) LEB128 codec the
array codec replaced; any change to a header byte, a varint, the
dense-vs-sparse choice or the delta-vs-full fallback changes them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import SimulationConfig
from repro.mpi.cluster import run_simulation
from repro.protocols.compression import VectorDeltaEncoder
from repro.workloads.presets import workload_factory

#: (nprocs) -> (records, sha256 over every (record, fell_back) pair in
#: encode order) on the ring, 2 pattern rounds, seed 1
GOLDEN = {
    64: (254, "41459851f16af46eb6f2bbc02ab11aba"
              "24ec77bd299875004a13925bd46761e4"),
    256: (1022, "471fb446f973ad10472abd3dcffe4f68"
                "5642318b4925ea1f3b4c984c88f6bd0f"),
}


def ring_record_digest(nprocs: int) -> tuple[int, str]:
    """Run the compressed ring and hash every encoder output."""
    digest = hashlib.sha256()
    count = 0
    encode = VectorDeltaEncoder.encode

    def recording(self, dest, piggyback, send_index):
        nonlocal count
        blob, fell_back = encode(self, dest, piggyback, send_index)
        digest.update(len(blob).to_bytes(4, "little") + bytes(blob)
                      + (b"\x01" if fell_back else b"\x00"))
        count += 1
        return blob, fell_back

    config = SimulationConfig(nprocs=nprocs, protocol="tdi", seed=1,
                              checkpoint_interval=10.0,
                              compress_piggybacks=True)
    workload = workload_factory("synthetic", scale="fast",
                                pattern="ring", rounds=2)
    VectorDeltaEncoder.encode = recording
    try:
        run = run_simulation(config, workload)
    finally:
        VectorDeltaEncoder.encode = encode
    assert run.stats.total("pb_undecodable_drops") == 0
    return count, digest.hexdigest()


@pytest.mark.parametrize("nprocs", sorted(GOLDEN))
def test_ring_records_are_byte_identical(nprocs):
    assert ring_record_digest(nprocs) == GOLDEN[nprocs]

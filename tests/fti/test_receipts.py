"""Checkpoint receipt accounting properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import lulesh_state_bytes
from repro.fti import FTI, CheckpointLevel, FTIConfig


def payload(nranks, size):
    return {r: bytes(size) for r in range(nranks)}


def test_receipt_totals_consistent():
    fti = FTI(16, FTIConfig(group_size=4, node_size=2, partner_copies=2))
    r = fti.checkpoint(payload(16, 100), CheckpointLevel.L2)
    assert r.total_bytes == (
        r.bytes_local + r.bytes_partner + r.bytes_encoded + r.bytes_pfs
    )


def test_receipts_accumulate():
    fti = FTI(8, FTIConfig(group_size=4, node_size=2, partner_copies=1))
    for level in (1, 2, 3, 4):
        fti.checkpoint(payload(8, 64), level)
    assert len(fti.receipts) == 4
    assert [r.level for r in fti.receipts] == [1, 2, 3, 4]
    assert [r.ckpt_id for r in fti.receipts] == [0, 1, 2, 3]


def test_lulesh_payload_accounting():
    """FTI byte accounting matches the LULESH state-size formula the
    testbed's checkpoint cost functions assume."""
    epr = 8
    nranks = 16
    blob = bytes(lulesh_state_bytes(epr))
    fti = FTI(nranks, FTIConfig(group_size=4, node_size=2))
    r = fti.checkpoint({q: blob for q in range(nranks)}, 1)
    assert r.bytes_local == nranks * lulesh_state_bytes(epr)
    assert all(
        v == 2 * lulesh_state_bytes(epr) for v in r.per_node_bytes.values()
    )


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=512),
    copies=st.integers(min_value=1, max_value=3),
)
def test_l2_partner_bytes_formula(size, copies):
    fti = FTI(16, FTIConfig(group_size=4, node_size=2, partner_copies=copies))
    r = fti.checkpoint(payload(16, size), 2)
    assert r.bytes_partner == copies * 16 * size


@settings(max_examples=15, deadline=None)
@given(size=st.integers(min_value=1, max_value=256))
def test_l3_parity_bytes_match_group_structure(size):
    cfg = FTIConfig(group_size=4, node_size=2)
    fti = FTI(16, cfg)
    r = fti.checkpoint(payload(16, size), 3)
    # one parity shard per node, each as long as the node payload
    assert r.bytes_encoded == fti.layout.nnodes * 2 * size
    assert r.gf_operations == fti.layout.ngroups * 16 * 2 * size


def test_l4_pfs_bytes_equal_job_state():
    fti = FTI(8, FTIConfig(group_size=4, node_size=2))
    r = fti.checkpoint(payload(8, 128), 4)
    assert r.bytes_pfs == 8 * 128
    assert fti.pfs.bytes_written == 8 * 128

"""FTI level semantics: checkpoint, failure injection, recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fti import (
    FTI,
    CheckpointLevel,
    FTIConfig,
    GroupLayout,
    RecoveryError,
    StorageError,
)


def make_fti(nranks=16, group_size=4, node_size=2, partner_copies=2):
    cfg = FTIConfig(
        group_size=group_size, node_size=node_size, partner_copies=partner_copies
    )
    return FTI(nranks, cfg)


def rank_data(nranks, tag=0, size=32):
    rng = np.random.default_rng(tag)
    return {
        r: bytes(rng.integers(0, 256, size=size + r % 3, dtype=np.uint8))
        for r in range(nranks)
    }


# -- config / layout ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FTIConfig(group_size=0)
    with pytest.raises(ValueError):
        FTIConfig(node_size=0)
    with pytest.raises(ValueError):
        FTIConfig(group_size=4, partner_copies=4)
    with pytest.raises(ValueError):
        FTIConfig(ckpt_interval=0)


def test_ranks_multiple_enforced():
    cfg = FTIConfig(group_size=4, node_size=2)
    assert cfg.ranks_multiple == 8
    with pytest.raises(ValueError):
        GroupLayout(12, cfg)  # not a multiple of 8
    with pytest.raises(ValueError):
        GroupLayout(0, cfg)
    GroupLayout(64, cfg)  # ok


def test_level_describe_matches_table1():
    assert "local node" in CheckpointLevel.L1.describe()
    assert "neighbor" in CheckpointLevel.L2.describe()
    assert "Reed-Solomon" in CheckpointLevel.L3.describe()
    assert "parallel file system" in CheckpointLevel.L4.describe()


def test_layout_mapping():
    lay = GroupLayout(16, FTIConfig(group_size=4, node_size=2))
    assert lay.nnodes == 8 and lay.ngroups == 2
    assert lay.node_of_rank(0) == 0 and lay.node_of_rank(15) == 7
    assert lay.ranks_of_node(3) == [6, 7]
    assert lay.group_of_node(3) == 0 and lay.group_of_node(4) == 1
    assert lay.nodes_of_group(1) == [4, 5, 6, 7]


def test_layout_partners_ring():
    lay = GroupLayout(16, FTIConfig(group_size=4, node_size=2, partner_copies=2))
    assert lay.partners_of_node(0) == [1, 2]
    assert lay.partners_of_node(3) == [0, 1]  # wraps within group
    assert lay.partners_of_node(7) == [4, 5]  # stays in group 1


def test_layout_range_checks():
    lay = GroupLayout(16, FTIConfig())
    with pytest.raises(IndexError):
        lay.node_of_rank(16)
    with pytest.raises(IndexError):
        lay.ranks_of_node(8)
    with pytest.raises(IndexError):
        lay.nodes_of_group(2)


# -- checkpoint + receipts --------------------------------------------------------


def test_checkpoint_requires_all_ranks():
    fti = make_fti()
    with pytest.raises(ValueError):
        fti.checkpoint({0: b"x"}, CheckpointLevel.L1)


def test_l1_receipt_counts_local_bytes():
    fti = make_fti()
    data = rank_data(16)
    total = sum(len(b) for b in data.values())
    r = fti.checkpoint(data, 1)
    assert r.bytes_local == total
    assert r.bytes_partner == r.bytes_encoded == r.bytes_pfs == 0
    assert sum(r.per_node_bytes.values()) == total


def test_l2_receipt_partner_bytes():
    fti = make_fti(partner_copies=2)
    data = rank_data(16)
    total = sum(len(b) for b in data.values())
    r = fti.checkpoint(data, 2)
    assert r.bytes_local == total
    assert r.bytes_partner == 2 * total


def test_l3_receipt_encoded_bytes():
    fti = make_fti()
    data = rank_data(16)
    r = fti.checkpoint(data, 3)
    assert r.bytes_encoded > 0
    assert r.gf_operations > 0


def test_l4_receipt_pfs_bytes():
    fti = make_fti()
    data = rank_data(16)
    total = sum(len(b) for b in data.values())
    r = fti.checkpoint(data, 4)
    assert r.bytes_pfs == total
    assert fti.pfs.used_bytes == total


def test_old_checkpoint_purged_on_success():
    fti = make_fti()
    fti.checkpoint(rank_data(16, tag=1), 1)
    used_after_first = sum(s.used_bytes for s in fti.local)
    fti.checkpoint(rank_data(16, tag=2), 1)
    used_after_second = sum(s.used_bytes for s in fti.local)
    # same sizes, so storage should not grow
    assert used_after_second == used_after_first


# -- recovery semantics -------------------------------------------------------------


def test_recover_without_checkpoint_fails():
    fti = make_fti()
    with pytest.raises(RecoveryError):
        fti.recover(1)


def test_l1_roundtrip_and_failure():
    fti = make_fti()
    data = rank_data(16, tag=3)
    fti.checkpoint(data, 1)
    assert fti.recover(1) == data
    fti.fail_nodes([2])
    assert not fti.can_recover(1)
    with pytest.raises(RecoveryError):
        fti.recover(1)


def test_failed_node_rejects_writes():
    fti = make_fti()
    fti.fail_nodes([0])
    with pytest.raises(StorageError):
        fti.checkpoint(rank_data(16), 1)


def test_l2_survives_single_failure():
    fti = make_fti(partner_copies=2)
    data = rank_data(16, tag=4)
    fti.checkpoint(data, 2)
    fti.fail_nodes([1])
    assert fti.recover(2) == data


def test_l2_survives_adjacent_pair_with_two_copies():
    # nodes 0 and 1 fail; node 0's copies are on 1 (dead) and 2 (alive)
    fti = make_fti(partner_copies=2)
    data = rank_data(16, tag=5)
    fti.checkpoint(data, 2)
    fti.fail_nodes([0, 1])
    assert fti.recover(2) == data


def test_l2_fails_when_all_partners_die():
    fti = make_fti(partner_copies=1)
    data = rank_data(16, tag=6)
    fti.checkpoint(data, 2)
    # node 0's only copy is on node 1; kill both
    fti.fail_nodes([0, 1])
    with pytest.raises(RecoveryError):
        fti.recover(2)


def test_l3_tolerates_half_group():
    fti = make_fti(group_size=4)
    data = rank_data(16, tag=7)
    fti.checkpoint(data, 3)
    fti.fail_nodes([0, 2])  # 2 of 4 nodes in group 0
    assert fti.recover(3) == data


def test_l3_fails_beyond_half_group():
    fti = make_fti(group_size=4)
    data = rank_data(16, tag=8)
    fti.checkpoint(data, 3)
    fti.fail_nodes([0, 1, 2])  # 3 of 4
    assert not fti.can_recover(3)


def test_l3_groups_independent():
    fti = make_fti(group_size=4)  # groups {0..3}, {4..7}
    data = rank_data(16, tag=9)
    fti.checkpoint(data, 3)
    fti.fail_nodes([0, 1, 4, 5])  # 2 failures in each group
    assert fti.recover(3) == data


def test_l4_survives_everything():
    fti = make_fti()
    data = rank_data(16, tag=10)
    fti.checkpoint(data, 4)
    fti.fail_nodes(range(8))
    assert fti.recover(4) == data


def test_recover_any_prefers_cheapest_level():
    fti = make_fti()
    data = rank_data(16, tag=11)
    fti.checkpoint(data, 1)
    fti.checkpoint(data, 4)
    level, out = fti.recover_any()
    assert level == CheckpointLevel.L1 and out == data
    fti.fail_nodes([3])
    level, out = fti.recover_any()
    assert level == CheckpointLevel.L4 and out == data


def test_recover_any_no_checkpoints():
    fti = make_fti()
    with pytest.raises(RecoveryError):
        fti.recover_any()


def test_repair_nodes_allows_new_checkpoints():
    fti = make_fti()
    data = rank_data(16, tag=12)
    fti.checkpoint(data, 4)
    fti.fail_nodes([0])
    fti.repair_nodes([0])
    assert fti.failed_nodes == []
    data2 = rank_data(16, tag=13)
    fti.checkpoint(data2, 1)
    assert fti.recover(1) == data2


# -- property: the paper's recoverability matrix ---------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nfail=st.integers(min_value=0, max_value=8),
)
def test_l3_recoverability_matches_half_group_rule(seed, nfail):
    rng = np.random.default_rng(seed)
    fti = make_fti(group_size=4, node_size=2)  # 8 nodes, 2 groups
    data = rank_data(16, tag=seed)
    fti.checkpoint(data, 3)
    failed = rng.choice(8, size=nfail, replace=False).tolist()
    fti.fail_nodes(failed)
    per_group = [sum(1 for n in failed if n // 4 == g) for g in range(2)]
    expected = all(f <= 2 for f in per_group)
    assert fti.can_recover(3) == expected
    if expected:
        assert fti.recover(3) == data


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nfail=st.integers(min_value=0, max_value=6),
    copies=st.integers(min_value=1, max_value=3),
)
def test_l2_recoverability_matches_partner_rule(seed, nfail, copies):
    rng = np.random.default_rng(seed)
    fti = make_fti(group_size=4, node_size=2, partner_copies=copies)
    data = rank_data(16, tag=seed + 1)
    fti.checkpoint(data, 2)
    failed = set(rng.choice(8, size=nfail, replace=False).tolist())
    fti.fail_nodes(failed)
    lay = fti.layout
    expected = all(
        any(p not in failed for p in lay.partners_of_node(n)) for n in failed
    )
    assert fti.can_recover(2) == expected


# -- torn checkpoints --------------------------------------------------------------


def test_torn_l1_write_destroys_previous_copy():
    """A fault mid-L1-rewrite loses old and new data on the writing
    node: the committed L1 instance becomes unrecoverable."""
    fti = make_fti()
    data = rank_data(16, tag=0)
    fti.checkpoint(data, 1)
    assert fti.can_recover(1)
    fti.torn_checkpoint(1, nodes=[0])
    assert fti.torn_events == 1
    assert fti.local[0].torn_writes == 1
    assert not fti.can_recover(1)
    with pytest.raises(RecoveryError):
        fti.recover(1)


def test_torn_l2_write_recovers_via_partner_copies():
    """Tearing a node's own L2 file leaves partner copies intact, so
    recovery degrades but still succeeds — the escalation ladder's
    rationale for retrying one level up."""
    fti = make_fti()
    data = rank_data(16, tag=1)
    fti.checkpoint(data, 2)
    fti.torn_checkpoint(2, nodes=[0, 3])
    assert fti.can_recover(2)
    assert fti.recover(2) == data


def test_torn_checkpoint_without_commit_is_noop():
    fti = make_fti()
    fti.torn_checkpoint(1, nodes=[0])
    assert fti.torn_events == 0
    assert fti.local[0].torn_writes == 0


# -- multi-version retention + silent-corruption invalidation -----------------------


def make_versioned_fti(keep=2, **kw):
    cfg = FTIConfig(keep_versions=keep, **kw)
    return FTI(16, cfg)


def test_keep_versions_validated():
    with pytest.raises(ValueError):
        FTIConfig(keep_versions=0)


def test_classic_fti_keeps_single_version():
    fti = make_fti()  # keep_versions=1
    r1 = fti.checkpoint(rank_data(16, tag=1), 1)
    r2 = fti.checkpoint(rank_data(16, tag=2), 1)
    assert fti.versions[CheckpointLevel.L1] == [r2.ckpt_id]
    with pytest.raises(RecoveryError):
        fti.recover(1, ckpt_id=r1.ckpt_id)  # purged


def test_multi_version_retains_history_and_purges_oldest():
    fti = make_versioned_fti(keep=2)
    r1 = fti.checkpoint(rank_data(16, tag=1), 1)
    r2 = fti.checkpoint(rank_data(16, tag=2), 1)
    r3 = fti.checkpoint(rank_data(16, tag=3), 1)
    assert fti.versions[CheckpointLevel.L1] == [r2.ckpt_id, r3.ckpt_id]
    assert fti.recover(1, ckpt_id=r2.ckpt_id) == rank_data(16, tag=2)
    with pytest.raises(RecoveryError, match="not retained"):
        fti.recover(1, ckpt_id=r1.ckpt_id)


def test_mark_corrupt_retargets_latest_to_clean_version():
    """The SDC walkthrough at the library level: corruption latent while
    the newest version was written ->  invalidate it ->  default recovery
    silently reaches back to the older clean version."""
    fti = make_versioned_fti(keep=2)
    clean = rank_data(16, tag=1)
    fti.checkpoint(clean, 1)
    tainted = fti.checkpoint(rank_data(16, tag=2), 1)
    fti.mark_corrupt(tainted.ckpt_id)
    assert fti.valid_versions(1) == [fti.latest[CheckpointLevel.L1]]
    assert fti.recover(1) == clean  # latest now points at the clean one
    with pytest.raises(RecoveryError, match="silent corruption"):
        fti.recover(1, ckpt_id=tainted.ckpt_id)


def test_mark_corrupt_every_version_leaves_nothing():
    fti = make_versioned_fti(keep=2)
    r1 = fti.checkpoint(rank_data(16, tag=1), 1)
    r2 = fti.checkpoint(rank_data(16, tag=2), 1)
    fti.mark_corrupt(r2.ckpt_id)
    fti.mark_corrupt(r1.ckpt_id)
    assert fti.valid_versions(1) == []
    with pytest.raises(RecoveryError):
        fti.recover(1)


def test_mark_corrupt_unknown_id_rejected():
    fti = make_versioned_fti(keep=2)
    with pytest.raises(ValueError, match="not retained"):
        fti.mark_corrupt(999)


def test_recover_any_walks_past_corrupt_versions():
    fti = make_versioned_fti(keep=3)
    clean = rank_data(16, tag=1)
    fti.checkpoint(clean, 2)
    t2 = fti.checkpoint(rank_data(16, tag=2), 2)
    t3 = fti.checkpoint(rank_data(16, tag=3), 2)
    fti.mark_corrupt(t3.ckpt_id)
    fti.mark_corrupt(t2.ckpt_id)
    level, data = fti.recover_any()
    assert level == CheckpointLevel.L2
    assert data == clean


def test_corrupt_bytes_unreadable_in_every_store():
    """mark_corrupt taints own copies, partner copies, RS shards and the
    PFS flush alike: no replica of the bad version can serve reads."""
    fti = make_versioned_fti(keep=2)
    fti.checkpoint(rank_data(16, tag=1), 4)
    tainted = fti.checkpoint(rank_data(16, tag=2), 4)
    fti.mark_corrupt(tainted.ckpt_id)
    for node in range(fti.layout.nnodes):
        assert fti.pfs.read(f"pfs/{tainted.ckpt_id}/node{node}") is None


def test_fresh_write_supersedes_store_taint():
    store = fti_storage_local(0)
    store.write("k", b"old")
    store.mark_corrupt("k")
    assert store.read("k") is None
    store.write("k", b"new")
    assert store.read("k") == b"new"


def test_mark_corrupt_missing_key_is_noop_in_store():
    store = fti_storage_local(1)
    store.mark_corrupt("ghost")
    assert store.corrupt_keys == set()


def fti_storage_local(node):
    from repro.fti.storage import LocalStore

    return LocalStore(node)

"""The FTI library façade: multi-level checkpoint and recovery.

Orchestrates the stores, group layout and RS codec into the four
checkpoint levels, and emits :class:`CheckpointReceipt` cost records (how
many bytes moved through which subsystem) that the virtual testbed prices
into wall-clock time.

Semantics implemented (and tested in ``tests/fti/``):

========  ==========================================================
Level     Recoverable after node failures F iff...
========  ==========================================================
L1        F is empty (local data only survives on healthy nodes)
L2        every failed node has >= 1 surviving partner holding a copy
L3        every group has at most ``group_size // 2`` failed nodes
L4        always (PFS survives)
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.fti.config import CheckpointLevel, FTIConfig
from repro.fti.groups import GroupLayout
from repro.fti.reedsolomon import ReedSolomonCode, RSDecodeError
from repro.fti.storage import LocalStore, PFSStore


class RecoveryError(RuntimeError):
    """Raised when the requested checkpoint level cannot be recovered."""


def _record_fti_metrics(
    op: str, level: CheckpointLevel, seconds: float, nbytes: int
) -> None:
    """Per-level time/bytes telemetry (the paper's L1/L2 breakdown),
    recorded into the process-global obs registry.  Lazily imported:
    checkpoints are rare relative to simulation events."""
    from repro.obs.metrics import get_registry

    reg = get_registry()
    lvl = f"L{level.value}"
    reg.counter(
        f"fti_{op}s_total", help=f"FTI {op} operations, by level.", level=lvl
    ).inc()
    reg.counter(
        f"fti_{op}_bytes_total", help=f"Bytes moved by FTI {op}s, by level.",
        level=lvl,
    ).inc(nbytes)
    reg.quantile(
        f"fti_{op}_seconds", help=f"FTI {op} wall latency, by level.", level=lvl
    ).observe(seconds)


@dataclass
class CheckpointReceipt:
    """Cost accounting for one checkpoint instance.

    All byte counts are totals across the whole job.
    """

    ckpt_id: int
    level: CheckpointLevel
    bytes_local: int = 0       #: own-data writes to node-local storage
    bytes_partner: int = 0     #: partner-copy bytes crossing the network
    bytes_encoded: int = 0     #: RS parity bytes produced (and exchanged)
    gf_operations: int = 0     #: GF multiply-accumulate count of RS encode
    bytes_pfs: int = 0         #: bytes flushed to the parallel file system
    per_node_bytes: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes_local + self.bytes_partner + self.bytes_encoded + self.bytes_pfs


class FTI:
    """Multi-level checkpointing over *nranks* ranks.

    Parameters
    ----------
    nranks:
        Number of application ranks; must be a positive multiple of
        ``config.group_size * config.node_size``.
    config:
        Library parameters (group/node size, partner copies).
    """

    def __init__(self, nranks: int, config: Optional[FTIConfig] = None) -> None:
        self.config = config or FTIConfig()
        self.layout = GroupLayout(nranks, self.config)
        self.nranks = nranks
        self.local = [LocalStore(n) for n in range(self.layout.nnodes)]
        self.pfs = PFSStore()
        self._ckpt_counter = 0
        #: latest successful *clean* checkpoint id per level (retargeted
        #: by :meth:`mark_corrupt` to the newest surviving clean version)
        self.latest: dict[CheckpointLevel, int] = {}
        #: retained checkpoint ids per level, oldest → newest
        #: (``config.keep_versions`` deep)
        self.versions: dict[CheckpointLevel, list[int]] = {}
        #: checkpoint ids invalidated after the fact (latent SDC baked in)
        self.corrupt_ids: set[int] = set()
        #: (ckpt_id) -> {rank: blob length}; FTI metadata, kept redundantly
        self._lengths: dict[int, dict[int, int]] = {}
        self.receipts: list[CheckpointReceipt] = []
        #: checkpoint instances torn by faults mid-write
        self.torn_events = 0

    # -- helpers ---------------------------------------------------------------

    def _node_blob(self, rank_data: Mapping[int, bytes], node: int) -> bytes:
        return b"".join(bytes(rank_data[r]) for r in self.layout.ranks_of_node(node))

    def _split_node_blob(self, blob: bytes, node: int, ckpt_id: int) -> dict[int, bytes]:
        out: dict[int, bytes] = {}
        offset = 0
        for r in self.layout.ranks_of_node(node):
            n = self._lengths[ckpt_id][r]
            out[r] = blob[offset : offset + n]
            offset += n
        return out

    def _check_rank_data(self, rank_data: Mapping[int, bytes]) -> None:
        missing = set(range(self.nranks)) - set(rank_data)
        if missing:
            raise ValueError(f"missing checkpoint data for ranks {sorted(missing)[:5]}...")

    # -- checkpoint ----------------------------------------------------------------

    def checkpoint(
        self, rank_data: Mapping[int, bytes], level: CheckpointLevel | int
    ) -> CheckpointReceipt:
        """Take a checkpoint of *rank_data* at *level*.

        Every level first writes each node's own data locally (the L1
        action), then adds its own protection.  On success the oldest
        retained checkpoint of the same level beyond
        ``config.keep_versions`` is discarded — with the default of 1
        this is classic FTI (the previous instance is retired
        immediately); deeper retention keeps a rollback-past-the-newest
        history for after-the-fact invalidation (:meth:`mark_corrupt`).
        """
        level = CheckpointLevel(level)
        self._check_rank_data(rank_data)
        t0 = time.perf_counter()
        ckpt_id = self._ckpt_counter
        self._ckpt_counter += 1
        self._lengths[ckpt_id] = {r: len(bytes(rank_data[r])) for r in rank_data}
        receipt = CheckpointReceipt(ckpt_id=ckpt_id, level=level)

        # L1 action: own data to local store (all levels).
        for node in range(self.layout.nnodes):
            blob = self._node_blob(rank_data, node)
            self.local[node].write(f"own/{level.value}/{ckpt_id}", blob)
            receipt.bytes_local += len(blob)
            receipt.per_node_bytes[node] = len(blob)

        if level == CheckpointLevel.L2:
            for node in range(self.layout.nnodes):
                blob = self._node_blob(rank_data, node)
                for partner in self.layout.partners_of_node(node):
                    self.local[partner].write(f"partner/{ckpt_id}/from{node}", blob)
                    receipt.bytes_partner += len(blob)

        elif level == CheckpointLevel.L3:
            g = self.config.group_size
            code = ReedSolomonCode(k=g, m=g)
            for group in range(self.layout.ngroups):
                members = self.layout.nodes_of_group(group)
                blobs = [self._node_blob(rank_data, n) for n in members]
                parity = code.encode(blobs)
                max_len = max(len(b) for b in blobs)
                receipt.gf_operations += g * g * max_len
                # parity shard i lives on group member i
                for i, node in enumerate(members):
                    self.local[node].write(f"rs/{ckpt_id}/parity{i}", parity[i])
                    receipt.bytes_encoded += len(parity[i])

        elif level == CheckpointLevel.L4:
            for node in range(self.layout.nnodes):
                blob = self._node_blob(rank_data, node)
                self.pfs.write(f"pfs/{ckpt_id}/node{node}", blob)
                receipt.bytes_pfs += len(blob)

        # Success: retain the new version, retire those beyond the
        # per-level retention window (oldest first).
        retained = self.versions.setdefault(level, [])
        retained.append(ckpt_id)
        while len(retained) > self.config.keep_versions:
            old = retained.pop(0)
            self._purge(old, level)
            self.corrupt_ids.discard(old)
        self.latest[level] = ckpt_id
        self.receipts.append(receipt)
        _record_fti_metrics(
            "checkpoint", level, time.perf_counter() - t0, receipt.total_bytes
        )
        return receipt

    def _purge(self, ckpt_id: int, level: CheckpointLevel) -> None:
        for node in range(self.layout.nnodes):
            store = self.local[node]
            store.delete(f"own/{level.value}/{ckpt_id}")
            for other in range(self.layout.nnodes):
                store.delete(f"partner/{ckpt_id}/from{other}")
            for i in range(self.config.group_size):
                store.delete(f"rs/{ckpt_id}/parity{i}")
            self.pfs.delete(f"pfs/{ckpt_id}/node{node}")
        # keep lengths: cheap metadata, useful for forensic tests

    # -- failure injection -------------------------------------------------------------

    def fail_nodes(self, nodes: Iterable[int]) -> None:
        """Simulate concurrent failure of *nodes* (local data lost)."""
        for n in nodes:
            self.local[n].fail()

    def torn_checkpoint(self, level: CheckpointLevel | int, nodes: Iterable[int]) -> None:
        """A fault interrupted a level-*level* checkpoint while *nodes*
        were writing their node-local files in place.

        The interrupted write destroys the previous committed copy of
        that level on each writing node; redundancy held by *other* nodes
        (partner copies, RS parity, the PFS) survives.  Afterwards
        :meth:`can_recover` degrades exactly like the real library: a
        torn L1 is unrecoverable, a torn L2 still recovers via partners.
        """
        level = CheckpointLevel(level)
        ckpt_id = self.latest.get(level)
        if ckpt_id is None:
            return
        for n in nodes:
            self.local[n].torn_write(f"own/{level.value}/{ckpt_id}")
        self.torn_events += 1

    def repair_nodes(self, nodes: Iterable[int]) -> None:
        """Replace failed nodes with blank ones."""
        for n in nodes:
            self.local[n].repair()

    def mark_corrupt(self, ckpt_id: int) -> None:
        """Invalidate a committed checkpoint after the fact.

        The silent-data-corruption path: a later detection point reveals
        that *ckpt_id* was written while corruption was already latent in
        application memory.  Every stored object of the version (own
        copies, partner copies, RS parity, PFS objects) is marked corrupt
        in its store, and ``latest`` retargets to the newest surviving
        clean version of the level — recovery transparently reaches past
        the poisoned one.
        """
        level = next(
            (lvl for lvl, vs in self.versions.items() if ckpt_id in vs), None
        )
        if level is None:
            raise ValueError(
                f"checkpoint {ckpt_id} is not retained at any level"
            )
        self.corrupt_ids.add(ckpt_id)
        for node in range(self.layout.nnodes):
            store = self.local[node]
            store.mark_corrupt(f"own/{level.value}/{ckpt_id}")
            for other in range(self.layout.nnodes):
                store.mark_corrupt(f"partner/{ckpt_id}/from{other}")
            for i in range(self.config.group_size):
                store.mark_corrupt(f"rs/{ckpt_id}/parity{i}")
            self.pfs.mark_corrupt(f"pfs/{ckpt_id}/node{node}")
        clean = self.valid_versions(level)
        if clean:
            self.latest[level] = clean[-1]
        else:
            self.latest.pop(level, None)

    def valid_versions(self, level: CheckpointLevel | int) -> list[int]:
        """Retained, non-invalidated checkpoint ids of *level*, oldest
        first."""
        level = CheckpointLevel(level)
        return [
            c for c in self.versions.get(level, []) if c not in self.corrupt_ids
        ]

    @property
    def failed_nodes(self) -> list[int]:
        return [n for n in range(self.layout.nnodes) if self.local[n].failed]

    # -- recovery ------------------------------------------------------------------------

    def can_recover(self, level: CheckpointLevel | int) -> bool:
        """Whether :meth:`recover` would succeed at *level* right now."""
        try:
            self.recover(level, _dry_run=True)
            return True
        except RecoveryError:
            return False

    def recover(
        self,
        level: CheckpointLevel | int,
        ckpt_id: Optional[int] = None,
        _dry_run: bool = False,
    ) -> dict[int, bytes]:
        """Reconstruct all ranks' checkpoint data from *level*.

        Without *ckpt_id* the newest clean retained version is used; an
        explicit id recovers an older retained version (it must not have
        been invalidated by :meth:`mark_corrupt`).

        Raises
        ------
        RecoveryError
            If no (clean) checkpoint exists at the level or too much
            data is lost.
        """
        level = CheckpointLevel(level)
        if ckpt_id is None:
            ckpt_id = self.latest.get(level)
        elif ckpt_id in self.corrupt_ids:
            raise RecoveryError(
                f"checkpoint {ckpt_id} was invalidated (silent corruption)"
            )
        elif ckpt_id not in self.versions.get(level, []):
            raise RecoveryError(
                f"checkpoint {ckpt_id} is not retained at level {level.value}"
            )
        if ckpt_id is None:
            raise RecoveryError(f"no successful checkpoint at level {level.value}")

        t0 = time.perf_counter()
        if level == CheckpointLevel.L4:
            out = self._recover_l4(ckpt_id, _dry_run)
        elif level == CheckpointLevel.L3:
            out = self._recover_l3(ckpt_id, _dry_run)
        else:
            out = self._recover_l1_l2(ckpt_id, level, _dry_run)
        if not _dry_run:
            _record_fti_metrics(
                "recover", level, time.perf_counter() - t0,
                sum(len(b) for b in out.values()),
            )
        return out

    def recover_any(self) -> tuple[CheckpointLevel, dict[int, bytes]]:
        """Recover from the cheapest level that works (L1 → L4), walking
        each level's clean retained versions newest-first."""
        errors = []
        for level in CheckpointLevel:
            for cid in reversed(self.valid_versions(level)):
                try:
                    return level, self.recover(level, ckpt_id=cid)
                except RecoveryError as exc:
                    errors.append(f"L{level.value}#{cid}: {exc}")
        raise RecoveryError("no recoverable checkpoint; " + "; ".join(errors))

    # -- per-level recovery ---------------------------------------------------------------

    def _recover_l1_l2(
        self, ckpt_id: int, level: CheckpointLevel, dry: bool
    ) -> dict[int, bytes]:
        out: dict[int, bytes] = {}
        for node in range(self.layout.nnodes):
            blob = self.local[node].read(f"own/{level.value}/{ckpt_id}")
            if blob is None and level == CheckpointLevel.L2:
                for partner in self.layout.partners_of_node(node):
                    blob = self.local[partner].read(f"partner/{ckpt_id}/from{node}")
                    if blob is not None:
                        break
            if blob is None:
                raise RecoveryError(
                    f"level {level.value}: node {node}'s checkpoint is lost"
                )
            if not dry:
                out.update(self._split_node_blob(blob, node, ckpt_id))
        return out

    def _recover_l3(self, ckpt_id: int, dry: bool) -> dict[int, bytes]:
        g = self.config.group_size
        code = ReedSolomonCode(k=g, m=g)
        out: dict[int, bytes] = {}
        for group in range(self.layout.ngroups):
            members = self.layout.nodes_of_group(group)
            shards: list[Optional[bytes]] = []
            lengths = []
            for i, node in enumerate(members):
                data = self.local[node].read(f"own/{CheckpointLevel.L3.value}/{ckpt_id}")
                shards.append(data)
                lengths.append(
                    sum(self._lengths[ckpt_id][r] for r in self.layout.ranks_of_node(node))
                )
            for i, node in enumerate(members):
                shards.append(self.local[node].read(f"rs/{ckpt_id}/parity{i}"))
            try:
                blobs = code.decode(shards, lengths=lengths)
            except RSDecodeError as exc:
                raise RecoveryError(f"level 3: group {group} unrecoverable: {exc}")
            if not dry:
                for node, blob in zip(members, blobs):
                    out.update(self._split_node_blob(blob, node, ckpt_id))
        return out

    def _recover_l4(self, ckpt_id: int, dry: bool) -> dict[int, bytes]:
        out: dict[int, bytes] = {}
        for node in range(self.layout.nnodes):
            blob = self.pfs.read(f"pfs/{ckpt_id}/node{node}")
            if blob is None:
                raise RecoveryError(f"level 4: PFS object for node {node} missing")
            if not dry:
                out.update(self._split_node_blob(blob, node, ckpt_id))
        return out

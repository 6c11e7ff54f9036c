"""Bounded ring-buffer flight recorder for post-mortem forensics.

The recorder keeps the last *capacity* noteworthy records (fault
injections, recovery phases, periodic engine ticks) in a fixed-size
deque, so its steady-state cost is one dict append regardless of run
length.  Two durability paths make the buffer useful after the fact:

* **Spill** (``spill_path``): every record is also appended to a live
  JSONL file through a :class:`~repro.guard.durable.LineAppender`, so a
  replica killed with SIGKILL leaves at worst a torn final line, which
  :func:`load_flight_dump` drops.  A spill I/O error disables spilling
  for the rest of the run — recording never interrupts the simulation.
* **Dump** (:meth:`FlightRecorder.dump`): on normal exit (completed,
  aborted, wrong result) the ring is written with
  :func:`~repro.guard.durable.atomic_write`, so readers never observe a
  half-written dump.

Dumps are out-of-band artifacts named by replica seed
(:func:`flight_dump_path`); nothing about them enters the campaign
journal or report, which keeps those bit-identical with recording on
or off.
"""

from __future__ import annotations

import collections
import json
import os
from typing import Optional

from repro.guard.durable import LineAppender, atomic_write, read_jsonl

#: spill files stop growing past this many records (a truncation marker
#: is written once); the ring itself is always bounded by ``capacity``
MAX_SPILL_RECORDS = 200_000


def flight_spill_path(directory: str, seed: int) -> str:
    """Live spill file for the replica seeded with *seed*."""
    return os.path.join(directory, f"flight-{seed}.live.jsonl")


def flight_dump_path(directory: str, seed: int) -> str:
    """Final atomic dump for the replica seeded with *seed*."""
    return os.path.join(directory, f"flight-{seed}.jsonl")


class FlightRecorder:
    """Bounded in-memory recorder with optional live spill.

    Parameters
    ----------
    capacity:
        Ring size — the newest *capacity* records survive to the dump.
    spill_path:
        Optional JSONL file receiving every record as it happens
        (flushed per record, so a SIGKILL loses at most a torn tail).
    tick_stride:
        Engine hot-loop sampling stride (power of two).  The engine
        masks its event counter with ``tick_stride - 1``, so detached
        recorders cost one ``is not None`` test per event and attached
        ones a mask test plus one record per *tick_stride* events.
    """

    def __init__(
        self,
        capacity: int = 4096,
        spill_path: Optional[str] = None,
        tick_stride: int = 1024,
    ) -> None:
        if capacity < 16:
            raise ValueError(f"capacity must be >= 16, got {capacity}")
        if tick_stride < 1 or tick_stride & (tick_stride - 1):
            raise ValueError(
                f"tick_stride must be a power of two, got {tick_stride}"
            )
        self.capacity = int(capacity)
        self.tick_stride = int(tick_stride)
        self.ring: collections.deque = collections.deque(maxlen=capacity)
        self.seq = 0
        self.spill_path = spill_path
        self._spill: Optional[LineAppender] = None
        self._spill_written = 0
        if spill_path is not None:
            self._spill = LineAppender(spill_path, op="flight.spill")
            self._spill.open(truncate=True)

    # -- recording ---------------------------------------------------------------

    def record(self, kind: str, t_sim: float, /, **data) -> None:
        """Append one record (simulation-time stamped, monotonic seq).

        The first two parameters are positional-only so payloads may
        themselves carry ``kind=``/``t_sim=`` keys (fault records do).
        """
        self.seq += 1
        rec = {"seq": self.seq, "t": t_sim, "kind": kind}
        if data:
            rec.update(data)
        self.ring.append(rec)
        spill = self._spill
        if spill is not None and not spill.closed and self._spill_written < MAX_SPILL_RECORDS:
            self._spill_written += 1
            lines = [json.dumps(rec, sort_keys=True)]
            if self._spill_written == MAX_SPILL_RECORDS:
                lines.append(json.dumps({"kind": "spill_truncated", "seq": self.seq}))
            spill.write(*lines)

    def tick(self, now: float, events_fired: int) -> None:
        """Periodic engine-progress sample (called at ``tick_stride``)."""
        self.record("tick", now, events=events_fired)

    # -- dump --------------------------------------------------------------------

    def dump(self, path: str, meta: Optional[dict] = None) -> str:
        """Atomically write the ring as a JSONL dump (header + records).

        Readers never see a partial dump.  Returns *path*.
        """
        header = {"kind": "header", "flight": 1, "meta": dict(meta or {})}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(rec, sort_keys=True) for rec in self.ring)
        return atomic_write(path, "\n".join(lines) + "\n", "flight.dump")

    def close(self, remove_spill: bool = False) -> None:
        """Flush and close the spill file (idempotent).

        With ``remove_spill`` the spill file is deleted too — callers do
        this after a *successful* final dump, so a live spill on disk
        always means the replica never got to dump (killed mid-run).
        """
        if self._spill is not None:
            self._spill.close()
        if remove_spill and self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass


def load_flight_dump(path: str) -> tuple[dict, list[dict]]:
    """Read a dump or live spill, torn-tail-safe.

    Keeps whole lines only (a SIGKILL mid-write tears at most the final
    line) and skips malformed ones.  Returns ``(meta, records)``; *meta*
    is empty for spill files, which carry no header.
    """
    meta: dict = {}
    records: list[dict] = []
    for obj in read_jsonl(path, skip_malformed=True)[0]:
        if obj.get("kind") == "header" and "flight" in obj:
            meta = dict(obj.get("meta") or {})
        else:
            records.append(obj)
    return meta, records


def load_flight_dir(directory: str) -> dict[int, dict]:
    """Scan *directory* for flight artifacts, one entry per seed.

    A final dump (``flight-<seed>.jsonl``) wins over the live spill
    (``flight-<seed>.live.jsonl``); a seed with only a spill was killed
    mid-run — its entry is marked ``"in_flight": True``.
    """
    out: dict[int, dict] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    spills: dict[int, str] = {}
    for name in names:
        if not name.startswith("flight-"):
            continue
        if name.endswith(".live.jsonl"):
            stem = name[len("flight-") : -len(".live.jsonl")]
            if stem.lstrip("-").isdigit():
                spills[int(stem)] = os.path.join(directory, name)
        elif name.endswith(".jsonl"):
            stem = name[len("flight-") : -len(".jsonl")]
            if stem.lstrip("-").isdigit():
                seed = int(stem)
                meta, records = load_flight_dump(
                    os.path.join(directory, name)
                )
                out[seed] = {
                    "seed": seed,
                    "meta": meta,
                    "records": records,
                    "in_flight": False,
                }
    for seed, path in spills.items():
        if seed in out:
            continue
        meta, records = load_flight_dump(path)
        out[seed] = {
            "seed": seed,
            "meta": meta,
            "records": records,
            "in_flight": True,
        }
    return out

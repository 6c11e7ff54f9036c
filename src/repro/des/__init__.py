"""Component-based discrete-event simulation engine (SST substitute).

This subpackage provides the parallel discrete-event simulation (PDES)
substrate that BE-SST requires from Sandia's Structural Simulation Toolkit:

* :class:`~repro.des.event.Event` — totally-ordered simulation events.
* :class:`~repro.des.component.Component` — the unit of simulated hardware
  or software; components communicate only through links and self-events.
* :class:`~repro.des.link.Link` — a latency-bearing connection between two
  component ports.
* :class:`~repro.des.engine.Engine` — the sequential event loop.
* :class:`~repro.des.parallel.ParallelEngine` — a conservative,
  lookahead-window (YAWNS-style) partitioned engine.  Every component
  receives the same events, at the same times and in the same order, as
  under the sequential engine; only the global interleaving of events
  across partitions may differ.
* :class:`~repro.des.snapshot.Snapshot` / :class:`~repro.des.snapshot.SnapshotStore`
  — versioned, checksummed engine checkpoints with atomic persistence.
* :class:`~repro.des.replay.EventJournal` / :func:`~repro.des.replay.replay_and_diff`
  — append-only event journal and the deterministic-replay oracle.

Each engine is deterministic: given the same components, connections and
seeds it reproduces its event ordering and final state exactly — an
invariant that survives snapshot/restore.
"""

from repro.des.event import Event, EventQueue
from repro.des.component import Component, Port
from repro.des.link import Link
from repro.des.clock import Clock
from repro.des.engine import Engine, SimulationError
from repro.des.parallel import ParallelEngine
from repro.des.replay import (
    EventJournal,
    ReplayReport,
    diff_traces,
    read_journal,
    replay_and_diff,
)
from repro.des.rng import RNGRegistry
from repro.des.snapshot import (
    AutoSnapshotPolicy,
    Snapshot,
    SnapshotError,
    SnapshotStore,
)
from repro.des.stats import trace_digest

__all__ = [
    "Event",
    "EventQueue",
    "Component",
    "Port",
    "Link",
    "Clock",
    "Engine",
    "SimulationError",
    "ParallelEngine",
    "RNGRegistry",
    "Snapshot",
    "SnapshotError",
    "SnapshotStore",
    "AutoSnapshotPolicy",
    "EventJournal",
    "ReplayReport",
    "read_journal",
    "replay_and_diff",
    "diff_traces",
    "trace_digest",
]

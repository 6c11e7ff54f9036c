#!/usr/bin/env python
"""Self-healing simulation: snapshot/restore and the replay oracle.

Demonstrates (and asserts) the two recovery guarantees the simulator
makes, using a fault-injected application run plus a DES token ring:

* **kill/restore** — a run killed mid-flight resumes from its newest
  on-disk snapshot and finishes *bit-identical* to an uninterrupted run;
* **deterministic replay** — the event journal written across the
  kill/restore replays against a fresh engine with zero divergences.

Every printed line is deterministic: CI runs this script twice (plus the
internal kill/restore leg) and diffs the outputs byte-for-byte.

Run:  python examples/self_healing_sim.py        (seconds)
"""

import tempfile

from repro.core import (
    AppBEO,
    ArchBEO,
    BESSTSimulator,
    Checkpoint,
    Collective,
    Compute,
    FaultInjector,
    FaultModel,
    scenario_l1,
)
from repro.des import (
    Component,
    Engine,
    EventJournal,
    SimulationError,
    replay_and_diff,
    trace_digest,
)
from repro.des.link import connect
from repro.des.snapshot import SnapshotStore
from repro.models import ConstantModel
from repro.network import FullyConnected


# -- workload (module-level classes: snapshots pickle the whole simulator) ----


class SPMDProgram:
    def __init__(self, n_steps, scenario):
        self.n_steps = n_steps
        self.scenario = scenario

    def __call__(self, rank, nranks, params):
        body = []
        for ts in range(1, self.n_steps + 1):
            body.append(Compute.of("k"))
            body.append(Collective("allreduce", nbytes=8))
            for level in self.scenario.checkpoints_due(ts):
                body.append(Checkpoint.of(level, "ckpt"))
        return body


def make_sim(seed=3):
    arch = ArchBEO("m", topology=FullyConnected(8), cores_per_node=2)
    arch.bind("k", ConstantModel(0.1))
    arch.bind("ckpt", ConstantModel(0.05))
    arch.recovery_time_s = 0.2
    injector = FaultInjector(
        FaultModel(node_mtbf_s=3.0, software_fraction=1.0), nnodes=4, seed=seed
    )
    app = AppBEO("demo_l1", SPMDProgram(40, scenario_l1(5)), spmd=True)
    return BESSTSimulator(
        app, arch, nranks=8, seed=seed, fault_injector=injector,
        monte_carlo=False,
    )


def result_line(res):
    return (
        f"makespan={res.total_time:.6f} events={res.events_fired} "
        f"faults={res.faults_injected} rollbacks={res.rollbacks} "
        f"waste={res.wasted_time:.6f}"
    )


class RingNode(Component):
    def __init__(self, name, laps):
        super().__init__(name)
        self.laps = laps
        self.visits = 0

    def handle_event(self, port_name, payload, time):
        self.visits += 1
        lap = payload["lap"]
        if port_name == "prev":
            if self.name.endswith("_0"):
                lap += 1
            if lap < self.laps:
                self.send("next", {"lap": lap})


class Starter(Component):
    def setup(self):
        self.schedule(0.0, self._go)

    def _go(self, ev):
        self.engine.components["n_0"].send("next", {"lap": 0})

    def handle_event(self, port_name, payload, time):  # pragma: no cover
        pass


def build_ring(engine, n=8, laps=5, latency=0.5):
    nodes = [engine.register(RingNode(f"n_{i}", laps)) for i in range(n)]
    for i in range(n):
        connect(nodes[i], "next", nodes[(i + 1) % n], "prev", latency=latency)
    engine.register(Starter("zz_start"))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-selfheal-") as workdir:
        demo(workdir)


def demo(workdir: str) -> None:
    print("== 1. Reference run (uninterrupted, faults active) ==")
    ref = make_sim().run()
    print(result_line(ref))

    print("\n== 2. Kill mid-run, restore from snapshot, continue ==")
    snap_dir = f"{workdir}/snaps"
    victim = make_sim()
    victim.enable_snapshots(snap_dir, every_events=50)
    try:
        victim.run(max_events=ref.events_fired // 2)
    except SimulationError:
        pass  # the "kill": budget trips mid-simulation
    latest = SnapshotStore(snap_dir).latest()
    resumed = BESSTSimulator.restore(latest).run()
    print(result_line(resumed))
    identical = result_line(resumed) == result_line(ref)
    print(f"bit-identical after restore: {identical}")
    assert identical, "restored run diverged from the reference"

    print("\n== 3. Replay oracle over a kill/restore journal ==")
    journal_path = f"{workdir}/ring.jsonl"

    def fresh_ring():
        eng = Engine(seed=3, trace=True)
        build_ring(eng)
        return eng

    eng = fresh_ring()
    with EventJournal(journal_path, fresh=True) as journal:
        eng.attach_journal(journal)
        try:
            eng.run(max_events=40)
        except SimulationError:
            pass
        snap = eng.snapshot()
    restored = Engine.restore(snap)
    with EventJournal(journal_path) as journal:  # reopen for append
        restored.attach_journal(journal)
        restored.run()
    report = replay_and_diff(fresh_ring, journal_path)
    print(report.summary())
    assert report.identical, "journal replay diverged"

    print(f"\ndigest {trace_digest(restored)}")
    print("self-healing demo ok")


if __name__ == "__main__":
    main()

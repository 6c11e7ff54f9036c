"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

A :class:`Tracer` wraps public functions of the simulator's layers (the
DES queue, the BE interpreter, ArchBEO pricing, AppBEO program builds,
the fault domains, the testbed and the campaign harness) for the length
of a ``with tracer.installed(...)`` block and restores them afterwards.
The program itself carries no tracing code.

Spans are kept in memory as totals per ``(parent span, span)`` pair:
call count, seconds, and seconds covered by direct child spans.  A
span's self time is its seconds minus its child seconds.  Bookkeeping
that needs a call's result (repeat keys, program fingerprints) runs
after the span closes and is charged to a ``trace.observe`` child of
the enclosing span, so it never inflates a layer's self time.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import time
from typing import Callable, Optional

from repro.core import campaign as _campaign
from repro.core import supervisor as _supervisor
from repro.core.beo import AppBEO, ArchBEO
from repro.core.instructions import Checkpoint, Compute, Verify
from repro.core.simulator import BESSTSimulator
from repro.core.workflow import ModelDevelopment
from repro.des.engine import Engine
from repro.des.event import EventQueue
from repro.exps.casestudy import CaseStudyContext
from repro.faults import domains as _domains
from repro.faults.context import RecoveryContext

_PRICED = (Compute, Checkpoint, Verify)


class Tracer:
    """In-memory span totals plus the counters the layer metrics need."""

    def __init__(self) -> None:
        #: (parent name, name) -> [calls, seconds, child seconds]
        self.spans: dict = {}
        self.counts: dict = {}
        self._stack: list = []  # open spans: [name, child seconds]
        self._saved: list = []  # (owner, attribute, original) to restore
        self._sim_keys: set = set()  # deterministic predict keys of this simulation
        self._programs: set = set()  # program fingerprints of this simulation

    def reset(self) -> None:
        """Drop everything recorded so far (one window per workload run)."""
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping ------------------------------------------------------------------

    def _span(self, name: str) -> Callable:
        """A ``(t0, child seconds)`` recorder for span *name*.

        The clock is read last, after the bookkeeping, so the tracer's
        own cost lands in the span rather than in its parent's self time.
        """
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def close(t0: float, child: float) -> None:
            parent = stack[-1] if stack else None
            key = (parent[0] if parent is not None else "", name)
            rec = spans.get(key)
            if rec is None:
                rec = spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[2] += child
            seconds = perf() - t0
            rec[1] += seconds
            if parent is not None:
                parent[1] += seconds

        return close

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span *name*.

        ``before(args, kwargs)`` runs before the span opens;
        ``after(args, kwargs, result)`` runs after it closes and is
        charged to a ``trace.observe`` span.
        """
        stack = self._stack
        perf = time.perf_counter
        close = self._span(name)
        close_observe = self._span("trace.observe")

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            t0 = perf()
            frame = [name, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                close(t0, frame[1])
            if after is not None:
                t0 = perf()
                after(args, kwargs, result)
                close_observe(t0, 0.0)
            return result

        return wrapped

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    @contextlib.contextmanager
    def installed(self, *groups: str):
        """Wrap the layers of each named group; restore them on exit."""
        try:
            for group in groups:
                _GROUPS[group](self)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(r[0] for (_, span), r in self.spans.items() if span == name)

    def seconds(self, name: str) -> float:
        return sum(r[1] for (_, span), r in self.spans.items() if span == name)

    def self_seconds(self, name: str) -> float:
        return sum(r[1] - r[2] for (_, span), r in self.spans.items() if span == name)

    def table(self) -> dict:
        return {
            "spans": [
                {"parent": p, "span": s, "calls": r[0], "seconds": r[1], "child_seconds": r[2]}
                for (p, s), r in sorted(self.spans.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def write_trace(path: str, windows: list) -> None:
    """Write every recorded window's span table once, at the end."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(windows, fh, indent=1)


# -- trace points, one group per layer family -----------------------------------------


def _des(t: Tracer) -> None:
    def effective_cancel(args, kwargs):
        if not args[1].cancelled:
            t.count("des.cancelled")

    t.patch(EventQueue, "push", "des.push")
    t.patch(EventQueue, "pop", "des.pop")
    t.patch(Engine, "cancel", "des.cancel", before=effective_cancel)


def _sim(t: Tracer) -> None:
    def new_simulation(args, kwargs):
        t._sim_keys.clear()

    def sim_done(args, kwargs, res):
        t.count("des.events", res.events_fired)
        t.count("faults.rollbacks", res.rollbacks)
        t.count("sim.total_time", res.total_time)
        t.count("sim.waste", res.waste_rework + res.waste_downtime + res.waste_requeue)

    t.patch(BESSTSimulator, "run", "sim.run", before=new_simulation, after=sim_done)


def _beo(t: Tracer) -> None:
    def predict_key(args, kwargs, _res):
        rng = args[3] if len(args) > 3 else kwargs.get("rng")
        if rng is not None:
            return  # Monte-Carlo draw: not a deterministic lookup
        key = (args[1], tuple(args[2].items()))  # param_dict() keeps sorted order
        t.count("beo.predict.deterministic")
        if key in t._sim_keys:
            t.count("beo.predict.repeats")
        else:
            t._sim_keys.add(key)

    def program_built(args, kwargs, program):
        if args[1] == 0:
            t._programs.clear()  # BESSTSimulator builds rank 0 first
        fingerprint = hash(tuple(program))
        if fingerprint not in t._programs:
            t._programs.add(fingerprint)
            t.count("apps.build.distinct")
        t.count("apps.priced", sum(1 for i in program if isinstance(i, _PRICED)))

    t.patch(ArchBEO, "predict", "beo.predict", after=predict_key)
    t.patch(ArchBEO, "collective_time", "beo.collective")
    t.patch(ArchBEO, "exchange_time", "beo.exchange")
    t.patch(AppBEO, "build", "apps.build", after=program_built)


def _faults(t: Tracer) -> None:
    t.patch(BESSTSimulator, "inject_fault", "faults.inject")
    t.patch(RecoveryContext, "verify_attempt", "faults.verify_attempt")
    for cls in vars(_domains).values():
        if isinstance(cls, type) and issubclass(cls, _domains.FaultDomain):
            for hook in ("on_checkpoint_commit", "on_verify_point"):
                if hook in vars(cls):
                    t.patch(cls, hook, "faults.hooks")


def _testbed(t: Tracer) -> None:
    t.patch(CaseStudyContext, "measure_run", "testbed.measure")


def _setup(t: Tracer) -> None:
    t.patch(ModelDevelopment, "run", "setup.model_dev")


def _harness(t: Tracer) -> None:
    # Pickled sizes are measured outside the supervisor span, from the
    # task list the campaign hands over and the results it gets back.
    def sent(args, kwargs):
        supervisor, tasks = args[0], args[1]
        t.count("harness.payload_bytes", sum(len(pickle.dumps(p)) for _, p in tasks))
        if supervisor.n_workers > 1 and tasks:
            t.count("harness.pool_starts")

    def received(args, kwargs, out):
        t.count("harness.result_bytes", sum(len(pickle.dumps(v)) for v in out.results.values()))
        t.count("harness.pool_starts", out.stats.pool_rebuilds)
        t.count("harness.retries", out.stats.retries)

    t.patch(_supervisor.TaskSupervisor, "run", "harness.supervisor", before=sent, after=received)
    t.patch(_supervisor.WriteAheadJournal, "append", "harness.wal")
    t.patch(_campaign, "aggregate_point", "harness.aggregate")


_GROUPS = {
    "des": _des,
    "sim": _sim,
    "beo": _beo,
    "faults": _faults,
    "testbed": _testbed,
    "setup": _setup,
    "harness": _harness,
}

#: the groups whose layers run inside a simulation
SIM_GROUPS = ("des", "sim", "beo", "faults")

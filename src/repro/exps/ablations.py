"""Ablation experiments (beyond the paper's figures).

* ABL1 — modeling method: interpolation LUT vs symbolic regression on
  the same calibration data (the paper implements both; the case study
  uses symbolic regression).
* ABL2 — checkpoint period: simulated runtime under fault injection
  across periods vs the Young/Daly analytical optimum.
* ABL3 — analytical baselines: reliability-aware Amdahl/Gustafson and
  replication speedup curves, locating the optimal process count.
* ABL4 — DES engines: sequential vs conservative-parallel equivalence
  and event-rate comparison on a message-passing workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.analytical import (
    daly_interval,
    replication_speedup,
    reliability_aware_amdahl,
    reliability_aware_gustafson,
)
from repro.core.fault_injection import FaultInjector, FaultModel
from repro.core.ft import scenario_l1
from repro.core.workflow import simulate_design_point
from repro.models.calibration import CalibrationPipeline, dataset_mape
from repro.apps.lulesh import lulesh_appbeo
from repro.exps.casestudy import CaseStudyContext, get_context


# -- ABL1: interpolation vs symbolic regression -------------------------------------


def modeling_method_ablation(
    ctx: Optional[CaseStudyContext] = None, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Kernel -> {method: full-grid MAPE} for both modeling methods."""
    ctx = ctx or get_context()
    out: dict[str, dict[str, float]] = {}
    lut_pipe = CalibrationPipeline(method="lut", seed=seed)
    for kernel, ds in ctx.dev.datasets.items():
        lut_fit = lut_pipe.fit_kernel(ds)
        out[kernel] = {
            "symreg": dataset_mape(ctx.dev.fitted[kernel].model, ds),
            "lut": dataset_mape(lut_fit.model, ds),
        }
    return out


def format_abl1(table: dict[str, dict[str, float]]) -> str:
    lines = [
        "ABL1 — modeling method (full-grid MAPE)",
        f"{'kernel':<20s}{'symreg':>10s}{'lut':>10s}",
    ]
    for kernel, row in table.items():
        lines.append(f"{kernel:<20s}{row['symreg']:>9.2f}%{row['lut']:>9.2f}%")
    return "\n".join(lines)


# -- ABL2: checkpoint period vs Young/Daly ---------------------------------------------


@dataclass
class PeriodPoint:
    period: int
    mean_total: float
    mean_rollbacks: float


@dataclass
class YoungDalyAblation:
    points: list[PeriodPoint]
    best_period: int
    daly_period_timesteps: float
    ckpt_cost: float
    timestep_cost: float
    system_mtbf: float


def youngdaly_ablation(
    ctx: Optional[CaseStudyContext] = None,
    periods: Sequence[int] = (5, 10, 20, 40, 80, 160),
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 400,
    node_mtbf_s: float = 30.0,
    reps: int = 5,
) -> YoungDalyAblation:
    """Sweep the checkpoint period under fault injection; compare the
    simulated optimum with Daly's analytic interval."""
    ctx = ctx or get_context()
    arch = replace(ctx.archbeo, recovery_time_s=0.02)  # the cached one stays
    nnodes = max(1, ranks // ctx.machine.ranks_per_node)
    model = FaultModel(node_mtbf_s=node_mtbf_s, software_fraction=1.0)

    points: list[PeriodPoint] = []
    for period in periods:
        mc = simulate_design_point(
            lulesh_appbeo(timesteps=timesteps, scenario=scenario_l1(period)),
            arch,
            ranks,
            {"epr": epr},
            reps=reps,
            base_seed=7,
            fault_injector_factory=lambda s: FaultInjector(model, nnodes=nnodes, seed=s + 5),
            max_events=50_000_000,
            record_timelines="none",
        )
        points.append(
            PeriodPoint(
                period=period,
                mean_total=mc.total_time.mean,
                mean_rollbacks=mc.mean_rollbacks,
            )
        )

    ckpt_cost = arch.predict("fti_l1", {"epr": epr, "ranks": ranks})
    step_cost = arch.predict("lulesh_timestep", {"epr": epr, "ranks": ranks})
    mtbf = model.system_mtbf(nnodes)
    daly_ts = daly_interval(ckpt_cost, mtbf) / step_cost
    best = min(points, key=lambda p: p.mean_total).period
    return YoungDalyAblation(
        points=points,
        best_period=best,
        daly_period_timesteps=daly_ts,
        ckpt_cost=ckpt_cost,
        timestep_cost=step_cost,
        system_mtbf=mtbf,
    )


def format_abl2(res: YoungDalyAblation) -> str:
    lines = [
        "ABL2 — checkpoint period under fault injection vs Young/Daly",
        f"  L1 cost {res.ckpt_cost * 1e3:.1f}ms, timestep "
        f"{res.timestep_cost * 1e3:.2f}ms, system MTBF {res.system_mtbf:.2f}s",
        f"{'period (ts)':>12s}{'mean total':>12s}{'rollbacks':>11s}",
    ]
    for p in res.points:
        marker = "  <- simulated optimum" if p.period == res.best_period else ""
        lines.append(
            f"{p.period:>12d}{p.mean_total:>11.3f}s{p.mean_rollbacks:>11.1f}{marker}"
        )
    lines.append(
        f"Daly analytic optimum ~= {res.daly_period_timesteps:.0f} timesteps"
    )
    return "\n".join(lines)


# -- ABL3: analytical baselines -------------------------------------------------------------


def analytical_baselines(
    serial_fraction: float = 0.001,
    node_mtbf: float = 5.0 * 365 * 86400 / 1000,  # node MTBF such that 1k nodes ~ 43h
    ckpt_cost: float = 60.0,
    counts: Sequence[int] = (1, 8, 64, 512, 4096, 32768, 262144),
) -> list[dict]:
    """Speedup curves: fault-free vs faults+C/R vs replication."""
    rows = []
    for n in counts:
        row = {
            "n": n,
            "amdahl": reliability_aware_amdahl(
                n, serial_fraction, node_mtbf=1e30, ckpt_cost=ckpt_cost
            ),
            "amdahl_ft": reliability_aware_amdahl(
                n, serial_fraction, node_mtbf=node_mtbf, ckpt_cost=ckpt_cost
            ),
            "gustafson_ft": reliability_aware_gustafson(
                n, serial_fraction, node_mtbf=node_mtbf, ckpt_cost=ckpt_cost
            ),
            "replication": (
                replication_speedup(
                    n, serial_fraction, node_mtbf=node_mtbf, ckpt_cost=ckpt_cost
                )
                if n >= 2
                else 1.0
            ),
        }
        rows.append(row)
    return rows


def format_abl3(rows: list[dict]) -> str:
    lines = [
        "ABL3 — analytical reliability-aware speedup baselines",
        f"{'n':>8s}{'Amdahl (no faults)':>20s}{'Amdahl+C/R':>14s}"
        f"{'Gustafson+C/R':>15s}{'replication':>13s}",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>8d}{r['amdahl']:>20.1f}{r['amdahl_ft']:>14.1f}"
            f"{r['gustafson_ft']:>15.1f}{r['replication']:>13.1f}"
        )
    return "\n".join(lines)


# -- ABL4: engine equivalence ------------------------------------------------------------------


def engine_ablation(n_ring: int = 16, laps: int = 200) -> dict:
    """Sequential vs parallel engine on a token-ring workload."""
    from repro.des import Component, Engine, ParallelEngine
    from repro.des.link import connect

    class RingNode(Component):
        """Passes a token around the ring `laps` times, recording visits."""

        def __init__(self, name, laps):
            super().__init__(name)
            self.laps = laps
            self.visits = []

        def start(self):
            self.send("next", {"lap": 0})

        def handle_event(self, port_name, payload, time):
            self.visits.append(round(time, 12))
            lap = payload["lap"]
            if port_name == "prev":
                if self.name.endswith("_0"):
                    lap += 1
                if lap < self.laps:
                    self.send("next", {"lap": lap})

    def build(engine):
        nodes = [engine.register(RingNode(f"n_{i}", laps)) for i in range(n_ring)]
        for i in range(n_ring):
            connect(nodes[i], "next", nodes[(i + 1) % n_ring], "prev", latency=0.5)
        engine.schedule(0.0, lambda ev: nodes[0].start())
        return nodes

    out = {}
    t0 = time.perf_counter()
    seq = Engine(seed=1)
    seq_nodes = build(seq)
    seq.run()
    out["sequential"] = {
        "wall": time.perf_counter() - t0,
        "events": seq.events_fired,
    }
    for nparts in (2, 4):
        t0 = time.perf_counter()
        par = ParallelEngine(nparts=nparts, seed=1)
        par_nodes = build(par)
        par.run()
        identical = all(
            a.visits == b.visits for a, b in zip(seq_nodes, par_nodes)
        )
        out[f"parallel_{nparts}"] = {
            "wall": time.perf_counter() - t0,
            "events": par.events_fired,
            "windows": par.windows_executed,
            "identical": identical,
        }
    return out


def format_abl4(res: dict) -> str:
    lines = ["ABL4 — sequential vs conservative-parallel DES engine"]
    for name, row in res.items():
        extra = ""
        if "identical" in row:
            extra = f" windows={row['windows']} identical={row['identical']}"
        lines.append(
            f"  {name:<14s} wall={row['wall'] * 1e3:8.1f}ms events={row['events']}{extra}"
        )
    return "\n".join(lines)

"""Extension experiments: the paper's stated future directions, working.

* EXT1 — **all four FTI levels** in the full-system simulation (the case
  study stopped at L1/L2 pending communication models; our fat-tree comm
  model and L3/L4 kernels let the DSE cover the whole of Table I).
* EXT2 — **checkpoint-level selection**: expected-waste ranking of the
  levels as the system failure rate grows (the Table I discussion's
  "what level of fault-tolerance is necessary to optimize performance"),
  cross-checked against fault-injecting simulation.
* EXT3 — **architectural DSE**: the same application and FT scenario on
  Quartz's fat tree vs a notional dragonfly with identical node count
  (the Co-Design phase's "plug-and-play" architecture swap).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.analytical.levelselect import (
    LevelChoice,
    quartz_level_profiles,
    select_level,
)
from repro.core.beo import ArchBEO
from repro.core.ft import scenario_levels
from repro.core.workflow import ModelDevelopment, build_archbeo, simulate_design_point
from repro.apps.lulesh import lulesh_appbeo
from repro.exps.casestudy import CKPT_PERIOD, CaseStudyContext, get_context
from repro.network.commmodel import CollectiveCostModel, LogGPModel
from repro.network.dragonfly import Dragonfly

#: kernels including the levels the case study deferred
ALL_LEVEL_KERNELS = ("lulesh_timestep", "fti_l1", "fti_l2", "fti_l3", "fti_l4")

_ALL_LEVELS_CTX: dict = {}


def get_all_levels_context(seed: int = 0) -> CaseStudyContext:
    """A case-study context whose models cover all four FTI levels."""
    ctx = _ALL_LEVELS_CTX.get(seed)
    if ctx is not None:
        return ctx
    machine = get_context(seed=seed).machine
    dev = ModelDevelopment(machine, ALL_LEVEL_KERNELS, seed=seed).run()
    archbeo = build_archbeo(machine, dev.models())
    ctx = CaseStudyContext(machine=machine, dev=dev, archbeo=archbeo, seed=seed)
    _ALL_LEVELS_CTX[seed] = ctx
    return ctx


# -- EXT1: all four levels in full-system simulation -----------------------------------


@dataclass
class LevelRunRow:
    level: int
    ckpt_instance_cost: float      #: modeled per-instance cost
    simulated_total: float
    measured_total: float

    @property
    def percent_error(self) -> float:
        return 100.0 * abs(self.simulated_total - self.measured_total) / self.measured_total


def all_levels_full_system(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 200,
    period: int = CKPT_PERIOD,
    reps: int = 3,
) -> list[LevelRunRow]:
    """Full-system totals for single-level scenarios L1..L4."""
    ctx = ctx or get_all_levels_context()
    rows = []
    for level in (1, 2, 3, 4):
        scenario = scenario_levels([level], period=period)
        mc = ctx.simulate(epr, ranks, scenario, timesteps=timesteps, reps=reps)
        measured = ctx.measure_mean_total(
            epr, ranks, scenario, timesteps=timesteps, reps=2
        )
        rows.append(
            LevelRunRow(
                level=level,
                ckpt_instance_cost=ctx.archbeo.predict(
                    f"fti_l{level}", {"epr": epr, "ranks": ranks}
                ),
                simulated_total=mc.total_time.mean,
                measured_total=measured,
            )
        )
    return rows


def format_ext1(rows: list[LevelRunRow]) -> str:
    lines = [
        "EXT1 — all four FTI levels, full-system simulation",
        f"{'level':>6s}{'instance':>12s}{'simulated':>12s}{'measured':>12s}{'err %':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r.level:>6d}{r.ckpt_instance_cost * 1e3:>10.1f}ms"
            f"{r.simulated_total:>11.3f}s{r.measured_total:>11.3f}s"
            f"{r.percent_error:>7.1f}%"
        )
    return "\n".join(lines)


# -- EXT2: level selection vs failure rate ------------------------------------------------


@dataclass
class LevelSelectionRow:
    system_mtbf: float
    ranking: list[LevelChoice]

    @property
    def best_level(self) -> int:
        return self.ranking[0].profile.level


def level_selection_sweep(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 10,
    mtbfs: Sequence[float] = (36000.0, 3600.0, 600.0, 120.0, 30.0),
    fallback_penalty: float = 1800.0,
) -> list[LevelSelectionRow]:
    """Rank the four levels analytically across system MTBFs.

    Per-level instance costs come from the fitted models, so this is the
    analytic companion of the simulator's FT-level DSE.
    """
    ctx = ctx or get_all_levels_context()
    costs = {
        level: ctx.archbeo.predict(f"fti_l{level}", {"epr": epr, "ranks": ranks})
        for level in (1, 2, 3, 4)
    }
    profiles = quartz_level_profiles(costs)
    return [
        LevelSelectionRow(m, select_level(profiles, m, fallback_penalty))
        for m in mtbfs
    ]


def format_ext2(rows: list[LevelSelectionRow]) -> str:
    lines = [
        "EXT2 — checkpoint-level selection vs system MTBF",
        f"{'MTBF':>10s}{'best':>6s}   waste by level (L1..L4)",
    ]
    for r in rows:
        waste = {c.profile.level: c.waste for c in r.ranking}
        ws = "  ".join(f"L{l}={waste[l]:.3f}" for l in (1, 2, 3, 4))
        lines.append(f"{r.system_mtbf:>9.0f}s{r.best_level:>6d}   {ws}")
    return "\n".join(lines)


# -- EXT3: architectural DSE (fat tree vs dragonfly) --------------------------------------


@dataclass
class ArchDSERow:
    architecture: str
    scenario: str
    total: float


def _dragonfly_archbeo(base: ArchBEO, nnodes: int) -> ArchBEO:
    """The notional machine: same nodes and kernel models, dragonfly
    fabric with faster links but a tapered global stage."""
    topo = Dragonfly(nnodes, nodes_per_router=8, routers_per_group=8)
    comm = CollectiveCostModel(
        LogGPModel(
            topo,
            latency_per_hop=60e-9,       # shorter cables within groups
            overhead=300e-9,
            bytes_per_second=25e9,       # next-gen links
        )
    )
    return ArchBEO(
        name="quartz-dragonfly",
        models=dict(base.models),
        topology=topo,
        comm=comm,
        cores_per_node=base.cores_per_node,
    )


def architectural_dse(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 200,
    period: int = CKPT_PERIOD,
    reps: int = 3,
) -> list[ArchDSERow]:
    """Swap the interconnect under the same app + FT scenarios."""
    ctx = ctx or get_all_levels_context()
    nnodes = max(ranks // ctx.machine.ranks_per_node, 1)
    architectures = {
        "fat-tree": ctx.archbeo,
        "dragonfly": _dragonfly_archbeo(ctx.archbeo, nnodes),
    }
    rows = []
    for arch_name, arch in architectures.items():
        for levels in ([], [1], [1, 2]):
            scenario = scenario_levels(levels, period=period)
            mc = simulate_design_point(
                lulesh_appbeo(timesteps=timesteps, scenario=scenario),
                arch,
                ranks,
                {"epr": epr},
                reps=reps,
                base_seed=11,
                record_timelines="none",
            )
            rows.append(
                ArchDSERow(
                    architecture=arch_name,
                    scenario=scenario.name,
                    total=mc.total_time.mean,
                )
            )
    return rows


def format_ext3(rows: list[ArchDSERow]) -> str:
    lines = [
        "EXT3 — architectural DSE: fat tree vs notional dragonfly",
        f"{'architecture':<14s}{'scenario':<10s}{'total':>10s}",
    ]
    for r in rows:
        lines.append(f"{r.architecture:<14s}{r.scenario:<10s}{r.total:>9.3f}s")
    return "\n".join(lines)


# -- EXT4: hardware-parameter DSE (notional NVRAM upgrade) --------------------------------


@dataclass
class HardwareDSERow:
    machine: str
    scenario: str
    total: float
    ckpt_time: float


def hardware_upgrade_dse(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 25,
    timesteps: int = 200,
    period: int = CKPT_PERIOD,
    nvram_speedup: float = 4.0,
    reps: int = 3,
) -> list[HardwareDSERow]:
    """Swap checkpoint-storage hardware under the same app (Fig. 2 "C").

    A notional Quartz with NVRAM-class node-local storage checkpoints
    ``nvram_speedup``x faster: the validated L1/L2 models are scaled by
    ``1/nvram_speedup`` (partner copies still cross the same fabric, so
    L2 only scales its storage share; we conservatively scale the whole
    kernel and call it an upper bound on the benefit).
    """
    from repro.models.base import ScaledModel

    ctx = ctx or get_all_levels_context()
    base = ctx.archbeo
    upgraded = ArchBEO(
        name=f"{base.name}-nvram",
        models=dict(base.models),
        topology=base.topology,
        comm=base.comm,
        cores_per_node=base.cores_per_node,
    )
    for kernel in ("fti_l1", "fti_l2"):
        upgraded.models[kernel] = ScaledModel(
            base.models[kernel], 1.0 / nvram_speedup
        )

    rows: list[HardwareDSERow] = []
    for name, arch in (("quartz", base), ("quartz+nvram", upgraded)):
        for levels in ([], [1], [1, 2]):
            scenario = scenario_levels(levels, period=period)
            mc = simulate_design_point(
                lulesh_appbeo(timesteps=timesteps, scenario=scenario),
                arch,
                ranks,
                {"epr": epr},
                reps=reps,
                base_seed=23,
            )
            rows.append(
                HardwareDSERow(
                    machine=name,
                    scenario=scenario.name,
                    total=mc.total_time.mean,
                    ckpt_time=float(
                        np.mean([r.checkpoint_time for r in mc.results])
                    ),
                )
            )
    return rows


def format_ext4(rows: list[HardwareDSERow]) -> str:
    lines = [
        "EXT4 — hardware-parameter DSE: NVRAM checkpoint storage",
        f"{'machine':<15s}{'scenario':<10s}{'total':>10s}{'ckpt time':>11s}",
    ]
    for r in rows:
        lines.append(
            f"{r.machine:<15s}{r.scenario:<10s}{r.total:>9.3f}s{r.ckpt_time:>10.3f}s"
        )
    return "\n".join(lines)


# -- EXT5: simulated checkpoint-level DSE under mixed faults --------------------------------


@dataclass
class LevelFaultRow:
    level: int
    mean_total: float
    mean_rollbacks: float
    mean_wasted: float
    scratch_restarts: float    #: mean rollbacks that fell back to t=0


def level_fault_dse(
    ctx: Optional[CaseStudyContext] = None,
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 200,
    period: int = 20,
    node_mtbf_s: float = 8.0,
    software_fraction: float = 0.6,
    recovery_time_s: float = 0.02,
    reps: int = 6,
) -> list[LevelFaultRow]:
    """Simulate each single-level scenario under a mixed fault load.

    Faults are ``software_fraction`` software crashes (any level recovers)
    and the rest node losses (L1 checkpoints cannot recover them — the
    job restarts from scratch).  The expected outcome is EXT2's analytic
    story, now emerging from simulation: cheap L1 pays catastrophic
    restarts on node faults, expensive high levels pay steady overhead,
    and the optimum sits where the fault mix and checkpoint costs balance.
    """
    from repro.core.fault_injection import FaultInjector, FaultModel

    ctx = ctx or get_all_levels_context()
    arch = replace(ctx.archbeo, recovery_time_s=recovery_time_s)  # the cached one stays
    nnodes = max(1, ranks // ctx.machine.ranks_per_node)
    model = FaultModel(
        node_mtbf_s=node_mtbf_s, software_fraction=software_fraction
    )

    rows: list[LevelFaultRow] = []
    for level in (1, 2, 3, 4):
        scenario = scenario_levels([level], period=period)
        injectors: list[FaultInjector] = []

        def fault_injector(seed: int) -> FaultInjector:
            injectors.append(FaultInjector(model, nnodes=nnodes, seed=seed + 1000))
            return injectors[-1]

        mc = simulate_design_point(
            lulesh_appbeo(timesteps=timesteps, scenario=scenario),
            arch,
            ranks,
            {"epr": epr},
            reps=reps,
            fault_injector_factory=fault_injector,
            max_events=50_000_000,
            record_timelines="none",
        )
        scratch = sum(fi.log.count_kind("node") for fi in injectors)
        rows.append(
            LevelFaultRow(
                level=level,
                mean_total=mc.total_time.mean,
                mean_rollbacks=mc.mean_rollbacks,
                mean_wasted=float(np.mean([r.wasted_time for r in mc.results])),
                scratch_restarts=scratch / reps if level == 1 else 0.0,
            )
        )
    return rows


def format_ext5(rows: list[LevelFaultRow]) -> str:
    lines = [
        "EXT5 — simulated level DSE under mixed faults "
        "(software + node losses)",
        f"{'level':>6s}{'mean total':>12s}{'rollbacks':>11s}{'wasted':>9s}"
        f"{'scratch/run':>13s}",
    ]
    best = min(rows, key=lambda r: r.mean_total).level
    for r in rows:
        marker = "  <- simulated optimum" if r.level == best else ""
        lines.append(
            f"{r.level:>6d}{r.mean_total:>11.3f}s{r.mean_rollbacks:>11.1f}"
            f"{r.mean_wasted:>8.3f}s{r.scratch_restarts:>13.1f}{marker}"
        )
    return "\n".join(lines)


# -- EXT6: ABFT vs checkpoint-restart for silent data corruption ----------------------------


@dataclass
class ABFTRow:
    n: int                     #: protected matmul dimension
    abft_overhead_pct: float
    p_bad_plain: float         #: silently-wrong probability, plain or C/R
    p_bad_abft: float


def abft_vs_checkpointing(
    sizes: Sequence[int] = (64, 256, 1024, 4096),
    sdc_rate_per_hour: float = 0.02,
    job_hours: float = 24.0,
    abft_coverage: float = 0.95,
) -> list[ABFTRow]:
    """Algorithmic DSE: checksum ABFT against C/R for SDC exposure.

    Checkpoint-restart is blind to silent data corruption (it checkpoints
    the corrupted state), so its silently-wrong probability equals the
    plain run's; ABFT pays an arithmetic overhead that shrinks with
    problem size while slashing that probability.
    """
    from repro.abft import abft_overhead_ratio, sdc_outcome_probabilities

    probs = sdc_outcome_probabilities(sdc_rate_per_hour, job_hours, abft_coverage)
    return [
        ABFTRow(
            n=n,
            abft_overhead_pct=100.0 * abft_overhead_ratio(n),
            p_bad_plain=probs["p_bad_plain"],
            p_bad_abft=probs["p_bad_abft"],
        )
        for n in sizes
    ]


def format_ext6(rows: list[ABFTRow]) -> str:
    lines = [
        "EXT6 — ABFT vs checkpoint-restart under silent data corruption",
        f"{'n':>8s}{'ABFT overhead':>15s}{'P(bad) plain/CR':>17s}{'P(bad) ABFT':>13s}",
    ]
    for r in rows:
        lines.append(
            f"{r.n:>8d}{r.abft_overhead_pct:>14.2f}%{r.p_bad_plain:>17.3f}"
            f"{r.p_bad_abft:>13.3f}"
        )
    return "\n".join(lines)


# -- EXT7: modeling-granularity ablation ------------------------------------------------------


@dataclass
class GranularityRow:
    granularity: str
    kernels: int
    simulated_total: float
    measured_total: float
    fit_seconds: float

    @property
    def percent_error(self) -> float:
        return 100.0 * abs(self.simulated_total - self.measured_total) / self.measured_total


def granularity_apps(epr: int, timesteps: int) -> list:
    """EXT7's two LULESH variants as ``(name, kernels, AppBEO)`` triples:
    coarse (one timestep kernel) and fine (force + EOS subkernels)."""
    from repro.apps.lulesh import lulesh_halo_bytes, validate_cube_ranks
    from repro.core.beo import AppBEO, as_int
    from repro.core.instructions import Collective, Compute, Exchange

    def fine_builder(rank, nranks, params):
        e = as_int("epr", params["epr"])
        body = []
        for _ in range(timesteps):
            body.append(Compute.of("lulesh_force", epr=e, ranks=nranks))
            body.append(Compute.of("lulesh_eos", epr=e, ranks=nranks))
            body.append(Exchange(nbytes=lulesh_halo_bytes(e), neighbors=6))
            body.append(Collective("allreduce", nbytes=8))
        return body

    def coarse_builder(rank, nranks, params):
        e = as_int("epr", params["epr"])
        body = []
        for _ in range(timesteps):
            body.append(Compute.of("lulesh_timestep", epr=e, ranks=nranks))
            body.append(Exchange(nbytes=lulesh_halo_bytes(e), neighbors=6))
            body.append(Collective("allreduce", nbytes=8))
        return body

    return [
        (
            name,
            kernels,
            AppBEO(
                f"lulesh_{name}", builder, default_params={"epr": epr},
                validate_ranks=validate_cube_ranks, spmd=True,
            ),
        )
        for name, kernels, builder in (
            ("coarse", ["lulesh_timestep"], coarse_builder),
            ("fine", ["lulesh_force", "lulesh_eos"], fine_builder),
        )
    ]


def granularity_ablation(
    ranks: int = 64,
    epr: int = 10,
    timesteps: int = 200,
    reps: int = 3,
    seed: int = 0,
) -> list[GranularityRow]:
    """Coarse (one timestep kernel) vs fine (force + EOS subkernels).

    BE-SST "can use models at various levels of granularity to more
    finely balance speed and accuracy": the fine decomposition doubles
    the modeling work for (typically) a small accuracy change at the
    system level.
    """
    import time as _time

    from repro.core.ft import NO_FT
    from repro.testbed.machine import measure_application_run
    from repro.testbed.quartz import make_quartz

    machine = make_quartz()
    variants = granularity_apps(epr, timesteps)
    measured = float(
        np.mean(
            [
                measure_application_run(
                    machine, ranks, timesteps, NO_FT, {"epr": epr},
                    seed=seed + 300 + i,
                ).total_time
                for i in range(2)
            ]
        )
    )
    rows: list[GranularityRow] = []
    for name, kernels, app in variants:
        t0 = _time.perf_counter()
        dev = ModelDevelopment(machine, kernels, seed=seed).run()
        fit_seconds = _time.perf_counter() - t0
        arch = build_archbeo(machine, dev.models())
        mc = simulate_design_point(
            app, arch, ranks, {"epr": epr}, reps=reps, base_seed=41, record_timelines="none"
        )
        rows.append(
            GranularityRow(
                granularity=name,
                kernels=len(kernels),
                simulated_total=mc.total_time.mean,
                measured_total=measured,
                fit_seconds=fit_seconds,
            )
        )
    return rows


def format_ext7(rows: list[GranularityRow]) -> str:
    lines = [
        "EXT7 — modeling granularity: coarse timestep vs fine subkernels",
        f"{'granularity':<13s}{'kernels':>8s}{'simulated':>11s}{'measured':>11s}"
        f"{'err %':>8s}{'fit time':>10s}",
    ]
    for r in rows:
        lines.append(
            f"{r.granularity:<13s}{r.kernels:>8d}{r.simulated_total:>10.3f}s"
            f"{r.measured_total:>10.3f}s{r.percent_error:>7.1f}%"
            f"{r.fit_seconds:>9.1f}s"
        )
    return "\n".join(lines)


# -- EXT8: SDC verification-interval DSE under a mixed fault taxonomy ----------


#: fault mix exercising the whole taxonomy, weighted toward SDC so the
#: verification cadence is the binding design choice
EXT8_FAULT_MIX = (
    ("burst", 0.05),
    ("node", 0.10),
    ("sdc", 0.40),
    ("software", 0.35),
    ("straggler", 0.10),
)


@dataclass
class SDCVerifyRow:
    verify_period: int          #: timesteps between ABFT verifications (0: off)
    mean_total: float
    mean_wasted: float
    mean_verify: float          #: mean time spent in verification kernels
    sdc_detected: float         #: mean detected strikes per run
    sdc_undetected: float       #: mean strikes still latent at completion
    wrong_result_rate: float    #: fraction of runs completing with bad output
    analytic_period: float      #: two-error-type optimum of this row's spec


def _ext8_spec(
    verify_period: int, node_mtbf_s: float, ckpt_period: int, timesteps: int
):
    from repro.core.campaign import CampaignSpec

    return CampaignSpec(
        node_mtbf_s=node_mtbf_s,
        ckpt_period=ckpt_period,
        timesteps=timesteps,
        fault_mix=EXT8_FAULT_MIX,
        verify_period=verify_period,
    )


def sdc_verification_dse(
    verify_periods: Sequence[int] = (0, 2, 5, 10, 20),
    node_mtbf_s: float = 6.0,
    ckpt_period: int = 10,
    timesteps: int = 80,
    reps: int = 8,
    seed: int = 0,
) -> list[SDCVerifyRow]:
    """Sweep the ABFT verification cadence under a mixed fault taxonomy.

    The trade the sweep exposes: verifying every couple of timesteps pays
    steady kernel overhead but catches silent corruption early (short
    detection latency, shallow rollbacks, few wrong results); verifying
    rarely or never is cheap per run but lets strikes survive to
    completion, turning finished runs into wrong answers.  The simulated
    sweet spot is cross-checked against the closed-form two-error-type
    optimum of :func:`repro.analytical.youngdaly.two_error_interval`
    (see :func:`ext8_analytic_period`).
    """
    from repro.core.campaign import build_campaign_simulator
    from repro.core.fault_injection import RecoveryPolicy
    from repro.core.montecarlo import derive_seeds

    policy = RecoveryPolicy()
    seeds = derive_seeds(seed, reps)
    rows: list[SDCVerifyRow] = []
    for vp in verify_periods:
        spec = _ext8_spec(vp, node_mtbf_s, ckpt_period, timesteps)
        results = []
        for s in seeds:
            sim = build_campaign_simulator(spec, int(s), policy)
            results.append(sim.run(max_events=50_000_000))
        rows.append(
            SDCVerifyRow(
                verify_period=vp,
                mean_total=float(np.mean([r.total_time for r in results])),
                mean_wasted=float(np.mean([r.wasted_time for r in results])),
                mean_verify=float(np.mean([r.verify_time for r in results])),
                sdc_detected=float(np.mean([r.sdc["detected"] for r in results])),
                sdc_undetected=float(
                    np.mean([r.sdc["undetected"] for r in results])
                ),
                wrong_result_rate=float(
                    np.mean([1.0 if r.wrong_result else 0.0 for r in results])
                ),
                analytic_period=ext8_analytic_period(spec),
            )
        )
    return rows


def ext8_analytic_period(spec) -> float:
    """The two-error-type optimal cadence of *spec*, in timesteps: the
    optimum of :func:`~repro.analytical.youngdaly.two_error_interval`
    over the spec's fail-stop and SDC MTBFs
    (:attr:`~repro.core.campaign.CampaignSpec.two_error_mtbfs`)."""
    from repro.analytical.youngdaly import two_error_interval

    tau = two_error_interval(
        spec.ckpt_cost_s, spec.verify_cost_s, *spec.two_error_mtbfs
    )
    return tau / spec.compute_s


def format_ext8(rows: list[SDCVerifyRow]) -> str:
    lines = [
        "EXT8 — SDC verification-interval DSE (mixed fault taxonomy: "
        + ", ".join(f"{k}={w:g}" for k, w in EXT8_FAULT_MIX)
        + ")",
        f"{'verify/ts':>10s}{'mean total':>12s}{'wasted':>9s}{'verify':>9s}"
        f"{'detect':>8s}{'latent':>8s}{'wrong %':>9s}",
    ]
    # "best" balances speed against correctness: fastest run among the
    # cadences that produced no wrong results, else lowest wrong rate
    clean = [r for r in rows if r.wrong_result_rate == 0.0]
    pool = clean or sorted(rows, key=lambda r: r.wrong_result_rate)[:1]
    best = min(pool, key=lambda r: r.mean_total).verify_period
    for r in rows:
        cadence = "off" if r.verify_period == 0 else str(r.verify_period)
        marker = "  <- simulated optimum" if r.verify_period == best else ""
        lines.append(
            f"{cadence:>10s}{r.mean_total:>11.3f}s{r.mean_wasted:>8.3f}s"
            f"{r.mean_verify:>8.3f}s{r.sdc_detected:>8.1f}"
            f"{r.sdc_undetected:>8.1f}{100 * r.wrong_result_rate:>8.1f}%"
            f"{marker}"
        )
    lines.append(
        "analytic two-error-type optimum: "
        f"{rows[0].analytic_period:.1f} timesteps between verifications"
    )
    return "\n".join(lines)


#: EXT9 network fault mix: hard link failures and degraded/lossy links in
#: equal measure (switch deaths excluded — on the small study torus a
#: dead switch partitions its ranks and the run measures stall policy,
#: not fabric slowdown)
EXT9_NET_SPLIT = (("link", 0.5), ("netdeg", 0.5))


@dataclass
class NetFaultRow:
    link_mtbf_s: float          #: per-link MTBF swept by the DSE
    ckpt_period: int
    baseline_total: float       #: fault-free runtime of the same spec
    mean_total: float
    slowdown: float             #: mean_total / baseline_total
    analytic_slowdown: float    #: closed-form expectation (netavail)
    net_faults: float           #: mean network faults per run
    net_repairs: float
    partition_stalls: float
    retransmits: float          #: mean expected retransmissions per run


def _ext9_spec(link_mtbf_s: float, ckpt_period: int, timesteps: int):
    from repro.core.campaign import CampaignSpec

    # Bandwidth-heavy allreduces on a torus make fabric degradation the
    # dominant cost; node faults are switched off (MTBF >> run length)
    # so the sweep isolates the network domain.
    return CampaignSpec(
        node_mtbf_s=1e9,
        ckpt_period=ckpt_period,
        nranks=16,
        nnodes=8,
        timesteps=timesteps,
        compute_s=0.05,
        allreduce_bytes=1 << 26,
        net_topology="torus",
        net_link_mtbf_s=link_mtbf_s,
        net_repair_s=1.0,
        net_fault_split=EXT9_NET_SPLIT,
    )


def ext9_analytic_slowdown(
    link_mtbf_s: float, ckpt_period: int, timesteps: int, baseline_total: float
) -> float:
    """Closed-form expected slowdown for one EXT9 sweep point.

    Degradations are active a stationary fraction of wall time
    (:func:`~repro.analytical.netavail.active_probability` of the
    netdeg arrival stream); while active, each timestep's communication
    share inflates by the full degraded-collective ratio
    (:func:`~repro.analytical.netavail.degraded_collective_inflation`);
    and the two regimes compose time-shared
    (:func:`~repro.analytical.netavail.time_shared_slowdown` — the
    harmonic form, since degraded windows cover fewer timesteps exactly
    because each is slower).  Hard link failures only stretch the
    latency term, negligible for these bandwidth-dominated allreduces.
    """
    from repro.analytical.netavail import (
        active_probability,
        degraded_collective_inflation,
        time_shared_slowdown,
    )
    from repro.network.health import link_count

    spec = _ext9_spec(link_mtbf_s, ckpt_period, timesteps)
    topo = spec.build_topology()
    netdeg_share = dict(spec.net_fault_split).get("netdeg", 0.0)
    netdeg_rate = link_count(topo) / link_mtbf_s * netdeg_share
    f = active_probability(netdeg_rate, spec.net_repair_s)
    coll_inflation = degraded_collective_inflation(
        topo,
        spec.allreduce_bytes,
        degrade_factor=spec.net_degrade_factor,
        loss_prob=spec.net_loss_prob,
    )
    serial = spec.work_s + (timesteps // ckpt_period) * spec.ckpt_cost_s
    comm_fraction = max(0.0, 1.0 - serial / baseline_total)
    ts_inflation = 1.0 + comm_fraction * (coll_inflation - 1.0)
    return time_shared_slowdown(f, ts_inflation)


def network_fault_dse(
    link_mtbfs: Sequence[float] = (8.0, 16.0, 48.0),
    ckpt_periods: Sequence[int] = (5, 10),
    timesteps: int = 40,
    reps: int = 6,
    seed: int = 0,
) -> list[NetFaultRow]:
    """EXT9 — link-MTBF x checkpoint-interval DSE on a degraded fabric.

    Sweeps the per-link MTBF of a 4x4 torus under the
    :data:`EXT9_NET_SPLIT` mix (hard link failures + de-rated/lossy
    links) against the checkpoint cadence, and cross-checks the
    simulated slowdown against the closed-form steady-state expectation
    (:func:`ext9_analytic_slowdown`).  Faults here never kill ranks —
    the cost is rerouted, de-rated, retransmitting communication — so
    the slowdown isolates what the network fault domain adds on top of
    fail-stop modeling.
    """
    from repro.core.campaign import CampaignSpec, build_campaign_simulator
    from repro.core.fault_injection import RecoveryPolicy
    from repro.core.montecarlo import derive_seeds

    policy = RecoveryPolicy()
    seeds = derive_seeds(seed, reps)
    rows: list[NetFaultRow] = []
    for period in ckpt_periods:
        base_spec = _ext9_spec(link_mtbfs[0], period, timesteps)
        base = build_campaign_simulator(
            base_spec, int(seeds[0]), policy, inject=False
        ).run(max_events=50_000_000)
        for mtbf in link_mtbfs:
            spec = _ext9_spec(mtbf, period, timesteps)
            results = []
            for s in seeds:
                sim = build_campaign_simulator(spec, int(s), policy)
                results.append(sim.run(max_events=50_000_000))
            mean_total = float(np.mean([r.total_time for r in results]))
            rows.append(
                NetFaultRow(
                    link_mtbf_s=float(mtbf),
                    ckpt_period=period,
                    baseline_total=base.total_time,
                    mean_total=mean_total,
                    slowdown=mean_total / base.total_time,
                    analytic_slowdown=ext9_analytic_slowdown(
                        mtbf, period, timesteps, base.total_time
                    ),
                    net_faults=float(np.mean([r.net["faults"] for r in results])),
                    net_repairs=float(
                        np.mean([r.net["repairs"] for r in results])
                    ),
                    partition_stalls=float(
                        np.mean([r.net["partition_stalls"] for r in results])
                    ),
                    retransmits=float(
                        np.mean([r.net["retransmits"] for r in results])
                    ),
                )
            )
    return rows


def format_ext9(rows: list[NetFaultRow]) -> str:
    lines = [
        "EXT9 — network fault DSE (4x4 torus, link mix: "
        + ", ".join(f"{k}={w:g}" for k, w in EXT9_NET_SPLIT)
        + ")",
        f"{'link MTBF':>10s}{'ckpt/ts':>9s}{'baseline':>10s}{'mean':>9s}"
        f"{'slowdown':>10s}{'analytic':>10s}{'faults':>8s}{'stalls':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r.link_mtbf_s:>9.0f}s{r.ckpt_period:>9d}"
            f"{r.baseline_total:>9.2f}s{r.mean_total:>8.2f}s"
            f"{r.slowdown:>9.2f}x{r.analytic_slowdown:>9.2f}x"
            f"{r.net_faults:>8.1f}{r.partition_stalls:>8.1f}"
        )
    lines.append(
        "slowdown is simulated mean over fault seeds; analytic is the "
        "steady-state closed form (repro.analytical.netavail)"
    )
    return "\n".join(lines)

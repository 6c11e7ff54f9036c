"""Extension experiments: all levels, level selection, architectural DSE."""

import pytest

from repro.exps.extensions import (
    architectural_dse,
    all_levels_full_system,
    format_ext1,
    format_ext2,
    format_ext3,
    level_selection_sweep,
)


@pytest.fixture(scope="module")
def ext_ctx(request):
    """All-levels context over a light GP budget (module-scoped)."""
    from repro.core.workflow import ModelDevelopment, build_archbeo
    from repro.exps.casestudy import CaseStudyContext
    from repro.exps.extensions import ALL_LEVEL_KERNELS
    from repro.models.symreg import GPConfig
    from repro.testbed.quartz import make_quartz

    machine = make_quartz()
    dev = ModelDevelopment(
        machine,
        ALL_LEVEL_KERNELS,
        samples_per_point=6,
        gp_config=GPConfig(population_size=80, generations=10, n_genes=3),
        seed=2,
    ).run()
    return CaseStudyContext(
        machine=machine, dev=dev, archbeo=build_archbeo(machine, dev.models()), seed=2
    )


def test_ext1_all_levels(ext_ctx):
    rows = all_levels_full_system(ext_ctx, ranks=8, epr=5, timesteps=40, reps=2)
    assert [r.level for r in rows] == [1, 2, 3, 4]
    # instance costs ordered L1 < L2 (Table I overhead trend)
    by = {r.level: r for r in rows}
    assert by[1].ckpt_instance_cost < by[2].ckpt_instance_cost
    assert all(r.simulated_total > 0 and r.measured_total > 0 for r in rows)
    assert "EXT1" in format_ext1(rows)


def test_ext2_level_selection(ext_ctx):
    rows = level_selection_sweep(
        ext_ctx, ranks=8, epr=5, mtbfs=(1e9, 1e3, 10.0)
    )
    assert len(rows) == 3
    best = [r.best_level for r in rows]
    # reliability degrades left to right; chosen level never decreases
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert best[0] == 1
    assert "EXT2" in format_ext2(rows)


def test_ext3_architectural_dse(ext_ctx):
    rows = architectural_dse(ext_ctx, ranks=8, epr=5, timesteps=20, period=10, reps=2)
    archs = {r.architecture for r in rows}
    assert archs == {"fat-tree", "dragonfly"}
    # both architectures show the FT-cost ordering
    for arch in archs:
        mine = {r.scenario: r.total for r in rows if r.architecture == arch}
        assert mine["no_ft"] < mine["l1"] < mine["l1+l2"]
    assert "EXT3" in format_ext3(rows)


def test_ext4_hardware_dse(ext_ctx):
    from repro.exps.extensions import format_ext4, hardware_upgrade_dse

    rows = hardware_upgrade_dse(
        ext_ctx, ranks=8, epr=10, timesteps=40, period=10,
        nvram_speedup=4.0, reps=2,
    )
    by = {(r.machine, r.scenario): r for r in rows}
    # the upgrade leaves the no-FT runtime unchanged but cuts ckpt time
    assert by[("quartz+nvram", "no_ft")].total == pytest.approx(
        by[("quartz", "no_ft")].total, rel=0.02
    )
    for s in ("l1", "l1+l2"):
        assert by[("quartz+nvram", s)].ckpt_time < by[("quartz", s)].ckpt_time
        assert by[("quartz+nvram", s)].total < by[("quartz", s)].total
    assert "EXT4" in format_ext4(rows)


def test_ext5_level_fault_dse_smoke(ext_ctx):
    from repro.exps.extensions import format_ext5, level_fault_dse

    rows = level_fault_dse(
        ext_ctx, ranks=8, epr=5, timesteps=60, period=10,
        node_mtbf_s=1.5, software_fraction=0.5, reps=2,
    )
    assert [r.level for r in rows] == [1, 2, 3, 4]
    assert all(r.mean_total > 0 for r in rows)
    assert "EXT5" in format_ext5(rows)


def test_ext5_leaves_the_contexts_archbeo_alone(ext_ctx):
    from repro.exps.extensions import level_fault_dse

    before = ext_ctx.archbeo.recovery_time_s
    level_fault_dse(
        ext_ctx, ranks=8, epr=5, timesteps=20, period=10,
        recovery_time_s=before + 1.0, reps=1,
    )
    assert ext_ctx.archbeo.recovery_time_s == before


def _run_with_scheduled_fault(ext_ctx, level, kind, t_fault, recovery=0.02):
    from repro.core.ft import scenario_levels
    from repro.core.simulator import BESSTSimulator
    from repro.apps.lulesh import lulesh_appbeo

    ext_ctx.archbeo.recovery_time_s = recovery
    app = lulesh_appbeo(timesteps=20, scenario=scenario_levels([level], period=5))
    sim = BESSTSimulator(
        app, ext_ctx.archbeo, nranks=8, params={"epr": 5}, seed=0,
        monte_carlo=False,
    )
    sim.engine.schedule(t_fault, lambda ev: sim.inject_fault(0, kind=kind))
    return sim.run(max_events=10_000_000)


def test_node_fault_level_semantics(ext_ctx):
    """Level-aware recovery, deterministically: a node loss mid-run is
    catastrophic for an L1-only scenario (restart from scratch) but
    recoverable from the last checkpoint for an L2 scenario; a software
    crash is recoverable at both levels."""
    def fault_after_second_ckpt(level):
        """A fault instant safely between that level's 2nd and 3rd
        checkpoint commits (each level's checkpoints cost differently)."""
        clean = _run_with_scheduled_fault(ext_ctx, level, "software", t_fault=1e9)
        marks = clean.checkpoint_marks()
        assert len(marks) == 4  # 20 ts / period 5
        return marks[1][0] + 0.2 * (marks[2][0] - marks[1][0])

    t1 = fault_after_second_ckpt(1)
    t2 = fault_after_second_ckpt(2)

    l1_node = _run_with_scheduled_fault(ext_ctx, 1, "node", t1)
    l1_soft = _run_with_scheduled_fault(ext_ctx, 1, "software", t1)
    l2_node = _run_with_scheduled_fault(ext_ctx, 2, "node", t2)

    assert l1_node.rollbacks == l1_soft.rollbacks == l2_node.rollbacks == 1
    # L1 + node loss: everything up to the fault is lost
    assert l1_node.wasted_time > t1 * 0.9
    # L1 + software crash: only the work since the last checkpoint
    assert l1_soft.wasted_time < l1_node.wasted_time * 0.7
    # L2 + node loss: recoverable from its checkpoint — the lost span is
    # far below the full progress at the fault instant
    assert l2_node.wasted_time < t2 * 0.8
    assert l1_soft.total_time < l1_node.total_time


def test_unknown_fault_kind_rejected(ext_ctx):
    from repro.core.ft import NO_FT
    from repro.core.simulator import BESSTSimulator
    from repro.apps.lulesh import lulesh_appbeo
    import pytest as _pytest

    app = lulesh_appbeo(timesteps=1, scenario=NO_FT)
    sim = BESSTSimulator(app, ext_ctx.archbeo, nranks=8, params={"epr": 5})
    with _pytest.raises(ValueError):
        sim.inject_fault(0, kind="cosmic")


def test_ext6_abft_vs_checkpointing():
    from repro.exps.extensions import abft_vs_checkpointing, format_ext6

    rows = abft_vs_checkpointing(sizes=(64, 1024))
    assert len(rows) == 2
    # overhead shrinks with n; SDC exposure unchanged by C/R, cut by ABFT
    assert rows[0].abft_overhead_pct > rows[1].abft_overhead_pct
    for r in rows:
        assert r.p_bad_abft < r.p_bad_plain
    assert "EXT6" in format_ext6(rows)


def test_ext7_granularity():
    from repro.exps.extensions import format_ext7, granularity_ablation

    rows = granularity_ablation(ranks=8, epr=5, timesteps=30, reps=2, seed=3)
    by = {r.granularity: r for r in rows}
    assert set(by) == {"coarse", "fine"}
    assert by["fine"].kernels == 2 and by["coarse"].kernels == 1
    # both granularities land in the exploratory accuracy band
    assert all(r.percent_error < 40.0 for r in rows)
    assert by["fine"].fit_seconds > 0
    assert "EXT7" in format_ext7(rows)


def test_ext8_sdc_verification_dse():
    from repro.exps.extensions import format_ext8, sdc_verification_dse

    rows = sdc_verification_dse(
        verify_periods=(0, 2, 10), reps=4, timesteps=40, seed=1
    )
    by = {r.verify_period: r for r in rows}
    assert set(by) == {0, 2, 10}
    # without verification nothing is detected and some runs finish wrong
    assert by[0].mean_verify == 0.0 and by[0].sdc_detected == 0.0
    assert by[0].wrong_result_rate > 0.0
    # frequent verification pays kernel time but detects strikes and
    # suppresses wrong results
    assert by[2].mean_verify > by[10].mean_verify > 0.0
    assert by[2].sdc_detected > 0.0
    assert by[2].wrong_result_rate < by[0].wrong_result_rate
    assert all(r.analytic_period > 0.0 for r in rows)
    out = format_ext8(rows)
    assert "EXT8" in out and "analytic two-error-type optimum" in out


def test_ext8_analytic_period_prices_the_swept_spec():
    """The closed form reads the MTBFs of the process EXT8 simulates: 4
    nodes of 6 s MTBF (1.5 s system MTBF), fail-stop share 0.5
    (software, node, burst; stragglers are not fail-stop), SDC share
    0.4."""
    from repro.analytical import two_error_interval
    from repro.exps.extensions import _ext8_spec, ext8_analytic_period

    spec = _ext8_spec(5, node_mtbf_s=6.0, ckpt_period=10, timesteps=80)
    mtbf_failstop, mtbf_sdc = spec.two_error_mtbfs
    assert mtbf_failstop == pytest.approx(3.0)
    assert mtbf_sdc == pytest.approx(3.75)
    assert ext8_analytic_period(spec) == two_error_interval(
        spec.ckpt_cost_s, spec.verify_cost_s, mtbf_failstop, mtbf_sdc
    ) / spec.compute_s
    assert round(ext8_analytic_period(spec), 1) == 3.7


def test_ext8_is_deterministic():
    """Repeatable, and equal to the rows recorded while the simulator
    still reported SDC outcomes as flat ``sdc_*`` result fields."""
    from repro.exps.extensions import SDCVerifyRow, sdc_verification_dse

    a = sdc_verification_dse(verify_periods=(5,), reps=2, timesteps=30, seed=4)
    b = sdc_verification_dse(verify_periods=(5,), reps=2, timesteps=30, seed=4)
    assert a == b == [
        SDCVerifyRow(
            verify_period=5,
            mean_total=7.676635331286443,
            mean_wasted=6.797577007521312,
            mean_verify=0.119999999999998,
            sdc_detected=1.0,
            sdc_undetected=0.0,
            wrong_result_rate=0.0,
            analytic_period=3.7210420376762543,
        )
    ]


def test_ext9_network_fault_dse():
    from repro.exps.extensions import (
        ext9_analytic_slowdown,
        format_ext9,
        network_fault_dse,
    )

    rows = network_fault_dse(
        link_mtbfs=(8.0, 48.0), ckpt_periods=(5,), timesteps=30, reps=4, seed=0
    )
    by = {r.link_mtbf_s: r for r in rows}
    assert set(by) == {8.0, 48.0}
    # more frequent link faults -> more injected faults, more slowdown
    assert by[8.0].net_faults > by[48.0].net_faults
    assert by[8.0].slowdown > by[48.0].slowdown >= 1.0
    assert by[8.0].retransmits > 0.0
    for r in rows:
        # the closed form must land within the documented band: half the
        # larger excess slowdown, floored at 0.1x for the quiet points
        ex_sim = r.slowdown - 1.0
        ex_an = r.analytic_slowdown - 1.0
        tol = max(0.5 * max(ex_sim, ex_an), 0.1)
        assert abs(ex_sim - ex_an) <= tol, (r.link_mtbf_s, ex_sim, ex_an)
    out = format_ext9(rows)
    assert "EXT9" in out and "analytic" in out


def test_ext9_is_deterministic():
    """Repeatable, and equal to the rows recorded while the simulator
    still reported network outcomes as flat ``net_*`` result fields."""
    from repro.exps.extensions import NetFaultRow, network_fault_dse

    a = network_fault_dse(
        link_mtbfs=(16.0,), ckpt_periods=(5,), timesteps=15, reps=2, seed=3
    )
    b = network_fault_dse(
        link_mtbfs=(16.0,), ckpt_periods=(5,), timesteps=15, reps=2, seed=3
    )
    assert a == b == [
        NetFaultRow(
            link_mtbf_s=16.0,
            ckpt_period=5,
            baseline_total=1.5443650944000007,
            mean_total=2.647667920951579,
            slowdown=1.7144054411435796,
            analytic_slowdown=1.5671599273726249,
            net_faults=4.5,
            net_repairs=4.0,
            partition_stalls=0.0,
            retransmits=0.8421052631578938,
        )
    ]


def test_ext9_analytic_slowdown_is_pinned():
    """The first EXT9 grid point's closed form, bit for bit (recorded
    while it still read the module's split and ``timesteps *
    compute_s`` instead of the spec's own fields).  The baseline is that
    point's fault-free runtime."""
    from repro.exps.extensions import ext9_analytic_slowdown

    baseline = float.fromhex("0x1.0792572e5ac96p+2")
    got = ext9_analytic_slowdown(8.0, 5, 40, baseline_total=baseline)
    assert got.hex() == "0x1.faf876d958cbfp+0"


def test_ext9_analytic_slowdown_monotone_in_mtbf():
    from repro.exps.extensions import ext9_analytic_slowdown

    hi = ext9_analytic_slowdown(8.0, 5, 40, baseline_total=12.0)
    lo = ext9_analytic_slowdown(48.0, 5, 40, baseline_total=12.0)
    assert hi > lo > 1.0

"""Command-line interface: regenerate any experiment from a shell.

Examples::

    python -m repro table3
    python -m repro fig7 --reps 5
    python -m repro fig9 --reps 2
    python -m repro campaign --mtbf 8 16 --periods 5 10 --json out.json
    python -m repro campaign --journal run.wal.jsonl --json out.json
    python -m repro campaign --journal run.wal.jsonl --resume --json out.json
    python -m repro fit-models --out quartz_models.json
    python -m repro list

Heavy experiments accept ``--reps`` (Monte-Carlo replicas) and ``--seed``;
``list`` shows every available target with its paper artifact.  The
campaign runner is crash-safe: with ``--journal`` every completed
replica is durably logged, ``--resume`` skips completed replicas
bit-identically after a kill, and ``--chaos-*`` flags inject harness
faults (worker crash/hang/garbage) to exercise the supervisor.

Campaigns can also be observed: ``--metrics-out`` streams registry
snapshots to JSONL, ``--prom-out`` writes a Prometheus text-exposition
snapshot, ``--trace-out`` writes a merged Chrome/Perfetto span trace
(campaign, supervisor and worker layers in one timeline), and
``--heartbeat`` prints a live progress line.  ``repro metrics
summarize <file>`` condenses either metrics format afterwards.

Post-mortem: ``--flight-dir`` makes every replica keep a crash-safe
flight-recorder ring (dumped on exit, spill survives SIGKILL), and
``repro analyze <journal> [--flight-dir D]`` reconstructs per-fault
causal chains with waste attribution from the journal + dumps.

Exit codes: 0 success; 2 usage error; 3 campaign produced no results
(all replicas quarantined); 4 resumable resource abort; 5 analyze
found no usable data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from repro.targets import TARGETS, run_target


def _parse_fault_mix(pairs: "list[str]") -> "dict[str, float]":
    """Parse ``kind=weight`` strings into a fault-mix mapping.

    Weight validation (known kinds, non-negative, sum to 1) is owned by
    :class:`~repro.core.fault_injection.FaultModel`; here we only enforce
    the syntax so typos fail with a CLI-flavoured message.
    """
    mix: dict[str, float] = {}
    for pair in pairs:
        kind, sep, weight = pair.partition("=")
        if not sep or not kind:
            raise ValueError(
                f"--fault-mix entries must look like kind=weight, got {pair!r}"
            )
        try:
            mix[kind] = float(weight)
        except ValueError:
            raise ValueError(
                f"--fault-mix weight for {kind!r} is not a number: {weight!r}"
            ) from None
    return mix


def _load_fault_config(path: str) -> dict:
    """Read a structured fault-config file into flat campaign kwargs."""
    from repro.faults.domains import campaign_kwargs_from_config

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read --fault-config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"--fault-config is not valid JSON: {exc}") from None
    try:
        return campaign_kwargs_from_config(cfg)
    except ValueError as exc:
        raise ValueError(f"bad --fault-config: {exc}") from None


def _campaign_spec_kwargs(args) -> dict:
    """The ``CampaignSpec`` kwargs shared by every grid point.

    The ``--fault-config`` file's values, then every flag the user gave
    whose dest names a ``CampaignSpec`` field.  Those flags default to
    None (``--timesteps`` excepted), so an absent flag never masks the
    file, and whatever neither sets takes the ``CampaignSpec`` default.
    """
    from dataclasses import fields

    from repro.core.campaign import CampaignSpec

    kwargs = _load_fault_config(args.fault_config) if args.fault_config else {}
    for f in fields(CampaignSpec):
        value = getattr(args, f.name, None)
        if value is not None:
            kwargs[f.name] = value
    if args.fault_mix:  # given as kind=weight strings
        kwargs["fault_mix"] = _parse_fault_mix(args.fault_mix)
    return kwargs


def _format_faults_list() -> str:
    """`repro faults list`: the fault taxonomy, one domain per block."""
    from dataclasses import fields

    from repro.core.campaign import CampaignSpec
    from repro.faults.domains import DOMAINS, FAULT_KINDS

    defaults = {f.name: f.default for f in fields(CampaignSpec)}
    lines = [
        "registered fault domains (repro.faults; draw order: "
        + " ".join(FAULT_KINDS)
        + ")",
        "",
    ]
    for cls in DOMAINS:
        kinds = " ".join(cls.kinds) if cls.kinds else "(no injectable kinds)"
        lines.append(f"{cls.name:<10s} {kinds}")
        lines.append(f"    {cls.summary}")
        if cls.config:
            knobs = ", ".join(
                f"{key}={defaults[dest]!r}" for key, dest in cls.config.items()
            )
            lines.append(f"    config: {knobs}")
        hooks = cls.hooks()
        if hooks:
            lines.append(f"    hooks:  {', '.join(hooks)}")
        lines.append("")
    lines.append(
        "configure per-domain fields via `repro campaign --fault-config "
        "FILE` (JSON: {\"mix\": {kind: weight}, \"<domain>\": {field: value}})"
    )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "FT-BESST: regenerate the tables and figures of 'Incorporating "
            "Fault-Tolerance Awareness into System-Level Modeling and "
            "Simulation' (CLUSTER 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment targets")

    for target in TARGETS.values():
        p = sub.add_parser(target.name, help=f"{target.artifact}: {target.description}")
        p.add_argument("--seed", type=int, default=0, help="root seed")
        p.add_argument(
            "--reps", type=int, default=3, help="Monte-Carlo replicas"
        )

    camp = sub.add_parser(
        "campaign",
        help="resilience campaign: fault-rate x checkpoint-period sweep",
    )
    camp.add_argument("--seed", type=int, default=0, help="root seed")
    camp.add_argument("--reps", type=int, default=10, help="replicas per point")
    camp.add_argument(
        "--mtbf",
        type=float,
        nargs="+",
        default=[8.0, 16.0, 32.0],
        help="per-node MTBF values to sweep (seconds)",
    )
    camp.add_argument(
        "--periods",
        type=int,
        nargs="+",
        default=[5, 10],
        help="checkpoint periods to sweep (timesteps)",
    )
    camp.add_argument(
        "--timesteps", type=int, default=40, help="workload timesteps"
    )
    camp.add_argument(
        "--fault-mix",
        nargs="+",
        default=None,
        metavar="KIND=W",
        help=(
            "fault-taxonomy mix as kind=weight pairs summing to 1 "
            "(kinds: software node sdc straggler burst link switch "
            "netdeg), e.g. --fault-mix node=0.5 link=0.5"
        ),
    )
    camp.add_argument(
        "--fault-config",
        metavar="FILE",
        help=(
            "structured fault configuration (JSON): one section per "
            "fault domain plus an optional top-level 'mix' (see `repro "
            "faults list` for the domains and their fields).  Explicit "
            "taxonomy flags override the file; the file overrides "
            "built-in defaults"
        ),
    )
    # Flags that set a CampaignSpec fault knob carry its field name as
    # dest and default to None: CampaignSpec holds the one default.
    camp.add_argument(
        "--verify-period", type=int,
        help="ABFT verification cadence in timesteps (0 disables)",
    )
    camp.add_argument(
        "--verify-cost", type=float, dest="verify_cost_s",
        help="modeled cost of one ABFT verification kernel (seconds)",
    )
    camp.add_argument(
        "--sdc-coverage", type=float,
        help="probability an SDC strike is ABFT-detectable",
    )
    camp.add_argument(
        "--sdc-correct-prob", type=float,
        help="probability a detected strike is correctable in place",
    )
    camp.add_argument(
        "--straggler-slowdown", type=float,
        help="compute-clock slowdown factor of a degraded node",
    )
    camp.add_argument(
        "--straggler-repair", type=float, dest="straggler_repair_s",
        help="seconds until a degraded node is repaired (<= 0: never)",
    )
    camp.add_argument(
        "--burst-size", type=int,
        help="nodes felled per correlated failure burst",
    )
    camp.add_argument(
        "--net-link-mtbf", type=float, dest="net_link_mtbf_s",
        help="per-link MTBF in seconds; > 0 folds a network fault stream "
        "(link/switch/netdeg) into the campaign's fault process",
    )
    camp.add_argument(
        "--net-degrade-factor", type=float,
        help="bandwidth de-rate factor of a degraded link (netdeg faults)",
    )
    camp.add_argument(
        "--net-loss-prob", type=float,
        help="message-loss probability of a degraded link",
    )
    camp.add_argument(
        "--net-repair-time", type=float, dest="net_repair_s",
        help="seconds until a failed/degraded link or switch is repaired "
        "(<= 0: never)",
    )
    camp.add_argument(
        "--net-topology", choices=("full", "torus", "fattree"),
        help="interconnect shape of the campaign workload's ranks",
    )
    camp.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    camp.add_argument(
        "--legacy-policy",
        action="store_true",
        help="atomic recovery (no verification/escalation/requeue)",
    )
    camp.add_argument("--json", dest="json_out", help="write full report JSON here")
    camp.add_argument(
        "--journal",
        help="write-ahead journal path: every completed replica is "
        "durably recorded and never recomputed",
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="resume from --journal (reps/seed/policy come from its header)",
    )
    camp.add_argument(
        "--partial-report",
        action="store_true",
        help="only aggregate and print what --journal already holds, then exit",
    )
    camp.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-replica timeout in seconds (hung workers are reaped)",
    )
    camp.add_argument(
        "--retries",
        type=int,
        default=5,
        help="failed attempts per replica before quarantine",
    )
    camp.add_argument(
        "--chaos-crash", type=float, default=0.0,
        help="probability a worker attempt crashes (harness fault injection)",
    )
    camp.add_argument(
        "--chaos-hang", type=float, default=0.0,
        help="probability a worker attempt hangs (pair with --timeout)",
    )
    camp.add_argument(
        "--chaos-garbage", type=float, default=0.0,
        help="probability a worker attempt returns garbage",
    )
    camp.add_argument(
        "--chaos-seed", type=int, default=0, help="harness fault injection seed"
    )
    camp.add_argument(
        "--chaos-enospc", type=float, default=0.0,
        help="probability a worker durable write fails with ENOSPC",
    )
    camp.add_argument(
        "--chaos-eio", type=float, default=0.0,
        help="probability a worker durable write fails with EIO",
    )
    camp.add_argument(
        "--chaos-slow-io", type=float, default=0.0,
        help="probability a worker durable write stalls (slow device)",
    )
    camp.add_argument(
        "--chaos-fs-after", type=int, default=0, metavar="N",
        help="arm worker filesystem faults only after N eligible operations",
    )
    camp.add_argument(
        "--chaos-fs-path", default="",
        help="only inject filesystem faults on paths containing this substring",
    )
    camp.add_argument(
        "--chaos-enospc-after", type=int, default=None, metavar="N",
        help="supervisor-side chaos: the (N+1)-th durable write in this "
        "process fails with ENOSPC (the disk-fills-mid-campaign scenario)",
    )
    camp.add_argument(
        "--guard", action="store_true",
        help="enable the resource guard: poll disk/RSS/fd headroom and "
        "degrade per the ladder instead of dying on exhaustion",
    )
    camp.add_argument(
        "--guard-min-disk-mb", type=float, default=64.0,
        help="disk-free floor (MiB) below which the ladder escalates",
    )
    camp.add_argument(
        "--guard-max-rss-mb", type=float, default=None,
        help="RSS ceiling (MiB) above which the ladder escalates",
    )
    camp.add_argument(
        "--guard-max-fds", type=int, default=None,
        help="open-fd ceiling above which the ladder escalates",
    )
    camp.add_argument(
        "--guard-poll", type=float, default=1.0,
        help="seconds between resource-guard polls",
    )
    camp.add_argument(
        "--sim-snapshot-dir",
        help="directory for per-replica in-simulation snapshots; a "
        "retried/killed replica resumes mid-simulation from its newest "
        "snapshot (requires --sim-snapshot-every)",
    )
    camp.add_argument(
        "--sim-snapshot-every",
        type=int,
        default=None,
        help="snapshot each replica's simulator every N fired events "
        "(requires --sim-snapshot-dir)",
    )
    camp.add_argument(
        "--metrics-out",
        help="stream metrics-registry snapshots to this JSONL file",
    )
    camp.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="seconds between --metrics-out snapshots",
    )
    camp.add_argument(
        "--prom-out",
        help="write a final Prometheus text-exposition snapshot here",
    )
    camp.add_argument(
        "--trace-out",
        help="write a merged Chrome trace of campaign/supervisor/worker "
        "spans here (open in Perfetto)",
    )
    camp.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a live progress line to stderr every SECONDS",
    )
    camp.add_argument(
        "--flight-dir",
        help="per-replica flight-recorder directory: each replica keeps a "
        "bounded in-memory event ring plus a crash-surviving spill file, "
        "dumped here on exit for `repro analyze`",
    )

    analyze = sub.add_parser(
        "analyze",
        help="post-mortem a campaign journal: causal fault chains, "
        "per-fault waste attribution, analytical cross-checks",
    )
    analyze.add_argument("journal", help="campaign write-ahead journal path")
    analyze.add_argument(
        "--flight-dir",
        help="flight-recorder directory of the campaign run (adds crashed-"
        "replica dumps and the harness failure log to the post-mortem)",
    )
    analyze.add_argument(
        "--top", type=int, default=5, help="top-K faults by attributed waste"
    )
    analyze.add_argument(
        "--json", dest="json_out", help="write the full analysis JSON here"
    )
    analyze.add_argument(
        "--trace-out",
        help="write a Chrome trace of the worst fault's recovery timeline",
    )

    faults = sub.add_parser(
        "faults", help="introspect the pluggable fault domains"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser(
        "list",
        help="list registered fault domains, their kinds, config fields "
        "and lifecycle hooks",
    )

    metrics = sub.add_parser(
        "metrics", help="inspect metrics files written by --metrics-out"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summ = metrics_sub.add_parser(
        "summarize",
        help="condense a JSONL metrics stream or Prometheus snapshot",
    )
    summ.add_argument("path", help="metrics JSONL or Prometheus text file")

    fit = sub.add_parser(
        "fit-models", help="run Model Development and save the fitted models"
    )
    fit.add_argument("--out", required=True, help="output JSON path")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--all-levels",
        action="store_true",
        help="also fit the L3/L4 checkpoint kernels",
    )

    show = sub.add_parser("show-models", help="summarise a saved model registry")
    show.add_argument("path", help="registry JSON path")
    return parser


def _mib_bytes(flag: str, mib: Optional[float]) -> Optional[int]:
    """A ``--guard-*-mb`` value in bytes; NaN, infinite or negative fail."""
    if mib is None:
        return None
    if not 0 <= mib < math.inf:
        raise ValueError(f"{flag} must be finite and >= 0, got {mib}")
    return int(mib * 1024**2)


def _campaign_guard(args):
    """The resource guard the ``--guard*`` flags describe."""
    from repro.guard import ResourceGuard, ResourceLimits

    watch = os.path.dirname(os.path.abspath(args.journal)) if args.journal else os.getcwd()
    return ResourceGuard(
        watch_path=watch,
        limits=ResourceLimits(
            min_disk_free_bytes=_mib_bytes("--guard-min-disk-mb", args.guard_min_disk_mb),
            max_rss_bytes=_mib_bytes("--guard-max-rss-mb", args.guard_max_rss_mb),
            max_open_fds=args.guard_max_fds,
        ),
        poll_interval_s=args.guard_poll,
    )


def _run_campaign(args) -> tuple[str, int]:
    """Run the campaign; returns ``(stdout text, exit code)``."""
    from repro.core.campaign import CampaignSpec, ResilienceCampaign
    from repro.core.fault_injection import RecoveryPolicy
    from repro.core.supervisor import HarnessFaultInjector, RetryPolicy
    from repro.guard.durable import atomic_write
    from repro.guard.fsfault import FsFaultConfig, FsFaultInjector, install, uninstall
    from repro.obs.instrument import CampaignObs, ObsOptions

    # Build (and so validate) every grid point and the harness settings
    # before anything touches the journal: a bad value is a usage error,
    # not a half-run sweep.
    try:
        if (args.resume or args.partial_report) and not args.journal:
            raise ValueError("--resume/--partial-report require --journal")
        if (args.resume or args.partial_report) and not os.path.exists(args.journal):
            raise ValueError(f"journal {args.journal!r} does not exist")
        if (args.sim_snapshot_dir is None) != (args.sim_snapshot_every is None):
            raise ValueError("--sim-snapshot-dir and --sim-snapshot-every must be given together")
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        if args.reps < 1 and not args.resume:  # a resume reads reps from the journal
            raise ValueError(f"--reps must be >= 1, got {args.reps}")
        retry = RetryPolicy(max_retries=args.retries, timeout_s=args.timeout)
        spec_kwargs = _campaign_spec_kwargs(args)
        grid = [
            CampaignSpec(node_mtbf_s=m, ckpt_period=p, **spec_kwargs)
            for m in args.mtbf
            for p in args.periods
        ]
        guard = _campaign_guard(args) if args.guard else None
        worker_fs = None
        if args.chaos_enospc or args.chaos_eio or args.chaos_slow_io:
            worker_fs = FsFaultConfig(
                enospc_prob=args.chaos_enospc,
                eio_prob=args.chaos_eio,
                slow_prob=args.chaos_slow_io,
                after_ops=args.chaos_fs_after,
                path_substring=args.chaos_fs_path,
                seed=args.chaos_seed,
            )
        injector = None
        if args.chaos_crash or args.chaos_hang or args.chaos_garbage or worker_fs is not None:
            injector = HarnessFaultInjector(
                crash_prob=args.chaos_crash,
                hang_prob=args.chaos_hang,
                garbage_prob=args.chaos_garbage,
                seed=args.chaos_seed,
                fs=worker_fs,
            )
        host_fs = None
        if args.chaos_enospc_after is not None:
            host_fs = FsFaultConfig(
                enospc_prob=1.0,
                after_ops=args.chaos_enospc_after,
                path_substring=args.chaos_fs_path,
                seed=args.chaos_seed,
            )
    except ValueError as exc:
        print(f"repro campaign: error: {exc}", file=sys.stderr)
        return "", 2
    if args.partial_report:
        return ResilienceCampaign.report_from_journal(args.journal).format(), 0

    if host_fs is not None:
        install(FsFaultInjector(host_fs))
    snapshot_kwargs = dict(
        sim_snapshot_dir=args.sim_snapshot_dir,
        sim_snapshot_every=args.sim_snapshot_every,
    )
    obs = None
    obs_opts = ObsOptions(
        metrics_out=args.metrics_out,
        metrics_interval_s=args.metrics_interval,
        prom_out=args.prom_out,
        trace_out=args.trace_out,
        heartbeat_s=args.heartbeat,
    )
    if obs_opts.enabled:
        obs = CampaignObs(obs_opts)
    options = dict(
        n_workers=args.workers,
        retry=retry,
        fault_injector=injector,
        obs=obs,
        guard=guard,
        flight_dir=args.flight_dir,
        **snapshot_kwargs,
    )
    if args.resume:
        camp = ResilienceCampaign.resume(args.journal, **options)
    else:
        policy = (
            RecoveryPolicy.legacy() if args.legacy_policy else RecoveryPolicy()
        )
        camp = ResilienceCampaign(
            reps=args.reps,
            base_seed=args.seed,
            policy=policy,
            journal_path=args.journal,
            **options,
        )
    try:
        report = camp.run_specs(grid)
    finally:
        camp.close()
        if host_fs is not None:
            uninstall()
    if args.json_out:
        atomic_write(args.json_out, report.to_json(), "report.json")
    lines = [report.format()]
    stats = camp.harness_stats
    if stats.retries or stats.pool_rebuilds or stats.quarantined:
        lines.append(f"harness: {stats.summary()}")
    code = 0
    if camp.aborted:
        # The resource guard (or a durable-write failure) requested a
        # clean abort.  The journal holds every completed replica, so a
        # re-run with --resume picks up exactly where this run stopped.
        summary = {
            "error": "campaign-aborted-resource-exhaustion",
            "detail": camp.abort_reason,
            "resumable": bool(args.journal),
            "journal": args.journal or "",
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        lines.append(f"aborted: {camp.abort_reason}")
        code = 4
    elif report.points and all(p.replicas_done == 0 for p in report.points):
        # Every replica of every grid point was quarantined: the report
        # carries no data.  Emit a machine-readable error summary on
        # stderr and fail the process so schedulers/CI notice.
        summary = {
            "error": "campaign-produced-no-results",
            "detail": "every replica was quarantined after exhausting retries",
            "points": len(report.points),
            "reps": camp.reps,
            "quarantined": sorted(stats.quarantined),
            "failure_kinds": dict(sorted(stats.by_kind.items())),
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        code = 3
    return "\n".join(lines), code


def _run_analyze(args) -> tuple[str, int]:
    """Post-mortem a campaign journal; returns ``(stdout text, exit code)``.

    Exit code 5 ("no usable data") covers a missing/unreadable journal
    and a journal that holds no grid points, with a machine-readable
    JSON summary on stderr — mirroring the campaign's exit-3/4 idiom.
    """
    from repro.core.forensics import (
        analyze_journal,
        format_analysis,
        worst_fault_trace,
    )
    from repro.guard.durable import JournalError, atomic_write

    def _no_data(error: str, detail: str) -> tuple[str, int]:
        summary = {
            "error": error,
            "detail": detail,
            "journal": args.journal,
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return "", 5

    try:
        analysis = analyze_journal(
            args.journal, flight_dir=args.flight_dir, top_k=args.top
        )
    except FileNotFoundError:
        return _no_data("analyze-journal-not-found", "journal does not exist")
    except (OSError, ValueError, KeyError, JournalError) as exc:
        return _no_data(
            "analyze-journal-unreadable", f"{type(exc).__name__}: {exc}"
        )
    if not analysis["points"]:
        return _no_data(
            "analyze-journal-empty", "journal holds no campaign points"
        )
    if args.json_out:
        atomic_write(
            args.json_out, json.dumps(analysis, sort_keys=True, indent=1), "report.json"
        )
    if args.trace_out:
        atomic_write(
            args.trace_out, json.dumps(worst_fault_trace(analysis)), "report.json"
        )
    return format_analysis(analysis), 0


def _fit_models(out: str, seed: int, all_levels: bool) -> str:
    from repro.core.workflow import ModelDevelopment
    from repro.exps.casestudy import CASE_KERNELS
    from repro.exps.extensions import ALL_LEVEL_KERNELS
    from repro.models.registry import ModelRegistry
    from repro.testbed.quartz import make_quartz

    kernels = ALL_LEVEL_KERNELS if all_levels else CASE_KERNELS
    machine = make_quartz()
    dev = ModelDevelopment(machine, kernels, seed=seed).run()
    registry = ModelRegistry.from_fitted(dev.fitted, machine=machine.name)
    registry.save(out)
    table = dev.validation_table()
    lines = [f"saved {len(registry)} models to {out}"]
    for kernel, mape in sorted(table.items()):
        lines.append(f"  {kernel}: full-grid MAPE {mape:.2f}%")
    return "\n".join(lines)


def _show_models(path: str) -> str:
    from repro.models.registry import ModelRegistry

    registry = ModelRegistry.load(path)
    lines = [f"registry for machine {registry.machine!r}: {len(registry)} models"]
    for kernel in registry.kernels():
        model = registry.get(kernel)
        desc = getattr(model, "expression", type(model).__name__)
        lines.append(f"  {kernel}: {desc}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for t in TARGETS.values():
            print(f"{t.name:<8s} {t.artifact:<10s} {t.description}")
        return 0
    if args.command == "campaign":
        from repro.guard.durable import JournalError

        try:
            text, code = _run_campaign(args)
        except JournalError as exc:  # unreadable or mismatched --journal
            print(f"repro campaign: error: {exc}", file=sys.stderr)
            return 2
        if text:
            print(text)
        return code
    if args.command == "analyze":
        text, code = _run_analyze(args)
        if text:
            print(text)
        return code
    if args.command == "faults":
        print(_format_faults_list())
        return 0
    if args.command == "metrics":
        from repro.obs.export import summarize_metrics

        print(summarize_metrics(args.path))
        return 0
    if args.command == "fit-models":
        print(_fit_models(args.out, args.seed, args.all_levels))
        return 0
    if args.command == "show-models":
        print(_show_models(args.path))
        return 0
    print(run_target(args.command, args.seed, args.reps))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

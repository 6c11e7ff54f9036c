"""Fault forensics: causal chains and per-fault waste attribution.

This is the post-mortem layer over a campaign's artifacts.  It joins

* the per-replica **fault log** (injection order = fault id),
* the per-replica **forensic episodes** (recovery timelines with the
  exact rework/downtime/requeue charges each episode made — see
  ``BESSTSimulator._close_episode``),
* the **straggler excess** accounting (slowed-clock time per node),
* optional **flight dumps** (``obs/flightrec.py``) for replicas that
  died without a journal row, and
* the optional **harness failure log** (supervisor crashes/hangs/
  quarantines)

into per-fault causal chains (inject → detect → ladder attempts →
requeue/abort → outcome) with waste attributed to each chain.  Because
every waste charge the simulator makes flows through exactly one
episode, summing episode waste reproduces the replica's measured waste
buckets — the reconciliation invariant ``attribute_replica`` reports as
``coverage``.  The fail-stop share is cross-checked against the
Young/Daly ``expected_waste`` prediction; campaigns with ABFT
verification also report the two-error-type waste-fraction comparison.

Everything here is read-only: analysis never touches a simulation draw
stream, so reports and journals are byte-identical whether or not a
post-mortem is ever run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.analytical.youngdaly import expected_waste, two_error_waste_fraction
from repro.core.fault_injection import FAULT_ROW_FIELDS
from repro.faults.registry import FAILSTOP_KINDS, domain_for_kind

#: FAILSTOP_KINDS (the kinds whose episodes the Young/Daly fail-stop
#: model prices) comes from the fault-domain registry: forensics
#: classifies kinds through ``domain_for_kind`` rather than its own
#: copy of the taxonomy, so a new domain automatically flows through
#: attribution.

#: outlier threshold: |z| of a replica's waste vs its point's distribution
OUTLIER_Z = 2.0


def fault_rows(result: dict) -> list[dict]:
    """The replica's fault log as dicts (``id`` = injection order)."""
    out = []
    for i, row in enumerate(result.get("fault_log") or []):
        d = dict(zip(FAULT_ROW_FIELDS, row))
        d["id"] = i
        out.append(d)
    return out


@dataclass
class FaultChain:
    """One injected fault and everything it caused."""

    fault_id: int
    kind: str
    node: int
    t_inject: float
    detected_time: Optional[float]
    outcome: str
    #: owning episode summary when this fault started a recovery episode
    episode: Optional[dict] = None
    #: episode id this fault merged into (nested / co-detected faults)
    contributes_to: Optional[int] = None
    #: attributed waste buckets (seconds of job time)
    waste: dict = field(default_factory=dict)

    @property
    def total_waste_s(self) -> float:
        return float(sum(self.waste.values()))

    def to_dict(self) -> dict:
        return {
            "fault": self.fault_id,
            "kind": self.kind,
            "node": self.node,
            "t_inject": self.t_inject,
            "detected_time": self.detected_time,
            "outcome": self.outcome,
            "episode": self.episode["id"] if self.episode else None,
            "episode_kind": self.episode["kind"] if self.episode else None,
            "contributes_to": self.contributes_to,
            "waste": dict(self.waste),
            "total_waste_s": self.total_waste_s,
            "phases": list(self.episode["phases"]) if self.episode else [],
            "t_end": self.episode["t_end"] if self.episode else None,
        }


def reconstruct_chains(result: dict) -> list[FaultChain]:
    """Rebuild the causal chain of every fault in one replica.

    Episode waste is attributed to the episode's *primary* fault (the
    one that opened it); nested and co-detected faults are linked via
    ``contributes_to``.  Straggler faults split their node's measured
    excess evenly (several stragglers on one node overlap in the
    max-slowdown model, so an even split is the honest choice).
    """
    faults = fault_rows(result)
    forensics = result.get("forensics") or {}
    episodes = forensics.get("episodes") or []
    owner: dict[int, tuple[dict, bool]] = {}
    for ep in episodes:
        for j, fid in enumerate(ep.get("faults") or []):
            # first id is the primary; a fault can only own one episode
            if fid not in owner or (j == 0 and not owner[fid][1]):
                owner[fid] = (ep, j == 0)
    excess_by_node = {
        int(k): float(v)
        for k, v in (forensics.get("straggler_excess_by_node") or {}).items()
    }
    strag_by_node: dict[int, list[int]] = {}
    for f in faults:
        if domain_for_kind(f["kind"], None) == "straggler":
            strag_by_node.setdefault(int(f["node"]), []).append(f["id"])
    chains = []
    for f in faults:
        chain = FaultChain(
            fault_id=f["id"],
            kind=f["kind"],
            node=int(f["node"]),
            t_inject=float(f["time"]),
            detected_time=f["detected_time"],
            outcome=f["outcome"] or "",
        )
        owned = owner.get(f["id"])
        if owned is not None:
            ep, primary = owned
            if primary:
                chain.episode = ep
                chain.waste = {
                    "rework_s": float(ep["rework_s"]),
                    "downtime_s": float(ep["downtime_s"]),
                    "requeue_s": float(ep["requeue_s"]),
                }
                if not chain.outcome:
                    chain.outcome = ep["outcome"]
            else:
                chain.contributes_to = ep["id"]
        if domain_for_kind(f["kind"], None) == "straggler":
            siblings = strag_by_node[int(f["node"])]
            excess = excess_by_node.get(int(f["node"]), 0.0)
            chain.waste["straggler_s"] = excess / len(siblings)
            if not chain.outcome:
                chain.outcome = "slowed"
        chains.append(chain)
    return chains


def attribute_replica(result: dict, replica: Optional[int] = None) -> dict:
    """Per-replica waste attribution and reconciliation.

    ``measured_waste_s`` is the replica's charged waste (the three
    buckets the simulator maintains); ``attributed_waste_s`` is the sum
    over its forensic episodes.  The two agree exactly for records
    written by this code (``coverage`` = 1.0); older journal records
    without a ``forensics`` key attribute nothing.
    """
    forensics = result.get("forensics") or {}
    episodes = forensics.get("episodes") or []
    chains = reconstruct_chains(result)
    measured = (
        float(result.get("waste_rework", 0.0))
        + float(result.get("waste_downtime", 0.0))
        + float(result.get("waste_requeue", 0.0))
    )
    attributed = float(
        sum(
            ep["rework_s"] + ep["downtime_s"] + ep["requeue_s"]
            for ep in episodes
        )
    )
    per_kind: dict[str, float] = {}
    for ep in episodes:
        per_kind[ep["kind"]] = per_kind.get(ep["kind"], 0.0) + float(
            ep["rework_s"] + ep["downtime_s"] + ep["requeue_s"]
        )
    straggler_excess = float(forensics.get("straggler_excess_s", 0.0))
    if straggler_excess > 0:
        per_kind["straggler"] = per_kind.get("straggler", 0.0) + straggler_excess
    failstop = float(
        sum(
            ep["rework_s"] + ep["downtime_s"] + ep["requeue_s"]
            for ep in episodes
            if ep["kind"] in FAILSTOP_KINDS
        )
    )
    return {
        "replica": replica,
        "seed": result.get("seed"),
        "completed": bool(result.get("completed", False)),
        "wrong_result": bool(result.get("wrong_result", False)),
        "measured_waste_s": measured,
        "attributed_waste_s": attributed,
        "failstop_waste_s": failstop,
        "coverage": (attributed / measured) if measured > 0 else 1.0,
        "checkpoint_time_s": float(result.get("checkpoint_time", 0.0)),
        "straggler_excess_s": straggler_excess,
        "per_kind": dict(sorted(per_kind.items())),
        "episodes": len(episodes),
        "chains": chains,
    }


def _point_outliers(attributions: list[dict]) -> list[dict]:
    """Replicas that stand out from their point's waste distribution
    (|z| > OUTLIER_Z), plus every abort and wrong result."""
    wastes = [a["measured_waste_s"] for a in attributions]
    n = len(wastes)
    mean = sum(wastes) / n if n else 0.0
    var = sum((w - mean) ** 2 for w in wastes) / n if n else 0.0
    std = math.sqrt(var)
    out = []
    for a in attributions:
        reasons = []
        z = (a["measured_waste_s"] - mean) / std if std > 0 else 0.0
        if abs(z) > OUTLIER_Z:
            reasons.append(f"waste z={z:+.1f}")
        if not a["completed"]:
            reasons.append("aborted")
        if a["wrong_result"]:
            reasons.append("wrong_result")
        if reasons:
            out.append(
                {
                    "replica": a["replica"],
                    "seed": a["seed"],
                    "measured_waste_s": a["measured_waste_s"],
                    "z": z,
                    "reasons": reasons,
                }
            )
    return out


def _failstop_youngdaly(spec, attributions: list[dict]) -> dict:
    """Fail-stop attributed waste vs the Young/Daly expectation.

    The analytical model prices checkpoint overhead + fail-stop rework/
    restart waste, so the simulated side is the mean (over completed
    replicas) of the fail-stop episode waste plus checkpoint time.  For
    a fail-stop-only mix this reduces to the report's ``youngdaly``
    cross-check; with a mixed taxonomy it isolates the share the model
    can actually see.
    """
    predicted = expected_waste(
        spec.work_s,
        spec.interval_s,
        spec.ckpt_cost_s,
        spec.system_mtbf_s,
        restart_cost=spec.recovery_time_s,
    )
    completed = [a for a in attributions if a["completed"]]
    if not completed:
        return {
            "predicted_waste_s": predicted,
            "simulated_failstop_waste_s": None,
            "ratio": None,
        }
    simulated = sum(
        a["failstop_waste_s"] + a["checkpoint_time_s"] for a in completed
    ) / len(completed)
    return {
        "predicted_waste_s": predicted,
        "simulated_failstop_waste_s": simulated,
        "ratio": simulated / predicted if predicted > 0 else None,
    }


def _kind_weights(spec) -> dict[str, float]:
    mix = dict(spec.fault_mix) if spec.fault_mix else {}
    if not mix:
        mix = {
            "software": spec.software_fraction,
            "node": 1.0 - spec.software_fraction,
        }
    return mix


def _two_error_check(spec, attributions: list[dict]) -> Optional[dict]:
    """Two-error-type waste-fraction comparison (when ABFT is on and the
    mix carries both fail-stop and SDC arrival streams)."""
    if spec.verify_period <= 0:
        return None
    mix = _kind_weights(spec)
    p_sdc = mix.get("sdc", 0.0)
    p_fs = sum(mix.get(k, 0.0) for k in FAILSTOP_KINDS)
    if p_sdc <= 0 or p_fs <= 0:
        return None
    predicted = two_error_waste_fraction(
        spec.interval_s,
        spec.ckpt_cost_s,
        spec.verify_cost_s,
        spec.system_mtbf_s / p_fs,
        spec.system_mtbf_s / p_sdc,
    )
    completed = [a for a in attributions if a["completed"]]
    if not completed:
        return {"predicted_fraction": predicted, "simulated_fraction": None}
    # The synthetic workload's verify overhead is deterministic
    # (ConstantModel), so it is priced from the spec, not re-measured.
    verify_overhead = spec.verify_cost_s * (
        spec.timesteps // spec.verify_period
    )
    simulated = sum(
        (a["measured_waste_s"] + a["checkpoint_time_s"] + verify_overhead)
        / spec.work_s
        for a in completed
    ) / len(completed)
    return {
        "predicted_fraction": predicted,
        "simulated_fraction": simulated,
        "ratio": simulated / predicted if predicted > 0 else None,
    }


def _load_harness_log(path: str) -> Optional[dict]:
    """Torn-tail-safe summary of the supervisor failure log."""
    import os

    from repro.guard.durable import read_jsonl

    if not os.path.exists(path):
        return None
    records, _ = read_jsonl(path, skip_malformed=True)
    by_kind: dict[str, int] = {}
    quarantined = []
    for rec in records:
        kind = str(rec.get("kind", "unknown"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "poisoned":
            quarantined.append(rec.get("key"))
    return {
        "failures": len(records),
        "by_kind": dict(sorted(by_kind.items())),
        "quarantined": quarantined,
    }


def _flight_summary(flight_dir: str, journal_seeds: set) -> Optional[dict]:
    from repro.obs.flightrec import load_flight_dir

    dumps = load_flight_dir(flight_dir)
    if not dumps:
        return None
    by_reason: dict[str, int] = {}
    in_flight = []
    entries = []
    for seed in sorted(dumps):
        d = dumps[seed]
        records = d["records"]
        reason = str(d["meta"].get("reason", "")) or (
            "in_flight" if d["in_flight"] else "unknown"
        )
        by_reason[reason] = by_reason.get(reason, 0) + 1
        entry = {
            "seed": seed,
            "reason": reason,
            "records": len(records),
            "last_t": records[-1].get("t") if records else None,
            "in_journal": seed in journal_seeds,
        }
        entries.append(entry)
        if d["in_flight"]:
            # A live spill with no final dump: the replica was killed
            # mid-run (SIGKILL, OOM...) — the tail shows where it died.
            in_flight.append(entry)
    return {
        "dir": flight_dir,
        "dumps": len(entries),
        "by_reason": dict(sorted(by_reason.items())),
        "in_flight": in_flight,
        "entries": entries,
    }


def analyze_journal(
    journal_path: str,
    flight_dir: Optional[str] = None,
    top_k: int = 5,
) -> dict:
    """Full campaign post-mortem from a write-ahead journal.

    Returns a JSON-ready dict: per-point attribution + reconciliation +
    analytical cross-checks, campaign-wide top-*top_k* faults by
    attributed waste, outlier replicas, and (when *flight_dir* is given)
    the flight-dump and harness-failure summaries.
    """
    import os

    from repro.core.campaign import CampaignJournal, CampaignSpec

    meta, points, replicas = CampaignJournal.read(journal_path)
    point_reports = []
    all_chains: list[tuple[str, int, FaultChain]] = []
    journal_seeds: set = set()
    total_measured = 0.0
    total_attributed = 0.0
    for spec_key, spec_dict in points.items():
        spec = CampaignSpec(**spec_dict)
        done = replicas.get(spec_key, {})
        attributions = []
        for idx in sorted(done):
            result = done[idx]
            if result.get("seed") is not None:
                journal_seeds.add(result["seed"])
            a = attribute_replica(result, replica=idx)
            attributions.append(a)
            for chain in a["chains"]:
                all_chains.append((spec_key, idx, chain))
        measured = sum(a["measured_waste_s"] for a in attributions)
        attributed = sum(a["attributed_waste_s"] for a in attributions)
        total_measured += measured
        total_attributed += attributed
        per_kind: dict[str, float] = {}
        for a in attributions:
            for kind, waste in a["per_kind"].items():
                per_kind[kind] = per_kind.get(kind, 0.0) + waste
        point_reports.append(
            {
                "spec_key": spec_key,
                "mtbf_s": spec.node_mtbf_s,
                "ckpt_period": spec.ckpt_period,
                "fault_mix": _kind_weights(spec),
                "reps": int(meta["reps"]),
                "replicas_done": len(attributions),
                "completed": sum(1 for a in attributions if a["completed"]),
                "aborted": sum(
                    1 for a in attributions if not a["completed"]
                ),
                "wrong_results": sum(
                    1 for a in attributions if a["wrong_result"]
                ),
                "episodes": sum(a["episodes"] for a in attributions),
                "measured_waste_s": measured,
                "attributed_waste_s": attributed,
                "coverage": (attributed / measured) if measured > 0 else 1.0,
                "straggler_excess_s": sum(
                    a["straggler_excess_s"] for a in attributions
                ),
                "per_kind": dict(sorted(per_kind.items())),
                "outliers": _point_outliers(attributions),
                "youngdaly": _failstop_youngdaly(spec, attributions),
                "two_error": _two_error_check(spec, attributions),
            }
        )
    ranked = sorted(
        (c for c in all_chains if c[2].total_waste_s > 0),
        key=lambda c: c[2].total_waste_s,
        reverse=True,
    )
    top_faults = [
        {"spec_key": spec_key, "replica": idx, **chain.to_dict()}
        for spec_key, idx, chain in ranked[: max(0, top_k)]
    ]
    analysis = {
        "analyze": "fault-forensics",
        "journal": journal_path,
        "reps": int(meta["reps"]),
        "base_seed": int(meta["base_seed"]),
        "points": point_reports,
        "totals": {
            "measured_waste_s": total_measured,
            "attributed_waste_s": total_attributed,
            "coverage": (
                (total_attributed / total_measured)
                if total_measured > 0
                else 1.0
            ),
        },
        "top_faults": top_faults,
        "flight": None,
        "harness": None,
    }
    if flight_dir is not None:
        analysis["flight"] = _flight_summary(flight_dir, journal_seeds)
        analysis["harness"] = _load_harness_log(
            os.path.join(flight_dir, "harness-failures.jsonl")
        )
    return analysis


def chain_trace_events(chain_dict: dict, time_unit: float = 1e6) -> list[dict]:
    """Chrome-trace events of one fault chain's recovery timeline.

    Phases become duration (``"X"``) events back-to-back until the
    episode end; the injection itself is an instant (``"i"``) marker.
    Times are scaled by *time_unit* (simulated seconds → trace µs).
    """
    events = [
        {
            "name": f"inject:{chain_dict['kind']}",
            "ph": "i",
            "ts": chain_dict["t_inject"] * time_unit,
            "pid": 0,
            "tid": 0,
            "s": "g",
            "args": {"fault": chain_dict["fault"], "node": chain_dict["node"]},
        }
    ]
    phases = chain_dict.get("phases") or []
    t_end = chain_dict.get("t_end")
    for i, (t, name, data) in enumerate(phases):
        nxt = phases[i + 1][0] if i + 1 < len(phases) else t_end
        dur = max(0.0, (nxt - t)) if nxt is not None else 0.0
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": t * time_unit,
                "dur": dur * time_unit,
                "pid": 0,
                "tid": 0,
                "args": dict(data),
            }
        )
    return events


def worst_fault_trace(analysis: dict, time_unit: float = 1e6) -> dict:
    """Chrome-trace dict of the worst (most wasteful) fault's timeline."""
    top = analysis.get("top_faults") or []
    events = chain_trace_events(top[0], time_unit) if top else []
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def format_analysis(analysis: dict, width: int = 72) -> str:
    """Human-readable post-mortem text of :func:`analyze_journal`."""
    lines = []
    rule = "=" * width
    lines.append(rule)
    lines.append("FAULT FORENSICS POST-MORTEM".center(width))
    lines.append(rule)
    totals = analysis["totals"]
    lines.append(
        f"journal: {analysis['journal']}  "
        f"(reps={analysis['reps']}, base_seed={analysis['base_seed']})"
    )
    lines.append(
        f"waste: measured {totals['measured_waste_s']:.2f}s · attributed "
        f"{totals['attributed_waste_s']:.2f}s · coverage "
        f"{totals['coverage']:.1%}"
    )
    for p in analysis["points"]:
        lines.append("-" * width)
        lines.append(
            f"point {p['spec_key'][:12]}  mtbf={p['mtbf_s']:g}s "
            f"period={p['ckpt_period']}  replicas "
            f"{p['replicas_done']}/{p['reps']}  episodes {p['episodes']}"
        )
        lines.append(
            f"  waste {p['measured_waste_s']:.2f}s attributed "
            f"{p['coverage']:.1%}  aborted {p['aborted']}  "
            f"wrong results {p['wrong_results']}"
        )
        if p["per_kind"]:
            breakdown = "  ".join(
                f"{kind}={waste:.2f}s" for kind, waste in p["per_kind"].items()
            )
            lines.append(f"  by kind: {breakdown}")
        if p["straggler_excess_s"] > 0:
            lines.append(
                f"  straggler slowdown excess: {p['straggler_excess_s']:.2f}s "
                "(outside the waste buckets)"
            )
        yd = p["youngdaly"]
        if yd["ratio"] is not None:
            lines.append(
                f"  young/daly (fail-stop): predicted "
                f"{yd['predicted_waste_s']:.2f}s simulated "
                f"{yd['simulated_failstop_waste_s']:.2f}s "
                f"ratio {yd['ratio']:.2f}"
            )
        te = p["two_error"]
        if te is not None and te.get("simulated_fraction") is not None:
            lines.append(
                f"  two-error model: predicted fraction "
                f"{te['predicted_fraction']:.3f} simulated "
                f"{te['simulated_fraction']:.3f}"
            )
        for o in p["outliers"]:
            lines.append(
                f"  outlier replica {o['replica']} (seed {o['seed']}): "
                f"waste {o['measured_waste_s']:.2f}s "
                f"[{', '.join(o['reasons'])}]"
            )
    if analysis["top_faults"]:
        lines.append("-" * width)
        lines.append(f"top {len(analysis['top_faults'])} faults by attributed waste:")
        for i, f in enumerate(analysis["top_faults"], 1):
            lines.append(
                f"  {i}. t={f['t_inject']:.2f}s {f['kind']} on node "
                f"{f['node']} (replica {f['replica']}) → {f['outcome']}: "
                f"{f['total_waste_s']:.2f}s"
            )
            buckets = "  ".join(
                f"{k.removesuffix('_s')}={v:.2f}s"
                for k, v in f["waste"].items()
                if v > 0
            )
            if buckets:
                lines.append(f"     {buckets}")
    flight = analysis.get("flight")
    if flight is not None:
        lines.append("-" * width)
        reasons = "  ".join(
            f"{k}={v}" for k, v in flight["by_reason"].items()
        )
        lines.append(f"flight dumps: {flight['dumps']} ({reasons})")
        for e in flight["in_flight"]:
            lines.append(
                f"  in-flight (killed?) seed {e['seed']}: "
                f"{e['records']} records, last t={e['last_t']}"
            )
    harness = analysis.get("harness")
    if harness is not None:
        kinds = "  ".join(f"{k}={v}" for k, v in harness["by_kind"].items())
        lines.append(f"harness failures: {harness['failures']} ({kinds})")
        if harness["quarantined"]:
            lines.append(f"  quarantined: {', '.join(map(str, harness['quarantined']))}")
    lines.append(rule)
    return "\n".join(lines)

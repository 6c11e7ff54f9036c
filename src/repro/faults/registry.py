"""Fault-domain registry: the single source of truth for the taxonomy.

Every fault *kind* the simulator understands belongs to exactly one
fault *domain* — a pluggable behaviour module under ``repro.faults``
(see :mod:`repro.faults.domains`).  This module owns the metadata only:
the canonical kind ordering, the kind → domain mapping, per-kind
recovery metadata, and the layout of structured fault-config files
(which :class:`~repro.core.campaign.CampaignSpec` field each per-domain
file field sets).  The knobs themselves, with their defaults, are
defined once, as ``CampaignSpec`` fields.

Deliberately import-light (stdlib only): ``repro.core.fault_injection``
derives its public ``FAULT_KINDS`` tuple from here, so this module must
not import anything from ``repro.core`` or the domain implementations.

Draw-stream stability
---------------------
``FAULT_KINDS`` is the *cumulative-weight walk order* of
:meth:`repro.core.fault_injection.FaultModel.draw_kind`: a single
uniform draw is compared against the running sum of per-kind weights in
exactly this tuple order.  The order is therefore a frozen contract —
reordering it (or inserting a kind anywhere but the end) silently
reshuffles which kinds historical seeds produce.  New kinds must be
APPENDED, and the registry asserts at import time that every kind maps
to exactly one domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: canonical fault-kind order — the FaultModel draw-stream contract
#: (append-only; see module docstring)
FAULT_KINDS: tuple[str, ...] = (
    "software",
    "node",
    "sdc",
    "straggler",
    "burst",
    "link",
    "switch",
    "netdeg",
)

#: fault-kind severity ordering for nested-fault merging (network kinds
#: leave node storage intact, so they rank with the mild kinds)
KIND_SEVERITY: dict[str, int] = {
    "software": 0,
    "netdeg": 0,
    "sdc": 1,
    "link": 1,
    "switch": 1,
    "node": 2,
    "burst": 3,
}

#: minimum checkpoint level whose protection domain covers each fault
#: kind: software/transient crashes leave node storage intact (any
#: level), node losses and correlated bursts need partner/RS/PFS
#: protection (Table I); detected SDC restores from any level — the
#: data on disk is intact, it just has to be a *clean* version.
#: Network faults never touch storage, so any level recovers once
#: connectivity is back.
MIN_LEVEL_FOR_KIND: dict[str, int] = {
    "software": 1,
    "sdc": 1,
    "node": 2,
    "burst": 2,
    "link": 1,
    "switch": 1,
    "netdeg": 1,
}


# -- registry entries ------------------------------------------------------------------


@dataclass(frozen=True)
class DomainInfo:
    """One registered fault domain: metadata only, no behaviour."""

    name: str
    kinds: tuple[str, ...]
    summary: str
    #: this domain's section of a fault-config file: file field ->
    #: the CampaignSpec field it sets (which holds the default)
    config: dict = field(default_factory=dict)
    #: protocol hooks this domain implements beyond ``apply`` (introspection
    #: for ``repro faults list``; behaviour lives in repro.faults.domains)
    hooks: tuple[str, ...] = ()


REGISTRY: tuple[DomainInfo, ...] = (
    DomainInfo(
        name="failstop",
        kinds=("software", "node", "burst"),
        summary="Fail-stop crashes: coordinated rollback along the escalation ladder.",
        config={"burst_size": "burst_size"},
        hooks=("on_failstop_strike",),
    ),
    DomainInfo(
        name="sdc",
        kinds=("sdc",),
        summary="Silent data corruption: latent strikes, ABFT/validation detection.",
        config={"coverage": "sdc_coverage", "correct_prob": "sdc_correct_prob"},
        hooks=("on_checkpoint_commit", "on_verify_point", "on_rewind", "reset"),
    ),
    DomainInfo(
        name="straggler",
        kinds=("straggler",),
        summary="Degraded compute clocks with token-guarded repairs.",
        config={"slowdown": "straggler_slowdown", "repair_s": "straggler_repair_s"},
        hooks=("reset",),
    ),
    DomainInfo(
        name="network",
        kinds=("link", "switch", "netdeg"),
        summary="Topology health overlay: failed/degraded links, partitions.",
        config={
            "link_mtbf_s": "net_link_mtbf_s",
            "repair_s": "net_repair_s",
            "degrade_factor": "net_degrade_factor",
            "loss_prob": "net_loss_prob",
            "topology": "net_topology",
            "fault_split": "net_fault_split",
        },
        hooks=("blocks_resume", "on_resume_blocked", "reset", "metrics_gauges"),
    ),
    DomainInfo(
        name="torn",
        kinds=(),
        summary="Torn-checkpoint invalidation on fail-stop strikes.",
        hooks=("on_failstop_strike",),
    ),
)

#: kind -> owning domain name
KIND_TO_DOMAIN: dict[str, str] = {
    kind: info.name for info in REGISTRY for kind in info.kinds
}

#: kinds whose recovery semantics are fail-stop (coordinated rollback)
FAILSTOP_KINDS: frozenset = frozenset(
    next(info.kinds for info in REGISTRY if info.name == "failstop")
)


_MISSING = object()


def domain_for_kind(kind: str, default=_MISSING) -> str:
    """Name of the domain that owns *kind*.

    Raises KeyError on an unknown kind unless *default* is given —
    post-mortem readers pass a default so journals written by a build
    with extra domains still classify instead of crashing.
    """
    if default is _MISSING:
        return KIND_TO_DOMAIN[kind]
    return KIND_TO_DOMAIN.get(kind, default)


def kinds_of(domain: str) -> tuple[str, ...]:
    """The fault kinds owned by *domain*, in canonical order."""
    info = get_domain(domain)
    return tuple(k for k in FAULT_KINDS if k in info.kinds)


def get_domain(name: str) -> DomainInfo:
    for info in REGISTRY:
        if info.name == name:
            return info
    raise KeyError(f"unknown fault domain {name!r}; expected one of "
                   f"{[i.name for i in REGISTRY]}")


# -- structured fault-config files -----------------------------------------------------


def campaign_kwargs_from_config(cfg: dict) -> dict:
    """Map a structured fault-config document onto flat campaign kwargs.

    The document has one section per domain plus an optional top-level
    ``"mix"`` (kind -> weight).  Unknown sections or fields raise
    ``ValueError`` naming the offender — a config file that silently
    ignored a typo would be worse than no file.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"fault config must be a JSON object, got {type(cfg).__name__}")
    out: dict = {}
    for section, value in cfg.items():
        if section == "mix":
            if not isinstance(value, dict):
                raise ValueError("fault config 'mix' must map kind -> weight")
            unknown = sorted(set(value) - set(FAULT_KINDS))
            if unknown:
                raise ValueError(f"unknown fault kinds in mix: {unknown}")
            out["fault_mix"] = {str(k): float(v) for k, v in value.items()}
            continue
        try:
            field_map = get_domain(section).config
        except KeyError:
            raise ValueError(
                f"unknown fault-config section {section!r}; expected one of "
                f"{sorted([*(info.name for info in REGISTRY), 'mix'])}"
            ) from None
        if not isinstance(value, dict):
            raise ValueError(f"fault-config section {section!r} must be an object")
        for key, raw in value.items():
            dest = field_map.get(key)
            if dest is None:
                raise ValueError(
                    f"unknown field {key!r} in fault-config section {section!r}; "
                    f"expected one of {sorted(field_map)}"
                )
            if dest == "net_fault_split":
                if not isinstance(raw, dict):
                    raise ValueError("network.fault_split must map kind -> share")
                raw = tuple(sorted((str(k), float(v)) for k, v in raw.items()))
            elif dest == "net_topology":
                raw = str(raw)
            else:
                # coerce to the CampaignSpec field's numeric type so a
                # JSON "1" and "1.0" build byte-identical spec records
                try:
                    raw = int(raw) if dest == "burst_size" else float(raw)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"fault-config {section}.{key} must be a number, "
                        f"got {raw!r}"
                    ) from None
            out[dest] = raw
    return out


def _check_registry() -> None:
    seen: dict[str, str] = {}
    for info in REGISTRY:
        for kind in info.kinds:
            if kind in seen:
                raise AssertionError(
                    f"fault kind {kind!r} claimed by both {seen[kind]!r} "
                    f"and {info.name!r}"
                )
            seen[kind] = info.name
    missing = [k for k in FAULT_KINDS if k not in seen]
    extra = [k for k in seen if k not in FAULT_KINDS]
    if missing or extra:
        raise AssertionError(
            f"registry/kind mismatch: missing={missing} extra={extra}"
        )


_check_registry()

"""Pluggable fault-domain subsystem.

Layout:

* :mod:`repro.faults.registry` — taxonomy metadata: the canonical
  ``FAULT_KINDS`` order, kind → domain mapping, per-kind recovery
  metadata, and each domain's section of the fault-config file layout
  (the knobs themselves are ``CampaignSpec`` fields).  Import-light
  by contract: ``repro.core.fault_injection`` derives ``FAULT_KINDS``
  from it.
* :mod:`repro.faults.context` — the shared :class:`RecoveryContext`
  (ladder walk, episode attribution, waste accounting, flight-recorder
  notes, guarded metric emission).
* :mod:`repro.faults.domains` — the :class:`FaultDomain` protocol and
  the concrete fail-stop / SDC / straggler / network / torn-checkpoint
  implementations.

The package body imports only the registry eagerly; the context and
domain modules import ``repro.core.fault_injection``, which itself
imports the registry — loading them from here at package-init time
would make that import circular.  ``__getattr__`` resolves the
re-exports on first use instead.
"""

from repro.faults.registry import (  # noqa: F401
    FAILSTOP_KINDS,
    FAULT_KINDS,
    KIND_SEVERITY,
    KIND_TO_DOMAIN,
    MIN_LEVEL_FOR_KIND,
    REGISTRY,
    DomainInfo,
    campaign_kwargs_from_config,
    domain_for_kind,
    kinds_of,
)

_LAZY = {
    "RecoveryContext": ("repro.faults.context", "RecoveryContext"),
    "RecoveryEpisode": ("repro.faults.context", "RecoveryEpisode"),
    "FaultDomain": ("repro.faults.domains", "FaultDomain"),
    "FailStopDomain": ("repro.faults.domains", "FailStopDomain"),
    "SdcDomain": ("repro.faults.domains", "SdcDomain"),
    "StragglerDomain": ("repro.faults.domains", "StragglerDomain"),
    "NetworkDomain": ("repro.faults.domains", "NetworkDomain"),
    "TornCheckpointDomain": ("repro.faults.domains", "TornCheckpointDomain"),
    "DOMAIN_CLASSES": ("repro.faults.domains", "DOMAIN_CLASSES"),
    "build_domains": ("repro.faults.domains", "build_domains"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

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

None of them imports ``repro.core`` at module level (the domains load
:class:`~repro.core.fault_injection.FaultDetail` on use), so the
package imports cleanly whichever module is loaded first.
"""

from repro.faults.context import RecoveryContext, RecoveryEpisode  # noqa: F401
from repro.faults.domains import (  # noqa: F401
    DOMAIN_CLASSES,
    FailStopDomain,
    FaultDomain,
    NetworkDomain,
    SdcDomain,
    StragglerDomain,
    TornCheckpointDomain,
    build_domains,
)
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

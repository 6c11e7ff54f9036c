"""Pluggable fault-domain subsystem.

Layout:

* :mod:`repro.faults.domains`: the fault taxonomy (the canonical,
  append-only ``FAULT_KINDS`` draw order and per-kind recovery
  metadata), the :class:`~repro.faults.domains.FaultDomain` protocol,
  and one subclass per fault family (fail-stop, SDC, straggler,
  network, torn-checkpoint).  Each subclass is the one definition of
  its domain: name, kinds, summary, ``--fault-config`` section and
  behaviour.  ``DOMAINS`` lists them, and the module parses
  ``--fault-config`` files.
* :mod:`repro.faults.context`: the shared
  :class:`~repro.faults.context.RecoveryContext` (ladder walk, episode
  attribution, waste accounting, flight-recorder notes, guarded metric
  emission).

Neither imports ``repro.core`` at module level (the domains load
:class:`~repro.core.fault_injection.FaultDetail` on use), so the
package imports cleanly whichever module is loaded first.
"""

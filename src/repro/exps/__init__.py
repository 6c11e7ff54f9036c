"""Experiment drivers: one module per table/figure of the paper.

Every driver returns plain data structures (dicts/lists) plus a
``format_*`` helper that renders the paper-style table, so the same code
backs the examples, the benchmark harness and EXPERIMENTS.md.

========  ====================================================
module    reproduces
========  ====================================================
fig1      Fig. 1 — CMT-bone on Vulcan benchmark-vs-sim DSE
fig5_6    Figs. 5-6 — instance-model scaling validation
table3    Table III — instance-model MAPE
fig7_8    Figs. 7-8 — full-application runtime curves
table4    Table IV — full-system simulation MAPE
fig9      Fig. 9 — overhead prediction matrix
fig4      Fig. 4 — fault-assumption Cases 1-4 (incl. the
          paper's future-work fault injection)
ablations ABL1-ABL4 — modeling method, Young/Daly, analytical
          baselines, DES engine equivalence
extensions EXT1-EXT9 — all FTI levels, level selection,
          architectural/hardware DSE, level-aware fault DSE,
          ABFT vs C/R, modeling granularity, SDC verification
          interval DSE, network fault DSE
report    the full markdown report (writes EXPERIMENTS.md)
========  ====================================================

The targets that run these modules — ``repro <target>`` and the report's
sections — are declared once, in :data:`repro.targets.TARGETS`.  Every
Monte-Carlo design point is one
:func:`~repro.core.workflow.simulate_design_point` call; EXT8 and EXT9
seed their replicas through ``derive_seeds`` and run campaign simulators
instead.
"""

from repro.exps.casestudy import (
    CaseStudyContext,
    get_context,
    CASE_EPRS,
    CASE_RANKS,
    CASE_TIMESTEPS,
    CKPT_PERIOD,
    case_scenarios,
)

__all__ = [
    "CaseStudyContext",
    "get_context",
    "CASE_EPRS",
    "CASE_RANKS",
    "CASE_TIMESTEPS",
    "CKPT_PERIOD",
    "case_scenarios",
]

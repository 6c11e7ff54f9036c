"""The campaign scenario table (``tests/scenarios.py``) stays runnable.

Runs no campaign: it checks that row names are distinct and that every
argv the driver would run parses with the CLI's own parser, so a renamed
or removed campaign flag fails here rather than only in the scenarios CI
job.
"""

import argparse

import pytest

from repro.cli import _build_parser
from tests.scenarios import SCENARIOS, planned_runs


def _campaign_parser() -> argparse.ArgumentParser:
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    camp = sub.choices["campaign"]
    # a flag renamed to a longer name must not parse as its abbreviation
    camp.allow_abbrev = False
    return camp


def test_scenario_names_are_distinct():
    names = [row.name for row in SCENARIOS]
    assert len(names) == len(set(names)), names


@pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.name)
def test_scenario_argv_parses(row):
    parser = _campaign_parser()
    runs = planned_runs(row)
    assert runs, "a row must run at least one campaign"
    for label, argv in runs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{row.name} {label}: campaign rejects {' '.join(argv)}")

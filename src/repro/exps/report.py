"""Full experiment report: regenerate every artifact into one markdown file.

``python -m repro.exps.report [--out EXPERIMENTS.md] [--reps N]`` runs the
entire evaluation — every paper table and figure plus the extension and
ablation experiments — and writes a paper-vs-measured markdown report.
The sections are :data:`repro.targets.TARGETS`, in ``repro list`` order.
The repository's EXPERIMENTS.md is this module's output.

Each section's claims are checked on the result that section renders.
After writing the file, every failed claim, and every section that raised,
is printed to stderr as ``FAIL <target>: <reason>`` and the run exits 1.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import Optional

from repro.targets import TARGETS, evaluate_target

#: every host-time field of a report; nothing else in it varies run to run
HOST_TIME = re.compile(
    r"_regenerated in \d+\.\d+s"  # each section's wall time
    r"|wall=\s*\d+\.\d+ms"  # ABL4's engine timings
    r"|(?<=%)\s+\d+\.\d+s$",  # EXT7's fit-time column, after its error cell
    re.MULTILINE,
)


def mask_host_time(text: str) -> str:
    """*text* with each :data:`HOST_TIME` field replaced by one token, so
    two reports of the same tree compare equal."""
    return HOST_TIME.sub("<host time>", text)


def generate_report(
    out_path: Optional[str] = None,
    seed: int = 0,
    reps: int = 3,
    sections: Optional[list[str]] = None,
    echo: bool = True,
) -> tuple[str, list[str]]:
    """Run every chosen experiment and check its claims.

    Returns (and optionally writes) the report, with one ``FAIL`` line per
    failed claim or raising section.
    """
    chosen = sections or list(TARGETS)
    parts = [
        "# EXPERIMENTS — paper vs reproduction",
        "",
        "Generated by `python -m repro.exps.report` (virtual-testbed "
        "measurements; see DESIGN.md for the substitution rationale). "
        f"Settings: seed={seed}, Monte-Carlo reps={reps}.",
        "",
        "Absolute numbers are not expected to match the paper (the "
        "substrate is a synthetic testbed, not LLNL Quartz); the *shape* "
        "— orderings, scaling directions, error bands, crossovers — is "
        "the reproduction target. Each section's claims (the `claims` of its "
        "row in `repro.targets.TARGETS`) are checked on the result shown "
        "here; a failed claim prints `FAIL <target>: <claim>` and the run "
        "exits 1.",
        "",
    ]
    failures: list[str] = []
    for target in TARGETS.values():
        if target.name not in chosen:
            continue
        t0 = time.time()
        if echo:
            print(f"[report] running {target.name}...", file=sys.stderr)
        try:
            body, failed = evaluate_target(target.name, seed, reps)
        except Exception as exc:  # keep the report usable if one fails
            body, failed = f"(FAILED: {exc})", [f"raised {type(exc).__name__}: {exc}"]
        failures += [f"FAIL {target.name}: {reason}" for reason in failed]
        elapsed = time.time() - t0
        parts += [
            f"## {target.title}",
            "",
            target.notes,
            "",
            "```",
            body,
            "```",
            "",
            f"_regenerated in {elapsed:.1f}s — `python -m repro {target.name}`_",
            "",
        ]
    text = "\n".join(parts)
    if out_path is not None:
        Path(out_path).write_text(text)
    return text, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--sections", nargs="*", default=None,
        help="subset of section ids (default: all)",
    )
    args = parser.parse_args(argv)
    _, failures = generate_report(args.out, args.seed, args.reps, args.sections)
    print(f"wrote {args.out}", file=sys.stderr)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

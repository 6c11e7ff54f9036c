"""Report generator (fast sections only)."""

import dataclasses
import re
from pathlib import Path

from repro.cli import main
from repro.exps.report import HOST_TIME, generate_report, mask_host_time
from repro.exps.report import main as report_main
from repro.targets import TARGETS, Claim

COMMITTED = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_sections_cover_all_artifacts(monkeypatch, capsys):
    import repro.exps.report as report_mod

    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    monkeypatch.setattr(report_mod, "evaluate_target", lambda name, seed, reps: (name, []))
    text, failures = generate_report(out_path=None, echo=False)
    sections = re.findall(r"`python -m repro (\w+)`_", text)
    assert sections == listed and "ext9" in listed
    assert failures == []


def test_generate_report_subset(tmp_path):
    out = tmp_path / "report.md"
    text, failures = generate_report(
        out_path=str(out), sections=["abl3", "abl4"], echo=False
    )
    assert out.read_text() == text
    assert "# EXPERIMENTS" in text
    assert "ABL3" in text and "ABL4" in text
    assert "fig7" not in text.split("## ")[0]  # header only mentions settings
    # skipped sections are absent
    assert "Table III" not in text
    # both sections' claims hold on the results just rendered
    assert TARGETS["abl3"].claims and TARGETS["abl4"].claims
    assert failures == []


def test_generate_report_survives_failures(monkeypatch, tmp_path, capsys):
    import repro.exps.report as report_mod

    def boom(name, seed, reps):
        raise RuntimeError("kaput")

    monkeypatch.setattr(report_mod, "evaluate_target", boom)
    text, failures = generate_report(
        out_path=None, sections=["abl3"], echo=False
    )
    assert "FAILED: kaput" in text
    assert failures == ["FAIL abl3: raised RuntimeError: kaput"]
    # the file is still written, but the run fails and names the section
    out = tmp_path / "report.md"
    assert report_main(["--sections", "abl3", "--out", str(out)]) == 1
    assert "FAILED: kaput" in out.read_text()
    assert "FAIL abl3: raised RuntimeError: kaput" in capsys.readouterr().err


def test_host_time_mask(monkeypatch, tmp_path, capsys):
    # on the committed report the one pattern finds exactly the host-time
    # fields: 22 section wall times, EXT7's two fit-time cells and ABL4's
    # three engine walls, and changes no other line
    committed = COMMITTED.read_text()
    masked = mask_host_time(committed)
    fields = HOST_TIME.findall(committed)
    assert sum(f.startswith("_regenerated in ") for f in fields) == 22 == len(TARGETS)
    assert sum(f.startswith("wall=") for f in fields) == 3
    assert len(fields) == 27
    pairs = list(zip(committed.splitlines(), masked.splitlines(), strict=True))
    changed = [line for line, after in pairs if line != after]
    assert len(changed) == 27
    others = [line.split()[0] for line in changed if not line.startswith("_regenerated in ")]
    assert others == ["coarse", "fine", "sequential", "parallel_2", "parallel_4"]

    # two runs of the same tree are equal once masked
    first, second = (generate_report(sections=["abl3", "abl4"], echo=False)[0] for _ in range(2))
    assert mask_host_time(first) == mask_host_time(second)

    # a planted failing claim makes the run exit 1 and name it
    abl3 = TARGETS["abl3"]
    planted = Claim("planted row count", len, "<", 0, paper=6)
    monkeypatch.setitem(
        TARGETS, "abl3", dataclasses.replace(abl3, claims=abl3.claims + (planted,))
    )
    assert report_main(["--sections", "abl3", "--out", str(tmp_path / "r.md")]) == 1
    err = capsys.readouterr().err
    assert "FAIL abl3: planted row count (measured 7, needs < 0, paper 6)" in err.splitlines()

"""Report generator (fast sections only)."""

import re

from repro.cli import main
from repro.exps.report import generate_report


def test_sections_cover_all_artifacts(monkeypatch, capsys):
    import repro.exps.report as report_mod

    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    monkeypatch.setattr(report_mod, "run_target", lambda name, seed, reps: name)
    text = generate_report(out_path=None, echo=False)
    sections = re.findall(r"`python -m repro (\w+)`_", text)
    assert sections == listed and "ext9" in listed


def test_generate_report_subset(tmp_path):
    out = tmp_path / "report.md"
    text = generate_report(
        out_path=str(out), sections=["abl3", "abl4"], echo=False
    )
    assert out.read_text() == text
    assert "# EXPERIMENTS" in text
    assert "ABL3" in text and "ABL4" in text
    assert "fig7" not in text.split("## ")[0]  # header only mentions settings
    # skipped sections are absent
    assert "Table III" not in text


def test_generate_report_survives_failures(monkeypatch, tmp_path):
    import repro.exps.report as report_mod

    def boom(name, seed, reps):
        raise RuntimeError("kaput")

    monkeypatch.setattr(report_mod, "run_target", boom)
    text = generate_report(
        out_path=None, sections=["abl3"], echo=False
    )
    assert "FAILED: kaput" in text

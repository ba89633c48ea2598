"""The byte gate: `tools/report_digests.py` lists and digests every report.

A refactor that must keep every report byte compares the tool's output
on two checkouts; these tests keep the tool's case list and its digest
from drifting unnoticed, and pin the sha256 of its whole output.  A
change that moves any report byte updates `REPORTS_SHA256` in the same
commit and names the moved reports in CHANGES.md.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from multseq import canonical_json, cli

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the 1,324 lines `tools/report_digests.py` prints
REPORTS_SHA256 = "9387f3bba9e079bd8de557b8ac86a2690aa0cc2c1c8f7d2b47587283be1d5b10"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cases_are_662_distinct_labels(tool):
    import workloads

    labels = [label for label, _, _ in tool._cases(workloads)]
    assert len(labels) == len(set(labels)) == 662
    # one report per case and format
    assert len(labels) * len(tool.FORMATS) == 1324


def test_digest_is_stable(tool, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        canonical_json(
            {"schema": 1, "ring": {"variables": ["x", "y"]}, "ideals": {"I": ["x"]}}
        )
    )
    argv = ["--task", "compute", "--input", str(path)]
    first, second = tool._digest(cli, argv), tool._digest(cli, argv)
    assert first == second
    assert re.fullmatch("[0-9a-f]{64}", first)


def test_every_report_keeps_its_bytes(tool, tmp_path, monkeypatch):
    # the engine version reads "unknown" with or without an installed
    # distribution, so the pin holds in both
    import workloads

    monkeypatch.setattr(cli, "_version", lambda: "unknown")
    path = tmp_path / "doc.json"
    lines = []
    for label, task, document in tool._cases(workloads):
        path.write_text(canonical_json(document), encoding="utf-8")
        for fmt in tool.FORMATS:
            argv = ["--task", task, "--input", str(path), "--format", fmt]
            lines.append(f"{label}-{fmt} {tool._digest(cli, argv)}\n")
    assert len(lines) == 1324
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == REPORTS_SHA256

"""The byte gate: `tools/report_digests.py` lists and digests every report.

A refactor that must keep every report byte compares the tool's output
on two checkouts; these tests keep the tool's case list and its digest
from drifting unnoticed.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from multseq import canonical_json, cli

ROOT = Path(__file__).resolve().parents[1]


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

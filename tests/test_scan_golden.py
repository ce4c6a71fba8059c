"""Pinned output of ``ultratree scan`` on every small case.

The cases and the recorder live in ``tests/data/scan_golden.py``; the
pinned outputs in ``tests/data/scan_golden.json``.  Each case re-runs the
scan in process and compares the sha256 of its JSONL, its summary line and
its exit code, so the scan's bytes cannot change unnoticed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "scan_golden", DATA / "scan_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_recorder()
PINNED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_scan_golden_file_matches_cases():
    assert [(e["n"], e["values"]) for e in PINNED] == golden.CASES
    assert [e["name"] for e in PINNED] == [golden.case_name(*c) for c in golden.CASES]
    assert len(PINNED) == 90


@pytest.mark.parametrize("entry", PINNED, ids=[e["name"] for e in PINNED])
def test_scan_output_matches_golden(entry):
    assert golden.record(entry["n"], entry["values"]) == entry["outputs"]

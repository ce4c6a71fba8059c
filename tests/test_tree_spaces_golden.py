"""Pinned output of the finite-tree CLI: ``matrix`` (text and ``--json``),
``iso --tree``, ``iso --space`` (text and ``--json``) and ``validate``.

The cases and the recorder live in ``tests/data/tree_spaces_golden.py``;
the pinned outputs in ``tests/data/tree_spaces_golden.json``.  Each case
re-runs every command in process and compares the sha256 of its standard
output and standard error and its exit code, so these commands' bytes
cannot change unnoticed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "tree_spaces_golden", DATA / "tree_spaces_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_recorder()
PINNED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_tree_spaces_golden_file_matches_cases():
    assert [e["name"] for e in PINNED] == [c["name"] for c in golden.CASES]
    commands = [" ".join(c) for c in golden.COMMANDS]
    assert all([r["command"] for r in e["runs"]] == commands for e in PINNED)


@pytest.mark.parametrize(
    "case", golden.CASES, ids=[c["name"] for c in golden.CASES]
)
def test_tree_spaces_output_matches_golden(case):
    pinned = next(e for e in PINNED if e["name"] == case["name"])
    assert golden.record(case) == pinned["runs"]

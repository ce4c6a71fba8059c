"""Pinned bytes of ``ultratree truncate`` on the symbolic golden corpus.

The recorder lives in ``tests/data/truncate_golden.py`` and the pinned
outputs in ``tests/data/truncate_golden.json``.  Each document is truncated
through the CLI at budgets 1..8; the sha256 of the tree JSON (including the
order of its ``addresses`` map), the error text and the exit code must not
change unnoticed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "truncate_golden", DATA / "truncate_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_recorder()
PINNED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
DOCS = dict(golden.CORPUS)


def test_truncate_golden_file_matches_corpus():
    assert [e["name"] for e in PINNED] == [name for name, _ in golden.CORPUS]
    assert all([r["budget"] for r in e["runs"]] == list(golden.BUDGETS) for e in PINNED)
    # answers and refusals are both pinned
    exits = {r["exit"] for e in PINNED for r in e["runs"]}
    assert exits == {0, 1}


@pytest.mark.parametrize("entry", PINNED, ids=[e["name"] for e in PINNED])
def test_cli_truncate_matches_golden(entry):
    assert golden.record(DOCS[entry["name"]]) == entry["runs"]

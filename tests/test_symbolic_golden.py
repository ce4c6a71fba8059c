"""Pinned outputs of the symbolic layer on a fixed corpus of documents.

The corpus and the recorder live in ``tests/data/symbolic_golden.py``; the
pinned outputs in ``tests/data/symbolic_golden.json``.  Each document is
re-run through every public symbolic question and compared output by
output, so a failure names the document and the question.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "symbolic_golden", DATA / "symbolic_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_recorder()
PINNED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_matches_corpus():
    assert [e["name"] for e in PINNED] == [name for name, _ in golden.CORPUS]
    assert [e["doc"] for e in PINNED] == [doc for _, doc in golden.CORPUS]
    assert len(PINNED) >= 40


@pytest.mark.parametrize("entry", PINNED, ids=[e["name"] for e in PINNED])
def test_symbolic_outputs_match_golden(entry):
    got = golden.normalize(golden.record(entry["doc"]))
    want = entry["outputs"]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{entry['name']}: {key}"

"""Pinned bytes of ``ultratree truncate`` on the symbolic golden corpus.

For every document of ``symbolic_golden.CORPUS`` and every budget 1..8,
``record`` runs the CLI in process and returns the sha256 of its standard
output (the tree JSON with its ``addresses`` map, whose order is part of
the bytes), its exact standard error and its exit code.

Regenerate the pinned file (only when an output change is intended, and
list every changed entry in CHANGES.md):

    PYTHONPATH=src python tests/data/truncate_golden.py

``tests/test_truncate_golden.py`` re-runs ``record`` on every document and
compares with ``truncate_golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from ultratree.cli import main

GOLDEN = Path(__file__).with_name("truncate_golden.json")
BUDGETS = range(1, 9)


def _load_corpus():
    spec = importlib.util.spec_from_file_location(
        "symbolic_golden", Path(__file__).with_name("symbolic_golden.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CORPUS


CORPUS = _load_corpus()


def record(doc: dict) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs = []
        for budget in BUDGETS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["truncate", "--symbolic", str(path), "--budget", str(budget)])
            runs.append({
                "budget": budget,
                "exit": code,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
                "stderr": err.getvalue(),
            })
    return runs


def main_write() -> None:
    entries = [{"name": name, "runs": record(doc)} for name, doc in CORPUS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main_write()

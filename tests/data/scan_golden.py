"""Golden corpus for ``ultratree scan``: pinned output of every small scan.

``CASES`` is every (n, values) with 1 <= n <= 6 and ``values`` a non-empty
subset of {1, 2, 3, 4}.  ``record`` runs the CLI in process on one case and
returns the sha256 of its standard output (the JSONL records), its exact
standard error (the summary line) and its exit code.

Regenerate the pinned file (only when an output change is intended, and
list every changed entry in CHANGES.md):

    PYTHONPATH=src python tests/data/scan_golden.py

``tests/test_scan_golden.py`` re-runs ``record`` on every case and compares
with ``scan_golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from ultratree.cli import main

GOLDEN = Path(__file__).with_name("scan_golden.json")
VALUES = ("1", "2", "3", "4")
CASES = [
    (n, ",".join(vals))
    for n in range(1, 7)
    for k in range(1, len(VALUES) + 1)
    for vals in itertools.combinations(VALUES, k)
]


def case_name(n: int, values: str) -> str:
    return f"n{n}-v{values.replace(',', '')}"


def record(n: int, values: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scan", "--n", str(n), "--values", values])
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def main_write() -> None:
    entries = [
        {"name": case_name(n, values), "n": n, "values": values,
         "outputs": record(n, values)}
        for n, values in CASES
    ]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main_write()

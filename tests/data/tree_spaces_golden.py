"""Golden corpus for the finite-tree CLI: pinned bytes of ``matrix``,
``iso`` and ``validate`` on seeded labeled trees.

``CASES`` holds seeded trees in the style of the tree-spaces benchmark
(random recursive trees on 24..40 vertices with about sixteen distinct
labels), plus n = 1, 2, 3, 5, 8 and 60, paths and stars, degenerate
labelings (edges with both endpoints at 0, and all-zero trees), constant
labels, and multi-character labels and vertex names, which set the text
table's column width.  Each case carries its tree, a copy with shuffled
vertex names, and a copy with one label changed.

``record`` writes the three trees and their distance matrices (computed
here by a direct path walk, not by the code under test) to a temporary
directory, runs the CLI in process on each command of ``COMMANDS`` and
returns the sha256 of its standard output and of its standard error, and
its exit code.

Regenerate the pinned file (only when an output change is intended, and
list every changed entry in CHANGES.md):

    PYTHONPATH=src python tests/data/tree_spaces_golden.py

``tests/test_tree_spaces_golden.py`` re-runs ``record`` on every case and
compares with ``tree_spaces_golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

from ultratree.cli import main

GOLDEN = Path(__file__).with_name("tree_spaces_golden.json")

# about sixteen distinct labels, 0 included (as in the benchmark's trees)
BENCH_LABELS = (
    [F(0)]
    + [F(1, k) for k in (8, 7, 6, 5, 4, 3, 2)]
    + [F(1), F(3, 2), F(2), F(5, 2), F(3), F(4), F(6), F(8)]
)
LONG_LABELS = [F(0), F(12345, 678), F(1, 1000003), F(987654321), F(22, 7)]
CONST_LABELS = [F(5, 3)]
ZERO_LABELS = [F(0)]
SMALL_LABELS = [F(0), F(1), F(2)]

# (tree file, second file or None); ``T`` is the tree, ``R`` its copy with
# shuffled names, ``X`` the copy with one label changed; ``M``, ``MR`` and
# ``MX`` their matrices
COMMANDS = (
    ("validate", "--tree", "T"),
    ("matrix", "--tree", "T"),
    ("matrix", "--tree", "T", "--json"),
    ("iso", "--tree", "T", "--tree", "R"),
    ("iso", "--tree", "T", "--tree", "X"),
    ("validate", "--space", "M"),
    ("iso", "--space", "M", "--space", "MR"),
    ("iso", "--space", "M", "--space", "MX", "--json"),
    ("iso", "--space", "M", "--space", "MR", "--json"),
)


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _tree(rng, n, pool, shape, prefix, nondegenerate):
    width = len(str(max(n - 1, 0)))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    if shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    else:
        parents = [rng.randrange(i) for i in range(1, n)]
    edges = [[names[p], names[i]] for i, p in zip(range(1, n), parents)]
    labels = {}
    positive = [x for x in pool if x > 0]
    for i, v in enumerate(names):
        x = rng.choice(pool)
        if nondegenerate and i and x == 0 and labels[names[parents[i - 1]]] == 0:
            x = rng.choice(positive)
        labels[v] = x
    return {"vertices": {v: fmt(labels[v]) for v in names}, "edges": edges}


def _case(name, seed, n, pool, shape="random", prefix="t", nondegenerate=True):
    rng = random.Random(f"tree-spaces-golden:{seed}")
    doc = _tree(rng, n, pool, shape, prefix, nondegenerate)
    old = list(doc["vertices"])
    new = [f"r{i}" for i in range(n)]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    copy = {
        "vertices": {rename[v]: doc["vertices"][v] for v in old},
        "edges": [[rename[u], rename[v]] for u, v in doc["edges"]],
    }
    changed = json.loads(json.dumps(doc))
    changed["vertices"][rng.choice(old)] = "1/9"  # absent from every pool
    return {"name": name, "tree": doc, "copy": copy, "changed": changed}


def _cases():
    cases = []
    for n in (1, 2, 3, 5, 8):
        for k in range(3):
            cases.append(_case(f"bench-n{n}-{k}", f"b{n}:{k}", n, BENCH_LABELS))
    for n in (24, 33, 40):
        for k in range(4):
            cases.append(_case(f"bench-n{n}-{k}", f"b{n}:{k}", n, BENCH_LABELS))
    cases.append(_case("bench-n60", "b60", 60, BENCH_LABELS))
    for n in (2, 3, 8, 24):
        cases.append(_case(f"degenerate-n{n}", f"d{n}", n, SMALL_LABELS,
                           nondegenerate=False))
        cases.append(_case(f"zero-n{n}", f"z{n}", n, ZERO_LABELS, nondegenerate=False))
    for shape in ("path", "star"):
        for n in (5, 24):
            cases.append(_case(f"{shape}-n{n}", f"{shape}{n}", n, BENCH_LABELS, shape))
            cases.append(_case(f"{shape}-const-n{n}", f"{shape}c{n}", n,
                               CONST_LABELS, shape))
    for n in (1, 3, 8, 33):
        cases.append(_case(f"long-labels-n{n}", f"l{n}", n, LONG_LABELS,
                           prefix="vertex_", nondegenerate=False))
    return cases


CASES = _cases()


def _matrix(doc: dict) -> dict:
    """The tree's distance matrix by a direct walk from every vertex."""
    labels = {v: F(x) for v, x in doc["vertices"].items()}
    adj = {v: [] for v in labels}
    for u, v in doc["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    pts = sorted(labels)
    rows = []
    for s in pts:
        best = {s: labels[s]}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in best:
                    best[y] = max(best[x], labels[y])
                    stack.append(y)
        rows.append([fmt(best[t]) if t != s else "0" for t in pts])
    return {"points": pts, "d": rows}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(case: dict) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for key, doc in (("T", case["tree"]), ("R", case["copy"]), ("X", case["changed"])):
            for name, payload in ((key, doc), ("M" + key, _matrix(doc))):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                files[name] = str(path)
        files["M"] = files.pop("MT")
        runs = []
        for command in COMMANDS:
            argv = [files.get(a, a) for a in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append({
                "command": " ".join(command),
                "exit": code,
                "stdout_sha256": _digest(out.getvalue()),
                "stderr_sha256": _digest(err.getvalue()),
            })
    return runs


def main_write() -> None:
    entries = [{"name": c["name"], "runs": record(c)} for c in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main_write()

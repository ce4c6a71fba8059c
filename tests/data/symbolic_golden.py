"""Golden corpus for the symbolic layer: documents plus their pinned outputs.

Every entry of ``CORPUS`` is a plain symbolic JSON document.  ``record``
runs the public symbolic questions on one document and returns their
outputs as JSON data; errors are recorded by type and message, so a
refusal is pinned as exactly as an answer.

Regenerate the pinned file (only when an output change is intended, and
list every changed entry in CHANGES.md):

    PYTHONPATH=src python tests/data/symbolic_golden.py

``tests/test_symbolic_golden.py`` re-runs ``record`` on every document and
compares with ``symbolic_golden.json``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from ultratree.classify import classify, free_predicates, isolated_points
from ultratree.errors import UltraTreeError
from ultratree.seqs import INFINITE
from ultratree.symbolic import count_vertices_geq, exceedance_bound, truncate
from ultratree.treeio import symbolic_from_json, symbolic_to_json, tree_to_json
from ultratree.witness import compact_labeling_witness, discrete_tb_labeling_witness

GOLDEN = Path(__file__).with_name("symbolic_golden.json")
EPS = ("1", "1/3", "1/10")
TRUNCATE_BUDGET = 3


# ---------------------------------------------------------------------------
# document helpers (they only build JSON dicts)


def seq(kind, **params):
    return {"kind": kind, **params}


def H(a):
    return seq("harmonic", a=a)


def C(c):
    return seq("const", c=c)


def G(a, r):
    return seq("geometric", a=a, r=r)


def P(a):
    return seq("prime_recip", a=a)


def FS(*prefix):
    return seq("finite_support", prefix=list(prefix))


def MOD(*seqs):
    return seq("modulated", period=len(seqs), seqs=list(seqs))


def REF(source, coeff=None):
    return {"$": source} if coeff is None else {"$": source, "coeff": coeff}


SITE, ENV = REF("site_label"), REF("envelope")


def ray(labels):
    return {"kind": "ray", "labels": labels}


def star(center, leaves):
    return {"kind": "star", "center": center, "leaves": leaves}


def finite(vertices, edges):
    return {"kind": "finite", "tree": {"vertices": vertices, "edges": edges}}


def att(site, part, shared=None):
    out = {"site": site, "part": part}
    if shared is not None:
        out["shared"] = shared
    return out


def glue(base, *attachments):
    return {"kind": "glue_finite", "base": base, "attachments": list(attachments)}


def family(base, sites, template, shared, envelope):
    return {"kind": "glue_family", "base": base, "sites": sites,
            "template": template, "shared": shared, "envelope": envelope}


def scaled(inner, factor):
    return {"kind": "scaled", "inner": inner, "factor": factor}


def edge_part(a="0", b="1"):
    return finite({"a": a, "b": b}, [["a", "b"]])


# ---------------------------------------------------------------------------
# the corpus

CORPUS: list[tuple[str, dict]] = [
    # the eight shapes of the benchmark's symbolic workload (both glue-finite
    # variants), with one fixed parameter choice each
    ("bench-fig10-like", family(ray(MOD(H("3/2"), C("0"))), "even",
                                star("0", H(ENV)), "center", H("1/3"))),
    ("bench-fig1-like", family(star("0", P("1/2")), "leaves",
                               star("0", G(SITE, SITE)), "leaf:1", P("1/2"))),
    ("bench-scaled-ray", scaled(ray(MOD(FS("1", "1/2", "1/3"), G("2", "2/3"))), "5/2")),
    ("bench-star", star("0", MOD(H("2"), P("3/2")))),
    ("bench-glue-finite", glue(ray(H("1")), att(
        "ray:2", finite({"s": "1/2", "t": "1/4", "u": "3/5"}, [["s", "t"], ["t", "u"]]),
        "vertex:s"))),
    ("bench-glue-finite-star", glue(
        ray(H("2")),
        att("ray:2", finite({"s": "1", "t": "2/7", "u": "1"}, [["s", "t"], ["t", "u"]]),
            "vertex:s"),
        att("ray:3", star("2/3", G("2/5", "1/2")), "center"))),
    ("bench-lf-family", family(ray(MOD(H("1/2"), C("0"))), "even",
                               edge_part("0", "1/3"), "vertex:a", C("1"))),
    ("bench-loose-family", family(ray(H("1")), "all",
                                  star(SITE, H(SITE)), "center", H("1"))),
    ("bench-scaled-fig1", scaled(family(star("0", P("3/2")), "leaves",
                                        star("0", G(SITE, SITE)), "leaf:1", P("3/2")),
                                 "1/3")),
    # the built-in constructions
    ("fig1", family(star("0", P("1")), "leaves", star("0", G(SITE, SITE)),
                    "leaf:1", P("1"))),
    ("fig10", family(ray(MOD(H("1"), C("0"))), "even", star("0", H(ENV)),
                     "center", H("1/2"))),
    # single constructors
    ("ray-harmonic", ray(H("1"))),
    ("ray-geometric", ray(G("1", "1/2"))),
    ("ray-prime-recip", ray(P("2"))),
    ("ray-alternating-zero", ray(MOD(C("1"), C("0")))),
    ("ray-degenerate", ray(MOD(C("0"), C("0")))),
    ("ray-custom", ray(seq("custom", prefix=["1/2", "1/4"], limsup="1", liminf="1/2",
                           inf="1/4", vanishes=False))),
    ("star-accumulation", star("0", H("1"))),
    ("star-const-leaves", star("0", C("1"))),
    ("star-positive-finite-support", star("1/2", FS("1", "1/2"))),
    ("finite-path", finite({"a": "1/3", "b": "0", "c": "2"}, [["a", "b"], ["b", "c"]])),
    ("finite-degenerate", finite({"a": "0", "b": "0"}, [["a", "b"]])),
    # scaled labels
    ("scaled-star-positive-center", scaled(star("1", H("1")), "2")),
    ("scaled-const-ray", scaled(ray(C("1")), "3")),
    ("scaled-zero-center-star", scaled(star("0", H("1")), "1/2")),
    ("scaled-twice", scaled(scaled(star("1/2", C("1/4")), "2"), "3")),
    # finite gluings
    ("two-attachments-one-site", glue(
        ray(MOD(H("1"), C("0"))),
        att("ray:2", edge_part("0", "1/2"), "vertex:a"),
        att("ray:2", edge_part("0", "1/3"), "vertex:a"))),
    ("two-stars-one-site", glue(
        finite({"x": "0", "y": "1"}, [["x", "y"]]),
        att("vertex:x", star("0", H("1"))),
        att("vertex:x", star("0", C("1/2"))))),
    ("star-center-to-center", glue(star("0", H("1")), att("center", star("0", G("1", "1/2")), "center"))),
    ("star-center-to-center-positive", glue(star("1", C("1")), att("center", star("1", H("1")), "center"))),
    ("stars-on-adjacent-ray-vertices", glue(
        ray(C("1")), att("ray:1", star("1", H("1"))), att("ray:2", star("1", C("1"))))),
    ("star-leaves-with-parts", glue(
        star("0", H("1")), att("leaf:1", edge_part("1", "1/5"), "vertex:a"),
        att("leaf:3", ray(H("1/3")), "ray:1"))),
    ("finite-base-with-ray", glue(finite({"r": "1", "s": "0"}, [["r", "s"]]),
                                  att("vertex:r", ray(C("1"))))),
    ("ray-base-star-by-leaf", glue(ray(H("1")), att("ray:1", star("0", H("1")), "leaf:1"))),
    ("site-inside-base-part", glue(
        glue(ray(H("1")), att("ray:2", edge_part("1/2", "1/4"), "vertex:a")),
        att("attach:0/vertex:b", star("1/4", H("1/8")), "center"))),
    ("vertex-glued-two-levels", glue(
        glue(star("0", H("1")), att("center", edge_part("0", "1/2"), "vertex:a")),
        att("base/center", star("0", G("1", "1/2")), "center"))),
    ("vertex-glued-two-levels-stars", glue(
        glue(star("0", H("1")), att("center", star("0", C("1/2")), "center")),
        att("base/center", star("0", G("1", "1/2")), "center"))),
    ("scaled-glue-finite", scaled(glue(star("1/2", H("1/2")),
                                       att("leaf:2", edge_part("1/4", "1"), "vertex:a")), "2")),
    # glued families
    ("family-star-base-center-shared", family(star("0", H("1")), "leaves",
                                              star(SITE, H(SITE)), "center", H("1"))),
    ("family-star-base-finite-template", family(star("0", C("1")), "leaves",
                                                edge_part("1", "1/2"),
                                                "vertex:a", C("1"))),
    ("family-odd-sites", family(ray(MOD(C("0"), H("1"))), "odd",
                                edge_part("0", "1"), "vertex:a", C("1"))),
    ("family-ray-template", family(ray(H("1")), "all", ray(H(SITE)), "ray:1", H("1"))),
    ("family-scaled-template", family(star("0", H("1")), "leaves",
                                      scaled(star("0", H("1")), SITE),
                                      "leaf:1", H("1"))),
    ("family-glue-template", family(
        ray(MOD(H("1"), C("0"))), "even",
        glue(star("0", H(ENV)), att("leaf:1", edge_part("1", "1/3"), "vertex:a")),
        "base/center", C("1"))),
    ("family-template-shared-in-part", family(
        ray(MOD(H("1"), C("0"))), "even",
        glue(edge_part("1/3", "1/2"), att("vertex:b", star("0", C("1/2")), "leaf:1")),
        "attach:0/center", C("1"))),
    ("family-nested", family(
        ray(MOD(H("1"), C("0"))), "even",
        family(star("0", H(ENV)), "leaves", star(SITE, H(SITE)), "center", H(ENV)),
        "base/center", H("1/2"))),
    ("family-nested-under-loose-envelope", family(
        ray(C("1")), "all",
        family(star(SITE, C("1")), "leaves", edge_part("1", "1/2"), "vertex:a", C("1")),
        "base/center", C("1"))),
    ("family-loose-modulated-base", family(
        ray(MOD(H("1"), C("1/2"))), "all", star(SITE, H(SITE)), "center",
        MOD(H("1"), C("1/2")))),
    ("family-star-centers-on-all-ray", family(ray(C("1")), "all", star(SITE, H("1")),
                                              "center", C("1"))),
    ("scaled-fig10", scaled(family(ray(MOD(H("1"), C("0"))), "even", star("0", H(ENV)),
                                   "center", H("1/2")), "3")),
    ("glue-finite-on-family", glue(
        family(ray(MOD(H("1"), C("0"))), "even", edge_part("0", "1"), "vertex:a", C("1")),
        att("base/ray:1", star("1", H("1")), "center"),
        att("member:2/vertex:b", star("1", C("1/2")), "center"))),
    ("unknown-glue-address", family(
        star("0", H("1")), "leaves",
        glue(star("0", H("1")), att("leaf:1", edge_part("0", "1"), "vertex:b")),
        "center", H("1"))),
]


# ---------------------------------------------------------------------------
# pinned outputs


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _guard(fn):
    try:
        return fn()
    except UltraTreeError as exc:
        return _error(exc)


def _count(value):
    return "INFINITE" if value is INFINITE else value


def _witness(make, node):
    w = make(node)
    return {
        "tree": symbolic_to_json(w.tree),
        "verdict": asdict(w.verdict),
        "summary": w.summary,
    }


def record(doc: dict) -> dict:
    """Every pinned output for one document, as JSON data."""
    try:
        node = symbolic_from_json(doc)
    except UltraTreeError as exc:
        return {"load": _error(exc)}
    as_json = symbolic_to_json(node)
    return {
        "json": as_json,
        "json_roundtrip_stable": symbolic_to_json(symbolic_from_json(as_json)) == as_json,
        "classify": _guard(lambda: asdict(classify(node))),
        "free_predicates": _guard(lambda: asdict(free_predicates(node))),
        "isolated_points": _guard(lambda: asdict(isolated_points(node))),
        "count_vertices_geq": {
            e: _guard(lambda e=e: _count(count_vertices_geq(node, Fraction(e))))
            for e in EPS
        },
        "exceedance_bound": {
            e: _guard(lambda e=e: _count(exceedance_bound(node, Fraction(e))))
            for e in EPS
        },
        f"truncate_{TRUNCATE_BUDGET}": _guard(
            lambda: tree_to_json(truncate(node, TRUNCATE_BUDGET)[0])
        ),
        "compact_witness": _guard(lambda: _witness(compact_labeling_witness, node)),
        "discrete_tb_witness": _guard(
            lambda: _witness(discrete_tb_labeling_witness, node)
        ),
    }


def normalize(data):
    """JSON-shaped copy (tuples become lists), as stored in the golden file."""
    return json.loads(json.dumps(data))


def build() -> list[dict]:
    return [
        {"name": name, "doc": doc, "outputs": normalize(record(doc))}
        for name, doc in CORPUS
    ]


def main() -> int:
    GOLDEN.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CORPUS)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generators.

Every generator returns plain JSON-shaped documents (the formats the README
documents), so the program under test only ever sees generated inputs.  The
same seed always gives the same documents.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

# About sixteen distinct labels, 0 included, spanning two orders of magnitude.
TREE_LABELS = (
    [F(0)]
    + [F(1, k) for k in (8, 7, 6, 5, 4, 3, 2)]
    + [F(1), F(3, 2), F(2), F(5, 2), F(3), F(4), F(6), F(8)]
)


def fmt(x: F) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _nondegenerate_labels(rng, names, parent_of, pool):
    """Labels from ``pool``; a zero child of a zero parent gets a positive
    label, so no edge has both endpoints at 0."""
    positive = [x for x in pool if x > 0]
    labels = {}
    for v in names:
        x = rng.choice(pool)
        p = parent_of.get(v)
        if x == 0 and p is not None and labels[p] == 0:
            x = rng.choice(positive)
        labels[v] = x
    return labels


def big_tree_doc(seed: int, n: int = 50_000) -> dict:
    """Tree with long chains (paths hundreds of vertices deep) hung off a few
    high-degree hubs and off random earlier vertices (bushy parts)."""
    rng = random.Random(seed)
    names = [f"v{i:05d}" for i in range(n)]
    hubs = [0]
    parent_of = {}
    edges = []
    for i in range(1, n):
        r = rng.random()
        if r < 0.93:
            p = i - 1  # extend the current chain
        elif r < 0.97:
            p = rng.choice(hubs)
        else:
            p = rng.randrange(i)
        if r >= 0.97 and len(hubs) < 32:
            hubs.append(i)
        parent_of[names[i]] = names[p]
        edges.append([names[p], names[i]])
    labels = _nondegenerate_labels(rng, names, parent_of, TREE_LABELS)
    order = list(range(len(edges)))
    rng.shuffle(order)
    return {
        "vertices": {v: fmt(labels[v]) for v in names},
        "edges": [edges[k] for k in order],
    }


def small_tree_doc(rng: random.Random, n: int) -> dict:
    """Random recursive tree on ``n`` vertices with labels from TREE_LABELS."""
    width = len(str(n - 1))
    names = [f"t{i:0{width}d}" for i in range(n)]
    parent_of = {}
    edges = []
    for i in range(1, n):
        p = names[rng.randrange(i)]
        parent_of[names[i]] = p
        edges.append([p, names[i]])
    labels = _nondegenerate_labels(rng, names, parent_of, TREE_LABELS)
    return {"vertices": {v: fmt(labels[v]) for v in names}, "edges": edges}


def relabeled_copy(rng: random.Random, doc: dict) -> dict:
    """The same labeled tree under fresh vertex names, edges shuffled."""
    names = list(doc["vertices"])
    width = len(str(len(names) - 1))
    fresh = [f"r{i:0{width}d}" for i in range(len(names))]
    rng.shuffle(fresh)
    ren = dict(zip(names, fresh))
    edges = [[ren[v], ren[u]] for u, v in doc["edges"]]
    rng.shuffle(edges)
    return {"vertices": {ren[v]: x for v, x in doc["vertices"].items()}, "edges": edges}


def scan_values(rng: random.Random, k: int) -> list[F]:
    """``k`` distinct positive rationals with small numerators and denominators."""
    vals: set[F] = set()
    while len(vals) < k:
        vals.add(F(rng.randint(1, 9), rng.randint(1, 9)))
    return sorted(vals)


# ---------------------------------------------------------------------------
# symbolic documents


def _seq(kind: str, **params) -> dict:
    return {"kind": kind, **{k: (fmt(v) if isinstance(v, (int, F)) else v) for k, v in params.items()}}


def _ref(source: str) -> dict:
    return {"$": source}


class SymbolicDoc:
    """One symbolic document plus what the generator knows about its shape."""

    def __init__(self, shape, doc, scale, has_ray, has_star, size_of):
        self.shape = shape
        self.doc = doc
        self.scale = scale  # largest label order; eps values are taken below it
        self.has_ray = has_ray
        self.has_star = has_star
        self.size_of = size_of  # budget -> approximate truncation size

    def budget_for(self, target: int) -> int:
        b = 1
        while self.size_of(b) < target:
            b += 1
        return b


def _fig10_like(rng):
    a = rng.choice([F(1), F(2), F(1, 2), F(3, 2)])
    b = rng.choice([F(1, 2), F(1), F(1, 3)])
    doc = {
        "kind": "glue_family",
        "base": {"kind": "ray", "labels": {"kind": "modulated", "period": 2,
                                            "seqs": [_seq("harmonic", a=a), _seq("const", c=0)]}},
        "sites": "even",
        "template": {"kind": "star", "center": "0",
                     "leaves": {"kind": "harmonic", "a": _ref("envelope")}},
        "shared": "center",
        "envelope": _seq("harmonic", a=b),
    }
    return SymbolicDoc("fig10-like", doc, max(a, b), True, True, lambda B: B + (B // 2) * B)


def _fig1_doc(a):
    return {
        "kind": "glue_family",
        "base": {"kind": "star", "center": "0", "leaves": _seq("prime_recip", a=a)},
        "sites": "leaves",
        "template": {"kind": "star", "center": "0",
                     "leaves": {"kind": "geometric", "a": _ref("site_label"), "r": _ref("site_label")}},
        "shared": "leaf:1",
        "envelope": _seq("prime_recip", a=a),
    }


def _fig1_like(rng):
    a = rng.choice([F(1), F(1, 2), F(3, 2), F(1, 3)])
    return SymbolicDoc("fig1-like", _fig1_doc(a), a / 2, False, True, lambda B: 1 + B + B * (B - 1))


def _scaled_fig1(rng):
    a = rng.choice([F(1), F(1, 2), F(3, 2)])
    f = rng.choice([F(2), F(1, 3), F(5, 2)])
    doc = {"kind": "scaled", "inner": _fig1_doc(a), "factor": fmt(f)}
    return SymbolicDoc("scaled-fig1", doc, f * a / 2, False, True, lambda B: 1 + B + B * (B - 1))


def _scaled_ray(rng):
    a = rng.choice([F(1), F(2), F(1, 2)])
    r = rng.choice([F(1, 2), F(2, 3), F(3, 4)])
    f = rng.choice([F(2), F(1, 3), F(5, 2)])
    prefix = [fmt(F(1, k)) for k in range(1, rng.randint(3, 6))]
    labels = {"kind": "modulated", "period": 2,
              "seqs": [{"kind": "finite_support", "prefix": prefix}, _seq("geometric", a=a, r=r)]}
    doc = {"kind": "scaled", "inner": {"kind": "ray", "labels": labels}, "factor": fmt(f)}
    return SymbolicDoc("scaled-ray", doc, f * max(a, F(1)), True, False, lambda B: B)


def _plain_star(rng):
    a = rng.choice([F(1), F(2), F(1, 2)])
    b = rng.choice([F(1), F(1, 3), F(3, 2)])
    leaves = {"kind": "modulated", "period": 2,
              "seqs": [_seq("harmonic", a=a), _seq("prime_recip", a=b)]}
    doc = {"kind": "star", "center": "0", "leaves": leaves}
    return SymbolicDoc("star", doc, max(a, b / 2), False, True, lambda B: 1 + B)


def _glue_finite(rng):
    a = rng.choice([F(1), F(2), F(1, 2)])
    with_star = rng.random() < 0.5
    x, y = rng.choice([F(1, 4), F(1, 5), F(2, 7)]), rng.choice([F(1, 3), F(3, 5), F(1)])
    part = {"kind": "finite", "tree": {
        "vertices": {"s": fmt(a / 2), "t": fmt(x), "u": fmt(y)},
        "edges": [["s", "t"], ["t", "u"]]}}
    attachments = [{"site": "ray:2", "part": part, "shared": "vertex:s"}]
    if with_star:
        star = {"kind": "star", "center": fmt(a / 3),
                "leaves": _seq("geometric", a=a / 5, r=F(1, 2))}
        attachments.append({"site": "ray:3", "part": star, "shared": "center"})
    doc = {"kind": "glue_finite",
           "base": {"kind": "ray", "labels": _seq("harmonic", a=a)},
           "attachments": attachments}
    size = (lambda B: 2 * B + 2) if with_star else (lambda B: B + 2)
    return SymbolicDoc("glue-finite", doc, max(a, y), True, with_star, size)


def _lf_family(rng):
    a = rng.choice([F(1), F(2), F(1, 2)])
    w = rng.choice([F(1), F(1, 2), F(1, 3)])
    doc = {
        "kind": "glue_family",
        "base": {"kind": "ray", "labels": {"kind": "modulated", "period": 2,
                                            "seqs": [_seq("harmonic", a=a), _seq("const", c=0)]}},
        "sites": "even",
        "template": {"kind": "finite", "tree": {"vertices": {"a": "0", "b": fmt(w)},
                                                "edges": [["a", "b"]]}},
        "shared": "vertex:a",
        "envelope": _seq("const", c=1),
    }
    return SymbolicDoc("lf-family", doc, max(a, w), True, False, lambda B: B + B // 2)


def _loose_family(rng):
    a = rng.choice([F(1), F(1, 2), F(2)])
    doc = {
        "kind": "glue_family",
        "base": {"kind": "ray", "labels": _seq("harmonic", a=a)},
        "sites": "all",
        "template": {"kind": "star", "center": _ref("site_label"),
                     "leaves": {"kind": "harmonic", "a": _ref("site_label")}},
        "shared": "center",
        "envelope": _seq("harmonic", a=a),
    }
    return SymbolicDoc("loose-family", doc, a, True, True, lambda B: B + B * B)


# One round of the symbolic workload: each shape with its truncation target
# (vertices).  Targets stay inside 10^3..10^4 and are fixed per shape, so the
# per-job cost depends on the shape, not on the seed.
SYMBOLIC_ROUND = (
    (_fig10_like, 3000),
    (_fig1_like, 2000),
    (_scaled_ray, 3000),
    (_plain_star, 2000),
    (_glue_finite, 3000),
    (_lf_family, 3000),
    (_loose_family, 2000),
    (_scaled_fig1, 1500),
)


def symbolic_doc(rng: random.Random, slot: int) -> tuple[SymbolicDoc, int]:
    make, target = SYMBOLIC_ROUND[slot % len(SYMBOLIC_ROUND)]
    return make(rng), target

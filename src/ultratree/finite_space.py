"""Sphere-plus-center predicate, tree representability, and the exhaustive
scan relating the two over all small ultrametric spaces.

The predicate asks: is every distinct open ball B of the space expressible
as B = {x : d(x, c) = r} ∪ {c} for some center c in B and radius r > 0?
It is computed from the matrix alone, one sorted row per point: the open
balls around a point are the prefixes of its row sorted by distance, and a
ball of two or more points passes iff one of its points is at one positive
distance from all the others.

Representability asks: is there a labeled tree on exactly the point set
whose generated path-maximum distance reproduces the matrix entrywise?  It
is read off the dendrogram (``spaces.canonical_hierarchy``) in O(n^2): a
witness exists iff the space is proper and every dendrogram node has a
leaf child.  ``enumerate_spaces`` generates each dendrogram shape, hence
each isometry class, exactly once, after counting the classes' matrix
entries against ``ENUMERATE_ENTRY_CAP``.  The predicate never reads the
dendrogram, so the scan's agreement tally compares two separate
implementations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .core_tree import LabeledTree, _freeze
from .errors import InvalidDeclaration, SizeCapExceeded
from .ratio import format_rational, parse_rational
from .spaces import (
    Ball,
    Hierarchy,
    UltraSpace,
    canonical_hierarchy,
    space_from_hierarchy,
)

# one n x n matrix per class: the cap bounds classes x n^2, so it holds at
# any n, also when one value gives one class
ENUMERATE_ENTRY_CAP = 1_000_000


# ---------------------------------------------------------------------------
# sphere-plus-center predicate


def conjecture_predicate(space: UltraSpace) -> tuple[bool, Ball | None]:
    """True iff every distinct open ball is a sphere plus its center.

    Returns (verdict, first failing ball or None), balls ordered by (size,
    sorted member names) as :func:`~ultratree.spaces.balls` lists them.  The
    failing ball's witness is the one ``balls`` picks: the first center in
    point order, with the smallest candidate radius (an attained distance,
    or one above the maximum) that yields its members.

    Read off the matrix in O(n^2 log n).  The open balls around c are the
    prefixes of c's row sorted by distance, cut between distinct values.
    Balls of a (pseudo)ultrametric are nested or disjoint, so a ball is
    fixed by its lowest point index and its size.  A ball B of two or more
    points is {x : d(x, c) = r} ∪ {c} iff c ∈ B is at one distance r > 0
    from every other point of B: points outside B are farther from c than
    any point inside.  That distance is then B's diameter, so c's nearest
    other point is at the diameter.  Singleton balls pass with an empty
    sphere.
    """
    pts = space.points
    n = len(pts)
    vals = sorted({e for row in space.dist for e in row})  # vals[0] == 0
    rank = {v: i for i, v in enumerate(vals)}
    nearest = []  # rank of the distance from each point to its nearest other
    found: dict[tuple[int, int], tuple[int, int, list[int]]] = {}
    for c, drow in enumerate(space.dist):
        row = [rank[e] for e in drow]
        order = sorted(range(n), key=row.__getitem__)
        nearest.append(row[order[1]] if n > 1 else 0)
        low = n
        for k, p in enumerate(order, 1):
            if p < low:
                low = p
            if (k == n or row[order[k]] != row[p]) and (low, k) not in found:
                found[low, k] = (c, row[p], order[:k])
    failing: tuple[int, tuple[str, ...], int, int] | None = None
    for (_, size), (c, top, members) in found.items():
        if size == 1 or (top and any(nearest[m] == top for m in members)):
            continue
        key = (size, tuple(sorted(pts[m] for m in members)), c, top)
        if failing is None or key < failing:
            failing = key
    if failing is None:
        return True, None
    _, names, c, top = failing
    radius = vals[top + 1] if top + 1 < len(vals) else vals[-1] + 1
    return False, Ball(center=pts[c], radius=radius, members=names)


# ---------------------------------------------------------------------------
# representability by a labeled tree on the point set


def representable(space: UltraSpace) -> LabeledTree | None:
    """A labeled tree on exactly the point set whose generated distance
    matrix equals the space's matrix, or None if there is none.

    Such a tree exists iff the space is proper and every node of its
    dendrogram has a leaf child.  Necessary: in a generating tree a node's
    cluster is a subtree, some point of it carries the cluster's diameter as
    its label, and that point is at that distance from all the others, so it
    is a leaf child.  Sufficient: label each point with its nearest-neighbour distance and
    join one leaf child of each node (its hub) to the node's other leaf
    children and to the hub of each non-leaf child; the largest label on a
    path between two children of a node is then the node's value.
    """
    if not space.proper:
        return None
    return _witness(space, canonical_hierarchy(space))


def _witness(space: UltraSpace, root: Hierarchy) -> LabeledTree | None:
    """:func:`representable` on a proper space whose dendrogram ``root`` is
    already built."""
    if root.is_leaf:
        return _freeze([root.point], [], {root.point: Fraction(0)})
    labels: dict[str, Fraction] = {}
    edges: list[tuple[str, str]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        hub = node.children[0]  # leaves sort first
        if not hub.is_leaf:
            return None
        for c in node.children:
            if c.is_leaf:
                labels[c.point] = node.value
            else:
                stack.append(c)
            if c is not hub:
                # a non-leaf child's hub is its first child, checked when popped
                other = c if c.is_leaf else c.children[0]
                edges.append((hub.point, other.point))
    return _freeze(space.points, edges, labels)


# ---------------------------------------------------------------------------
# enumeration of all small spaces up to isometry

_LEAF = Hierarchy(Fraction(0), point="x")


def _runs(k: int, sizes: list[int]):
    """Partitions of k into parts from ``sizes`` (descending), each as its
    (part, multiplicity) runs, largest part first.  The recursion is one level
    per distinct part, at most sqrt(2k) deep."""
    if k == 0:
        yield ()
        return
    for i, s in enumerate(sizes):
        rest = sizes[i + 1 :]
        if not rest:  # the last part must fill what is left
            if k % s == 0:
                yield ((s, k // s),)
            continue
        for m in range(k // s, 0, -1):
            for tail in _runs(k - m * s, rest):
                yield ((s, m),) + tail


def _stage_sizes(below: list, k: int) -> list[int]:
    """Child sizes for a node on k points: those below k with a shape."""
    return [s for s in range(k - 1, 0, -1) if below[s]]


def _count_classes(n: int, vals: list[Fraction]) -> int:
    """The number of classes :func:`_classes` generates, by its recursion
    with counts for lists: a run of m equal-size children drawn from b shapes
    is one of C(b + m - 1, m) multisets.

    The count never falls as n or the value set grows (a leaf added under
    the root maps the classes on k points into those on k + 1), and neither
    do the k^2 matrix entries per class, so the first entry count (classes
    times k^2) past ENUMERATE_ENTRY_CAP refuses the enumeration.  The error
    names the entry count on n points, or a lower bound for it when fewer
    points or values already pass the cap.
    """
    below = [0, 1] + [0] * (n - 1)
    for j in range(len(vals)):
        at_v = [0] * (n + 1)
        for k in range(2, n + 1):
            at_v[k] = sum(
                prod(comb(below[s] + m - 1, m) for s, m in runs)
                for runs in _runs(k, _stage_sizes(below, k))
            )
            entries = (below[k] + at_v[k]) * k * k
            if entries > ENUMERATE_ENTRY_CAP:
                exact = k == n and j == len(vals) - 1
                what = "matrix entries" if exact else "matrix entries, lower bound"
                raise SizeCapExceeded(
                    entries, ENUMERATE_ENTRY_CAP, f"space enumeration ({what})"
                )
        below = [b + a for b, a in zip(below, at_v)]
    return below[n]


def _classes(n: int, values: list[Fraction]):
    """Yield (encoding, dendrogram) for every isometry class of spaces on n
    points with distances from ``values``, in encoding order.

    ``values`` are read by :func:`~ultratree.ratio.parse_rational`, so a
    float or a bool raises InvalidDeclaration.

    Each class is one dendrogram shape, generated once: a node with value v
    takes a multiset of at least two children whose sizes sum to its own
    and whose values are below v.  Siblings are sorted by shape, so naming
    the leaves in leaf order gives the dendrogram ``canonical_hierarchy``
    builds for :func:`space_from_hierarchy` of the shape.  Every leaf is
    named ``"x"``.
    """
    if n < 1:
        raise InvalidDeclaration(f"n must be at least 1, got {n}")
    vals = sorted({parse_rational(v) for v in values})
    if vals and vals[0] <= 0:
        raise InvalidDeclaration(
            f"values must be positive, got {format_rational(vals[0])}"
        )
    _count_classes(n, vals)
    # below[k]: the shapes on k points whose values are all below the value
    # being placed; grown one value at a time
    below: list[list[Hierarchy]] = [[], [_LEAF]] + [[] for _ in range(n - 1)]
    for v in vals:
        at_v: list[list[Hierarchy]] = [[] for _ in range(n + 1)]
        for k in range(2, n + 1):
            for runs in _runs(k, _stage_sizes(below, k)):
                picks = [
                    itertools.combinations_with_replacement(below[s], m)
                    for s, m in runs
                ]
                for pick in itertools.product(*picks):
                    kids = sorted(
                        (c for run in pick for c in run), key=lambda c: c.shape
                    )
                    at_v[k].append(Hierarchy(v, children=tuple(kids)))
        for k in range(n + 1):
            below[k] += at_v[k]
    yield from sorted(((h.encode(), h) for h in below[n]), key=lambda e: e[0])


def enumerate_spaces(n: int, values: list[Fraction]) -> list[UltraSpace]:
    """All ultrametric spaces on n points with distances from ``values``,
    one representative per isometry class, in canonical-encoding order.

    Raises SizeCapExceeded, before generating anything, when the classes'
    matrices hold more than ENUMERATE_ENTRY_CAP entries in all.
    """
    return [space_from_hierarchy(h) for _, h in _classes(n, values)]


def _name_leaves(node: Hierarchy, names) -> Hierarchy:
    """A copy of ``node`` with its leaves named from the iterator ``names``
    in leaf order.  The recursion is one level per dendrogram level, at most
    one per distance value."""
    if node.is_leaf:
        return Hierarchy(node.value, point=next(names))
    kids = tuple(_name_leaves(c, names) for c in node.children)
    return Hierarchy(node.value, children=kids)


# ---------------------------------------------------------------------------
# the scan harness


@dataclass(frozen=True)
class ScanRecord:
    space_id: str
    canonical_hierarchy: str
    predicate: bool
    failing_ball: Ball | None
    representable: bool
    witness_tree: LabeledTree | None


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]
    disagreements: tuple[str, ...]  # space_ids where predicate != representable
    agree_count: int
    disagree_count: int


def conjecture_scan(n: int, values: list[Fraction]) -> ScanReport:
    """Evaluate the sphere-plus-center predicate and representability on
    every isometry class of spaces; report every disagreement (a would-be
    counterexample).  Records are in canonical-encoding order."""
    records = []
    for i, (code, shape) in enumerate(_classes(n, values)):
        space = space_from_hierarchy(shape)
        pred, failing = conjecture_predicate(space)
        # the enumerator's dendrogram, named, is the space's canonical one;
        # enumerated spaces are proper, since every value is positive
        tree = _witness(space, _name_leaves(shape, iter(space.points)))
        records.append(ScanRecord(
            space_id=f"n{n}-{i:03d}",
            canonical_hierarchy=code,
            predicate=pred,
            failing_ball=failing,
            representable=tree is not None,
            witness_tree=tree,
        ))
    disagreements = tuple(
        r.space_id for r in records if r.predicate != r.representable
    )
    return ScanReport(
        records=tuple(records),
        disagreements=disagreements,
        agree_count=len(records) - len(disagreements),
        disagree_count=len(disagreements),
    )

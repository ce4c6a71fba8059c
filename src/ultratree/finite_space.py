"""Sphere-plus-center predicate, tree representability, and the exhaustive
scan relating the two over all small ultrametric spaces.

The predicate asks: is every distinct open ball B of the space expressible
as B = {x : d(x, c) = r} ∪ {c} for some center c in B and radius r > 0?

Representability asks: is there a labeled tree on exactly the point set
whose generated path-maximum distance reproduces the matrix entrywise?  It
is read off the dendrogram (``spaces.canonical_hierarchy``) in O(n^2): a
witness exists iff the space is proper and every dendrogram node has a
leaf child.  ``enumerate_spaces`` generates each dendrogram shape, hence
each isometry class, exactly once.  The predicate is computed from balls
and spheres independently, so the scan's agreement tally compares two
separate implementations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core_tree import LabeledTree, build_tree
from .errors import InvalidDeclaration, SizeCapExceeded
from .ratio import format_rational
from .spaces import (
    Ball,
    Hierarchy,
    UltraSpace,
    balls,
    canonical_hierarchy,
    space_from_hierarchy,
    sphere,
)

ENUMERATE_POINT_CAP = 6
ENUMERATE_VALUE_CAP = 4


# ---------------------------------------------------------------------------
# sphere-plus-center predicate


def conjecture_predicate(space: UltraSpace) -> tuple[bool, Ball | None]:
    """True iff every distinct open ball is a sphere plus its center.

    Returns (verdict, first failing ball or None).  Radii candidates are the
    attained distances plus one above the maximum (an empty sphere realizes
    singleton balls).
    """
    att = space.attained()
    radii = att + [att[-1] + 1] if att else [Fraction(1)]
    for ball in balls(space):
        want = set(ball.members)
        ok = False
        for c in ball.members:
            for r in radii:
                if set(sphere(space, c, r)) | {c} == want:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False, ball
    return True, None


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
        return build_tree([root.point], [], {root.point: Fraction(0)})
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
    return build_tree(space.points, edges, labels)


# ---------------------------------------------------------------------------
# enumeration of all small spaces up to isometry

_LEAF = Hierarchy(Fraction(0), point="x")


def _partitions(k: int, most: int):
    """Integer partitions of k into parts of at most ``most``, largest first."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, most), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def enumerate_spaces(n: int, values: list[Fraction]) -> list[UltraSpace]:
    """All ultrametric spaces on n points with distances from ``values``,
    one representative per isometry class, in canonical-encoding order.

    Each class is one dendrogram shape, generated once: a node with value v
    takes a multiset of at least two children whose sizes sum to its own
    and whose values are below v.
    """
    if n < 1:
        raise InvalidDeclaration(f"n must be at least 1, got {n}")
    if n > ENUMERATE_POINT_CAP:
        raise SizeCapExceeded(n, ENUMERATE_POINT_CAP, "space enumeration")
    vals = sorted({Fraction(v) for v in values})
    if vals and vals[0] <= 0:
        raise InvalidDeclaration(
            f"values must be positive, got {format_rational(vals[0])}"
        )
    if len(vals) > ENUMERATE_VALUE_CAP:
        raise SizeCapExceeded(len(vals), ENUMERATE_VALUE_CAP, "distance value set")
    # below[k]: the shapes on k points whose values are all below the value
    # being placed; grown one value at a time
    below: list[list[Hierarchy]] = [[], [_LEAF]] + [[] for _ in range(n - 1)]
    for v in vals:
        at_v: list[list[Hierarchy]] = [[] for _ in range(n + 1)]
        for k in range(2, n + 1):
            for sizes in _partitions(k, k - 1):
                runs = [
                    itertools.combinations_with_replacement(below[s], len(list(g)))
                    for s, g in itertools.groupby(sizes)
                ]
                for pick in itertools.product(*runs):
                    kids = sorted(
                        (c for run in pick for c in run), key=lambda c: c.shape
                    )
                    at_v[k].append(Hierarchy(v, children=tuple(kids)))
        for k in range(n + 1):
            below[k] += at_v[k]
    return [space_from_hierarchy(h) for h in sorted(below[n], key=Hierarchy.encode)]


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
    for i, space in enumerate(enumerate_spaces(n, values)):
        pred, failing = conjecture_predicate(space)
        root = canonical_hierarchy(space)
        tree = _witness(space, root) if space.proper else None
        records.append(ScanRecord(
            space_id=f"n{n}-{i:03d}",
            canonical_hierarchy=root.encode(),
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

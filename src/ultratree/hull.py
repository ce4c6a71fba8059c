"""Convex hulls of vertex sets and attachment points.

The hull of a nonempty vertex set A is the smallest subtree containing A:
the union of the pairwise paths, computed here as the union of paths from a
fixed anchor (smallest element of A) to every other element.  A vertex v
outside a subtree S reaches S through a unique first vertex, its attachment
point; the pair (v, attachment) is the comb-tooth picture: the tooth hangs
off the spine at its root.

Both run on the tree's one cached O(n) rooting: each path costs O(path
length) by climbing parent pointers, and checking or cutting out a subtree
costs O(sum of its vertices' degrees).  So ``hull`` costs the lengths of
its |A| - 1 anchor paths plus the degrees of the hull's vertices, and
``attachment_point`` the degrees of S plus one path from v; neither makes
a whole-tree pass per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_tree import LabeledTree, _check_connected, path, restrict
from .errors import (
    EmptySet,
    NotConnectedSubset,
    UnknownVertex,
    VertexInS,
)


@dataclass(frozen=True)
class Hull:
    subtree: LabeledTree
    generating: tuple[str, ...]


@dataclass(frozen=True)
class CombReport:
    tooth: str
    root: str
    path: tuple[str, ...]  # from root (in S) to tooth (outside S)


def hull(tree: LabeledTree, subset) -> Hull:
    """Smallest subtree of ``tree`` containing every vertex of ``subset``."""
    a = sorted(set(subset))
    if not a:
        raise EmptySet("generating set")
    for v in a:
        if v not in tree.labels:
            raise UnknownVertex(v)
    anchor = a[0]
    verts = {anchor}
    for v in a[1:]:
        verts.update(path(tree, anchor, v))
    return Hull(subtree=restrict(tree, verts), generating=tuple(a))


def attachment_point(tree: LabeledTree, subset, v: str) -> CombReport:
    """First vertex of the subtree on ``subset`` reached from ``v``.

    ``subset`` must induce a connected subtree and must not contain ``v``.
    """
    s = sorted(set(subset))
    if not s:
        raise EmptySet("subtree vertex set")
    if v not in tree.labels:
        raise UnknownVertex(v)
    sset = set(s)
    for w in s:
        if w not in tree.labels:
            raise UnknownVertex(w)
    if v in sset:
        raise VertexInS(v)
    _check_connected(tree, sset)
    walk = path(tree, v, s[0])
    for i, x in enumerate(walk):
        if x in sset:
            spine = walk[: i + 1]
            return CombReport(tooth=v, root=x, path=tuple(reversed(spine)))
    raise NotConnectedSubset(s[0])  # unreachable on a valid tree
